package interp

import (
	"math/bits"
	"sync/atomic"

	"privagic/internal/prt"
	"privagic/internal/sgx"
)

// The effect transaction makes chunk re-execution idempotent: while a
// spawned chunk runs under recovery, every visible effect — mode-checked
// stores and console output — is buffered here instead of being applied,
// and only the chunk's successful completion commits the buffer. A
// crashed attempt discards it, so the replay starts from exactly the
// state the original attempt saw: no double-applied writes, no repeated
// output. Loads read through the buffer (a chunk always sees its own
// writes), which together with the runtime's cont replay caches makes a
// chunk a deterministic function of its spawn arguments and barrier
// inputs — the §5 execution model, now stated operationally.
//
// The transaction lives in the worker's state and is touched only on
// the worker's own goroutine; commit applies the redo log in original
// store order, so overlapping writes resolve exactly as the chunk issued
// them.
type effectTx struct {
	chunkID int
	// overlay holds the buffered bytes word-granular, so a load patches
	// them over the backing memory with one probe per touched 8-byte word
	// and a store updates its word in place.
	overlay ovTable
	// redo is the ordered write log replayed into backing memory at
	// commit; arena backs the logged bytes back to back, in log order,
	// so buffering a store does not allocate. Neither holds a pointer,
	// so the collector does not scan them.
	redo  []writeRec
	arena []byte
	// out buffers printf/puts text until commit.
	out []byte
}

// writeRec is one buffered store: its checked target and length.
type writeRec struct {
	off uint64
	n   int32
	id  int32 // sgx.RegionID
}

// txSize is an effect transaction's size: overlay words, buffered stores
// and buffered bytes. The worker's last one sizes its next fresh
// transaction, so a chunk that buffers as much as its predecessor never
// grows a buffer mid-run.
type txSize struct{ words, stores, bytes int }

// size reports the transaction's size, the next one's sizing hint.
func (tx *effectTx) size() txSize {
	return txSize{tx.overlay.n, len(tx.redo), len(tx.arena)}
}

const (
	// txFreeCap bounds the finished transactions a worker keeps: one per
	// level of spawns nested on the worker.
	txFreeCap = 4
	// txRetainBytes bounds the buffers of a transaction a worker keeps.
	// A bigger one (a memcached batch buffers tens of KiB) is dropped: it
	// would pin its buffers for the rest of the run for the rare spawn
	// that needs them.
	txRetainBytes = 16 << 10
)

// txStack is a worker's stack of finished transactions, emptied for
// reuse, and the size of its last transaction.
type txStack struct {
	free []*effectTx
	hint txSize
}

// beginTx opens an effect transaction for a spawned chunk when recovery
// is enabled (nil otherwise): the top of the worker's stack, or a fresh
// one sized for the last. A nested spawn, whose outer transaction is
// still open, takes the next one down.
func (ip *Interp) beginTx(chunkID int, s *txStack) *effectTx {
	if ip.RT.ReplayBudget <= 0 {
		return nil
	}
	var tx *effectTx
	if n := len(s.free); n > 0 {
		tx = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
	} else {
		tx = &effectTx{
			redo:  make([]writeRec, 0, s.hint.stores),
			arena: make([]byte, 0, s.hint.bytes),
		}
		tx.overlay.reserve(s.hint.words)
	}
	tx.chunkID = chunkID
	return tx
}

// put takes back a transaction that committed or was discarded: its size
// becomes the next hint, and it is emptied and kept unless the stack is
// full or its buffers are past txRetainBytes.
func (s *txStack) put(tx *effectTx) {
	s.hint = tx.size()
	// Overlay slots and redo records are 16 bytes each.
	retained := 16*(len(tx.overlay.slots)+cap(tx.redo)) + cap(tx.arena) + cap(tx.out)
	if len(s.free) == txFreeCap || retained > txRetainBytes {
		return
	}
	clear(tx.overlay.slots)
	tx.overlay.n = 0
	tx.redo, tx.arena, tx.out = tx.redo[:0], tx.arena[:0], tx.out[:0]
	s.free = append(s.free, tx)
}

// commitTx applies the buffered effects: redo log in store order, then
// the buffered output. The runtime is told first (prt.Worker.BeginCommit):
// a logged attempt publishes its loads, so a replay of the completed
// spawn is served every load these effects were computed from, and a
// leaf's spawn passes its point of no return.
func (ip *Interp) commitTx(w *prt.Worker, tx *effectTx) {
	if tx == nil {
		return
	}
	w.BeginCommit()
	pos := 0
	for _, rec := range tx.redo {
		ip.writeBack(ip.RT.Space.Region(sgx.RegionID(rec.id)), rec.off, tx.arena[pos:pos+int(rec.n)])
		pos += int(rec.n)
	}
	if len(tx.out) > 0 {
		ip.print(string(tx.out))
	}
	ip.effCommits.Add(1)
}

// discardTx drops a crashed attempt's buffered effects (the replay must
// not see them).
func (ip *Interp) discardTx(tx *effectTx) {
	if tx == nil {
		return
	}
	ip.effDiscards.Add(1)
}

// EffectStats reports how many chunk effect transactions committed and
// how many were discarded by a crashed attempt.
func (ip *Interp) EffectStats() (commits, discards int64) {
	return ip.effCommits.Load(), ip.effDiscards.Load()
}

// SetCrashPoint installs the mid-chunk crash hook: it is consulted on
// every buffered store of a spawned chunk (workerIdx, chunk, 1-based
// store number) and a non-nil return value is panicked — the fault
// injector returns values marked with an InjectedFault method so the
// panic re-surfaces as an EnclaveAbort instead of being absorbed as a
// program error. Install before Call; nil removes the hook.
func (ip *Interp) SetCrashPoint(hook func(workerIdx, chunkID, storeN int) any) {
	ip.crashPoint = hook
}

// EnableRecovery turns on bounded replay in the runtime, up to budget
// replays per crashed spawn, and effect buffering in the interpreter (the
// two halves are only correct together: replay without buffering
// double-applies writes, buffering without replay just delays them).
// Call before the first Call.
func (ip *Interp) EnableRecovery(budget int) {
	ip.RT.ReplayBudget = budget
}

// buffer records an already checked n-byte store at ref in the
// transaction's redo log instead of applying it; the caller appends its
// bytes to the arena and buffers them in the overlay, which serves them
// to the chunk's own later loads. Each buffered store is one crash
// point, however many words it touches.
func (ip *Interp) buffer(w *prt.Worker, tx *effectTx, ref sgx.Ref, n int) {
	if hook := ip.crashPoint; hook != nil {
		if f := hook(w.Index, tx.chunkID, len(tx.redo)+1); f != nil {
			panic(f)
		}
	}
	tx.redo = append(tx.redo, writeRec{off: ref.Off, n: int32(n), id: int32(ref.ID)})
}

// ovTable is the overlay: a flat open-addressed table of buffered 8-byte
// words with linear probing. slots is empty or a power of two long, and
// at most half full, so a probe for an unbuffered word (most loads) ends
// after a couple of slots.
type ovTable struct {
	slots []ovSlot
	n     int // occupied slots
	shift uint8
}

// ovSlot is one buffered word. key packs the word (see ovWord) with the
// mask of buffered bytes in its top byte; a buffered word has a nonzero
// mask, so a zero key is an empty slot. val holds the buffered bytes in
// place, little-endian like the memory word.
type ovSlot struct {
	key uint64
	val uint64
}

const (
	// ovRegionShift places a word's region above its word index in the
	// region: a checked access ends at or below sgx.MaxOffset (1<<28), so
	// the index fits in 25 bits, and the region in the 31 above it.
	ovRegionShift = 25
	ovWordMask    = 1<<56 - 1
	ovMinSlots    = 16
)

// ovWord is the key of the word holding byte off of ref's region.
func ovWord(ref sgx.Ref, off uint64) uint64 {
	return uint64(ref.ID)<<ovRegionShift | off>>3
}

// byteBits widens a mask of bytes (bit i for byte i) to the bit mask of
// those bytes.
func byteBits(m uint8) uint64 {
	x := uint64(m)
	x = (x | x<<28) & 0x0000000F0000000F
	x = (x | x<<14) & 0x0003000300030003
	x = (x | x<<7) & 0x0101010101010101
	return x * 0xFF
}

// bitBytes narrows a byte-aligned bit mask to its mask of bytes, the
// inverse of byteBits.
func bitBytes(mask uint64) uint8 {
	return uint8((mask & 0x0101010101010101) * 0x0102040810204080 >> 56)
}

// reserve sizes an empty table for words buffered words.
func (t *ovTable) reserve(words int) {
	if words > 0 {
		t.resize(2 * words)
	}
}

// resize rehashes the table into the smallest power of two of at least
// want (and ovMinSlots) slots.
func (t *ovTable) resize(want int) {
	n := ovMinSlots
	for n < want {
		n <<= 1
	}
	old := t.slots
	t.slots = make([]ovSlot, n)
	t.shift = uint8(64 - bits.TrailingZeros(uint(n)))
	for _, s := range old {
		if s.key != 0 {
			t.slots[t.find(s.key&ovWordMask)] = s
		}
	}
}

// find returns the slot holding word, or the empty slot where it goes.
// The table must have slots.
func (t *ovTable) find(word uint64) int {
	m := len(t.slots) - 1
	for i := int(word * 0x9E3779B97F4A7C15 >> t.shift); ; i = (i + 1) & m {
		if k := t.slots[i].key; k == 0 || k&ovWordMask == word {
			return i
		}
	}
}

// store buffers the bits of v under mask (whole bytes) into word: one
// probe, one masked merge.
func (t *ovTable) store(word, v, mask uint64) {
	if 2*(t.n+1) > len(t.slots) {
		t.resize(2 * len(t.slots))
	}
	s := &t.slots[t.find(word)]
	if s.key == 0 {
		t.n++
	}
	s.val = s.val&^mask | v&mask
	s.key = word | uint64(uint8(s.key>>56)|bitBytes(mask))<<56
}

// merge returns v, a backing word, with the bytes buffered for word in
// their place: one probe, one masked merge. The table must not be empty.
func (t *ovTable) merge(word, v uint64) uint64 {
	s := &t.slots[t.find(word)]
	m := byteBits(uint8(s.key >> 56))
	return v&^m | s.val&m
}

// printTx routes program output through the active transaction.
func (ip *Interp) printTx(w *prt.Worker, s string) {
	if tx := stateOf(w).tx; tx != nil {
		tx.out = append(tx.out, s...)
		return
	}
	ip.print(s)
}

// effect counters (atomic: committed on worker goroutines).
type effCounters struct {
	effCommits  atomic.Int64
	effDiscards atomic.Int64
}
