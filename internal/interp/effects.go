package interp

import (
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
	// overlay holds the buffered bytes word-granular (8-byte entries
	// keyed by addr>>3, with a per-byte valid mask), so a typical scalar
	// load or store costs one map access instead of one per byte; loads
	// patch it over the backing memory.
	overlay map[uint64]ovWord
	// redo is the ordered write log replayed into backing memory at
	// commit; arena backs the logged bytes back to back, in log order,
	// so buffering a store does not allocate.
	redo  []writeRec
	arena []byte
	// out buffers printf/puts text until commit.
	out []byte
	// stores counts buffered writes (the crash-point hook's cursor).
	stores int
}

// ovWord is one aligned 8-byte overlay entry; mask bit i marks bytes[i]
// as buffered.
type ovWord struct {
	bytes [8]byte
	mask  uint8
}

// writeRec is one buffered store: its checked target and length.
type writeRec struct {
	r   *sgx.Region
	off uint64
	n   int
}

// beginTx opens an effect transaction for a spawned chunk when recovery
// is enabled (nil otherwise).
func (ip *Interp) beginTx(chunkID int) *effectTx {
	if !ip.RT.Recovery.Enabled() {
		return nil
	}
	return &effectTx{chunkID: chunkID}
}

// commitTx applies the buffered effects: redo log in store order, then
// the buffered output.
func (ip *Interp) commitTx(tx *effectTx) {
	if tx == nil {
		return
	}
	pos := 0
	for _, rec := range tx.redo {
		ip.writeBack(rec.r, rec.off, tx.arena[pos:pos+rec.n])
		pos += rec.n
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

// EnableRecovery turns on bounded restart/replay in the runtime and
// effect buffering in the interpreter (the two halves are only correct
// together: replay without buffering double-applies writes, buffering
// without replay just delays them). Call before the first Call.
func (ip *Interp) EnableRecovery(p prt.RecoveryPolicy) {
	ip.RT.Recovery = p
}

// patch applies the overlay's buffered bytes over a load's result, one
// map access per touched 8-byte word.
func (tx *effectTx) patch(addr uint64, buf []byte) {
	for i := 0; i < len(buf); {
		wk := (addr + uint64(i)) >> 3
		w, ok := tx.overlay[wk]
		for ; i < len(buf) && (addr+uint64(i))>>3 == wk; i++ {
			if ok {
				bi := (addr + uint64(i)) & 7
				if w.mask&(1<<bi) != 0 {
					buf[i] = w.bytes[bi]
				}
			}
		}
	}
}

// buffer records an already checked store in the transaction instead of
// applying it: the redo log keeps it for commit, the overlay serves it
// to the chunk's own later loads. Each buffered store is one crash point.
func (ip *Interp) buffer(w *prt.Worker, tx *effectTx, ref sgx.Ref, data []byte) {
	tx.stores++
	if hook := ip.crashPoint; hook != nil {
		if f := hook(w.Index, tx.chunkID, tx.stores); f != nil {
			panic(f)
		}
	}
	if tx.overlay == nil {
		tx.overlay = make(map[uint64]ovWord, 8)
	}
	tx.arena = append(tx.arena, data...)
	tx.redo = append(tx.redo, writeRec{r: ref.Region, off: ref.Off, n: len(data)})
	addr := ref.Addr
	for i := 0; i < len(data); {
		wk := (addr + uint64(i)) >> 3
		w := tx.overlay[wk]
		for ; i < len(data) && (addr+uint64(i))>>3 == wk; i++ {
			bi := (addr + uint64(i)) & 7
			w.bytes[bi] = data[i]
			w.mask |= 1 << bi
		}
		tx.overlay[wk] = w
	}
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
