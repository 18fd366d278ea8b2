package interp

import (
	"encoding/binary"
	"math/bits"

	"privagic/internal/prt"
	"privagic/internal/sgx"
)

// workerState is the interpreter's per-worker state, kept in the
// worker's one embedder slot (prt.Worker.Local). A worker belongs to one
// application thread and one enclave, so this is the state of one app
// thread in one enclave:
//   - the executing chunk's effect transaction and copy-in snapshot
//     (saved and restored around a nested spawn on the same worker), and
//     the finished transactions kept for reuse;
//   - the differential recorder and the compiled tier's frame free list;
//   - the worker's stacks, the bulk builtins' staging buffer and the
//     boundary counts not yet published;
//   - vecs, the last vector __pv_waitv received per cont tag, which
//     __pv_elem reads;
//   - children, the thread_create threads started here that the next
//     thread_join on this worker waits for.
//
// Touched only on the worker's own goroutine, so none of it is locked.
type workerState struct {
	tx       *effectTx
	txs      txStack
	snap     *boundarySnap
	rec      *diffRecorder
	frames   frameList
	stack    stackSet
	bulk     []byte
	counts   boundaryCounts
	vecs     map[int][]val
	children []*appThread
}

// stateOf returns the worker's state, creating it on first use.
func stateOf(w *prt.Worker) *workerState {
	ws, _ := w.Local.(*workerState)
	if ws == nil {
		ws = &workerState{}
		ws.stack.regs = make([]regionStack, len(w.Thread.RT.Space.Regions()))
		w.Local = ws
	}
	return ws
}

// The checked access. Every load and store of a chunk goes through one
// core that works on a single aligned 8-byte word: a scalar access that
// lies inside one word (almost all of them: no IR scalar is wider than a
// word) is one pass of it, and a byte range (the bulk builtins, a scalar
// straddling two words) checks the whole range once and then runs the
// same core once per touched word. The value travels as a uint64 whose
// bytes are the memory's bytes in little-endian order, so no access
// assembles a word byte by byte.

// lowBytes is the bit mask of the low n (at most 8) bytes of a word.
func lowBytes(n int) uint64 { return ^uint64(0) >> (64 - 8*uint(n)) }

// checkAccess is the first step of every checked access, run once for
// the whole n-byte range at addr: resolve the address, run the pointer
// sanitizer (when armed), count the load's boundary class, and apply the
// machine's access check — the same one for loads, direct stores and
// stores an effect transaction buffers, so a buffered store obeys the
// mode and ceiling rules at the faulting instruction exactly like a
// direct one.
func (ip *Interp) checkAccess(w *prt.Worker, ws *workerState, addr uint64, n int, store bool) sgx.Ref {
	ref := ip.RT.Space.Resolve(addr)
	if ip.boundary.SanitizePointers {
		ip.sanitize(w, ws, ref, n, store)
	}
	if !store && ip.boundary.any() {
		if ref.ID != sgx.Unsafe {
			ws.counts.trustedLoads++
		} else if !ip.boundary.Snapshots || ws.snap == nil {
			ws.counts.unsafeLoads++
		}
	}
	if err := ref.Check(w.Mode, n, store); err != nil {
		panic(runtimeErr{Err: err})
	}
	return ref
}

// readWord is the per-word core of a checked load: the aligned word at
// wordOff of ref's region as the chunk sees it. The backing read goes
// through the snapshot or observer for unsafe memory while either is
// engaged; the transaction's buffered bytes are then merged over it, so
// a chunk observes its own writes.
func (ip *Interp) readWord(w *prt.Worker, ws *workerState, ref sgx.Ref, wordOff uint64) uint64 {
	var v uint64
	if ref.ID == sgx.Unsafe && (ip.boundary.Snapshots || ip.bobs != nil) {
		v = ip.snapWord(ws, w.Mode != sgx.Unsafe, ref.Region, wordOff)
	} else {
		v = ref.Region.LoadWord(wordOff)
	}
	if tx := ws.tx; tx != nil && tx.overlay.n > 0 {
		v = tx.overlay.merge(ovWord(ref, wordOff), v)
	}
	return v
}

// writeWord is the per-word core of a checked store: the bits of v
// under mask go into the word at wordOff of ref's region — buffered in
// the transaction's overlay when one is open, else written back with the
// snapshot kept coherent (a copied-in word the chunk just overwrote must
// serve the new bytes).
func (ip *Interp) writeWord(ws *workerState, ref sgx.Ref, wordOff, v, mask uint64) {
	if tx := ws.tx; tx != nil {
		tx.overlay.store(ovWord(ref, wordOff), v, mask)
		return
	}
	ip.backWord(ref.Region, wordOff, v, mask)
	if ws.snap != nil && ref.ID == sgx.Unsafe {
		ws.snap.sync(wordOff, v, mask)
	}
}

// loadWord is the checked load of n bytes at addr, a range inside one
// aligned word: the check, one readWord, one load-log entry (the
// post-overlay bytes: a replayed chunk re-reads them from the journal
// instead of live memory, which committed nested effects may have moved
// past the crashed attempt's view) and the OnAccess hook. The bytes come
// back zero-extended.
func (ip *Interp) loadWord(w *prt.Worker, addr uint64, n int) uint64 {
	ws := stateOf(w)
	ref := ip.checkAccess(w, ws, addr, n, false)
	sh := ref.Off & 7 * 8
	v := ip.readWord(w, ws, ref, ref.Off&^7) >> sh & lowBytes(n)
	if ws.tx != nil {
		v = w.JournalLoadWord(v, n)
	}
	if ip.OnAccess != nil {
		ip.OnAccess(addr, int64(n), false, w.Mode)
	}
	return v
}

// storeWord is the checked store of the low n bytes of v at addr, a range
// inside one aligned word: the check, the transaction's store record
// when one is open, one writeWord and the OnAccess hook.
func (ip *Interp) storeWord(w *prt.Worker, addr uint64, n int, v uint64) {
	ws := stateOf(w)
	ref := ip.checkAccess(w, ws, addr, n, true)
	if tx := ws.tx; tx != nil {
		ip.buffer(w, tx, ref, n)
		end := len(tx.arena) + n
		tx.arena = binary.LittleEndian.AppendUint64(tx.arena, v)[:end]
	}
	sh := ref.Off & 7 * 8
	ip.writeWord(ws, ref, ref.Off&^7, v<<sh, lowBytes(n)<<sh)
	if ip.OnAccess != nil {
		ip.OnAccess(addr, int64(n), true, w.Mode)
	}
}

// loadBytes is the checked load of a byte range: the check once for the
// whole range, readWord once per touched word, one load-log entry for
// the range and the OnAccess hook — loadWord's steps, with the word core
// in a loop.
func (ip *Interp) loadBytes(w *prt.Worker, addr uint64, buf []byte) {
	ws := stateOf(w)
	ref := ip.checkAccess(w, ws, addr, len(buf), false)
	for i := 0; i < len(buf); {
		off := ref.Off + uint64(i)
		v := ip.readWord(w, ws, ref, off&^7)
		if off&7 == 0 && len(buf)-i >= 8 {
			binary.LittleEndian.PutUint64(buf[i:], v)
			i += 8
			continue
		}
		for b := off & 7; b < 8 && i < len(buf); b, i = b+1, i+1 {
			buf[i] = byte(v >> (8 * b))
		}
	}
	if ws.tx != nil {
		w.JournalLoad(buf)
	}
	if ip.OnAccess != nil {
		ip.OnAccess(addr, int64(len(buf)), false, w.Mode)
	}
}

// storeBytes is the checked store of a byte range: the check once for
// the whole range, the transaction's store record (one per call, however
// many words it touches), writeWord once per touched word and the
// OnAccess hook — storeWord's steps, with the word core in a loop.
func (ip *Interp) storeBytes(w *prt.Worker, addr uint64, data []byte) {
	ws := stateOf(w)
	ref := ip.checkAccess(w, ws, addr, len(data), true)
	if tx := ws.tx; tx != nil {
		ip.buffer(w, tx, ref, len(data))
		tx.arena = append(tx.arena, data...)
	}
	sgx.ForWords(ref.Off, data, func(wordOff, v, mask uint64) {
		ip.writeWord(ws, ref, wordOff, v, mask)
	})
	if ip.OnAccess != nil {
		ip.OnAccess(addr, int64(len(data)), true, w.Mode)
	}
}

// writeBack applies checked bytes to backing memory, for a transaction
// commit: one backWord per touched word.
func (ip *Interp) writeBack(r *sgx.Region, off uint64, data []byte) {
	sgx.ForWords(off, data, func(wordOff, v, mask uint64) { ip.backWord(r, wordOff, v, mask) })
}

// backWord writes the bits of v under mask into the backing word at
// wordOff, for a direct store or a commit. A write to unsafe memory runs
// inside the observer, when one is installed — one GuardedStore per word,
// naming the bytes written — so a pending corruption of the word is
// resolved before legitimate data lands.
func (ip *Interp) backWord(r *sgx.Region, wordOff, v, mask uint64) {
	if ip.bobs == nil || r.ID != sgx.Unsafe {
		r.MergeWord(wordOff, v, mask)
		return
	}
	ip.guardedStore(r, wordOff, v, mask)
}

// guardedStore is backWord's observed write. It is its own function so
// the values the callback captures move to the heap only when an
// observer is installed.
func (ip *Interp) guardedStore(r *sgx.Region, wordOff, v, mask uint64) {
	first := uint64(bits.TrailingZeros64(mask) / 8)
	n := bits.OnesCount64(mask) / 8
	ip.bobs.GuardedStore(sgx.EncodePtr(sgx.Unsafe, wordOff+first), n, func() { r.MergeWord(wordOff, v, mask) })
}

// bulkRetain bounds the bulk builtins' staging buffer a worker keeps;
// a longer copy stages through a buffer of its own.
const bulkRetain = 4 << 10

// bulkBuf returns the staging buffer of a bulk builtin after bounding
// the program-supplied length n, which in the §4 threat model may come
// from U memory: a negative n, or a range from any of addrs past
// sgx.MaxOffset, is refused before anything is allocated — as a typed
// Iago violation when the sanitizer is armed, a runtime error otherwise.
// Up to bulkRetain bytes, the buffer is the worker's own, reused by its
// next bulk builtin: the caller overwrites all of it before reading, and
// nothing keeps it (a buffered store copies it into the transaction's
// arena, a load into the load log).
func (ip *Interp) bulkBuf(w *prt.Worker, name string, n int64, addrs ...uint64) []byte {
	for _, addr := range addrs {
		if _, off := sgx.DecodePtr(addr); n < 0 || off > sgx.MaxOffset || uint64(n) > sgx.MaxOffset-off {
			if ip.boundary.SanitizePointers {
				ip.iagoViolation(w, ip.RT.Space.Resolve(addr), int(n))
			}
			errf("interp: %s of %d bytes at %#x runs past the region ceiling", name, n, addr)
		}
	}
	if n > bulkRetain {
		return make([]byte, n)
	}
	ws := stateOf(w)
	if int64(cap(ws.bulk)) < n {
		ws.bulk = make([]byte, n)
	}
	return ws.bulk[:n]
}
