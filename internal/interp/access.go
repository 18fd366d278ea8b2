package interp

import (
	"privagic/internal/prt"
	"privagic/internal/sgx"
)

// workerState is the interpreter's per-worker state, kept in the
// worker's one embedder slot (prt.Worker.Local): the executing chunk's
// effect transaction and copy-in snapshot (saved and restored around a
// nested spawn on the same worker), the finished transactions kept for
// reuse, the differential recorder, the compiled tier's frame free list,
// the worker's stacks and the bulk builtins' staging buffer. Touched
// only on the worker's own goroutine.
type workerState struct {
	tx     *effectTx
	txs    txStack
	snap   *boundarySnap
	rec    *diffRecorder
	frames frameList
	stack  stackSet
	bulk   []byte
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

// loadBytes is the one checked load. In order: the pointer sanitizer
// (when armed), the boundary stats, the machine's access check, the
// backing read (through the snapshot or observer for unsafe memory while
// either is engaged), the transaction overlay so a chunk observes its
// own buffered writes, the replay journal, and the OnAccess hook.
func (ip *Interp) loadBytes(w *prt.Worker, addr uint64, buf []byte) {
	ws := stateOf(w)
	ref := ip.RT.Space.Resolve(addr)
	if ip.boundary.SanitizePointers {
		ip.sanitize(w, ref, len(buf), false)
	}
	if ip.boundary.any() {
		if ref.ID != sgx.Unsafe {
			ip.bStats.trustedLoads.Add(1)
		} else if !ip.boundary.Snapshots || ws.snap == nil {
			ip.bStats.unsafeLoads.Add(1)
		}
	}
	if err := ref.Check(w.Mode, len(buf), false); err != nil {
		panic(runtimeErr{Err: err})
	}
	if ref.ID == sgx.Unsafe && (ip.boundary.Snapshots || ip.bobs != nil) {
		ip.snapLoad(ws.snap, w.Mode != sgx.Unsafe, ref, buf)
	} else {
		ref.Region.Load(ref.Off, buf)
	}
	if tx := ws.tx; tx != nil {
		if tx.overlay.n > 0 {
			tx.overlay.patch(ref, buf)
		}
		// Journal the post-overlay bytes: a replayed chunk re-reads them
		// from the journal instead of live memory, which committed nested
		// effects may have moved past the crashed attempt's view.
		w.JournalLoad(buf)
	}
	if ip.OnAccess != nil {
		ip.OnAccess(addr, int64(len(buf)), false, w.Mode)
	}
}

// storeBytes is the one checked store. In order: the pointer sanitizer
// (when armed), the machine's access check — the same one loads use, so
// a store buffered by an effect transaction obeys the mode and ceiling
// rules at the faulting instruction exactly like a direct store — then
// either buffering in the active transaction or the write-back with the
// snapshot kept coherent, and the OnAccess hook.
func (ip *Interp) storeBytes(w *prt.Worker, addr uint64, data []byte) {
	ws := stateOf(w)
	ref := ip.RT.Space.Resolve(addr)
	if ip.boundary.SanitizePointers {
		ip.sanitize(w, ref, len(data), true)
	}
	if err := ref.Check(w.Mode, len(data), true); err != nil {
		panic(runtimeErr{Err: err})
	}
	if tx := ws.tx; tx != nil {
		ip.buffer(w, tx, ref, data)
	} else {
		ip.writeBack(ref.Region, ref.Off, data)
		// A copied-in word the chunk just overwrote must serve the new
		// bytes.
		if ws.snap != nil && ref.ID == sgx.Unsafe {
			ws.snap.sync(ref.Off, data)
		}
	}
	if ip.OnAccess != nil {
		ip.OnAccess(addr, int64(len(data)), true, w.Mode)
	}
}

// writeBack applies checked bytes to backing memory, for a direct store
// or a transaction commit. A write to unsafe memory runs inside the
// observer, when one is installed, so a pending corruption of those
// words is resolved before legitimate data lands.
func (ip *Interp) writeBack(r *sgx.Region, off uint64, data []byte) {
	if ip.bobs == nil || r.ID != sgx.Unsafe {
		r.Store(off, data)
		return
	}
	// The callback gets its own copy: capturing data would make every
	// caller's buffer escape to the heap, observer or not.
	own := append([]byte(nil), data...)
	ip.bobs.GuardedStore(sgx.EncodePtr(sgx.Unsafe, off), len(own), func() { r.Store(off, own) })
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
