package interp

import (
	"privagic/internal/prt"
	"privagic/internal/sgx"
)

// Worker-owned stacks. In the paper a chunk runs natively on its worker's
// own stack; here each worker owns one stack in every region it allocas
// into, carved from the region in segments. An alloca bumps the stack's
// top without a lock, and an activation gives its frame back when it
// returns, so a region's extent follows the frames live at once instead
// of the calls served. A reused slot is not zeroed, as in C.
//
// A frame outlives its activation only when its address leaves the
// worker — in a spawn argument, a cont payload, or a stored 8-byte word —
// because a sibling chunk may still read it after the activation returns.
// The worker then pins its stack: the pin floor rises to the current
// top, and no activation returns below it. Pins are dropped at the Call
// boundary, when every chunk of the Call has been joined (the partitioner
// joins each spawn at its own call site, partition.rewriteCall): the
// normal worker drops them when Interp.Call returns, an enclave worker
// when it starts the first spawn of a newer epoch. A Call that failed may
// leave stragglers holding frame addresses, so its pins are kept for the
// worker's lifetime instead.

const (
	// stackMinSeg is the first segment of a stack, and the least any
	// later one carves.
	stackMinSeg = 4 << 10
	// stackMaxGrowth caps the doubling of chained segments: a runaway
	// recursion carves segments of this size (or of the overflowing
	// frame's, when larger) until the region ceiling refuses one with a
	// *sgx.CeilingError.
	stackMaxGrowth = 1 << 20
)

// stackPos is a position in a stack: a segment of the chain and the
// region offset of the next free byte in it. Positions order by segment,
// then offset.
type stackPos struct {
	seg int
	off uint64
}

func (p stackPos) less(q stackPos) bool {
	return p.seg < q.seg || p.seg == q.seg && p.off < q.off
}

func maxPos(p, q stackPos) stackPos {
	if p.less(q) {
		return q
	}
	return p
}

// stackSeg is one carved segment: region offsets [base, end).
type stackSeg struct{ base, end uint64 }

// regionStack is one worker's stack in one region. Segments are chained
// in carving order and never given back: a stack that drops below a
// segment reuses it on its next overflow.
type regionStack struct {
	segs []stackSeg
	top  stackPos // next free byte
	pin  stackPos // pin floor: no activation returns below it
	hi   stackPos // high-water mark of the innermost effect transaction
	keep stackPos // floor that outlives the Call boundary (see reset)
}

// stackUndo is one change of a stack's top that an activation gives back
// when it returns: the region and the top before the change.
type stackUndo struct {
	id   int
	prev stackPos
}

// stackSet is a worker's stacks, one per region (part of the worker's
// state), and the undo log of the live activations' allocations. An
// activation's mark is the log's length when it starts; returning
// replays the log down to the mark, so an activation that allocas
// nothing pays one comparison.
type stackSet struct {
	regs []regionStack // by region ID; a region's segs stay nil until its first alloca there
	undo []stackUndo
	// depth counts the chunk activations running on the worker (execChunk
	// nesting); epoch and seen are the executing epoch and failed-Call
	// count at the last Call-boundary reset.
	depth int
	epoch uint64
	seen  int64
	// saved holds the outer transactions' high-water marks while a
	// nested spawn runs, len(regs) per nesting level.
	saved []stackPos
}

// mark is the position an activation returns to.
func (st *stackSet) mark() int { return len(st.undo) }

// release gives back every allocation made since mark m. A stack's top
// goes back no lower than its pin floor.
func (st *stackSet) release(m int) {
	for i := len(st.undo) - 1; i >= m; i-- {
		u := st.undo[i]
		s := &st.regs[u.id]
		s.top = maxPos(u.prev, s.pin)
	}
	st.undo = st.undo[:m]
}

// stackAlloc carves n bytes from the worker's stack in region id: a bump
// of the top, or the next segment of the chain when the current one is
// full. Only a new segment touches the region (and its lock).
func (ip *Interp) stackAlloc(st *stackSet, id sgx.RegionID, n int64) uint64 {
	s := &st.regs[id]
	size := uint64(max(n, 1)+7) &^ 7
	if len(s.segs) == 0 {
		s.segs = append(s.segs, ip.carve(id, max(size, stackMinSeg)))
		s.top = stackPos{0, s.segs[0].base}
		s.pin, s.hi, s.keep = s.top, s.top, s.top
	}
	prev := s.top
	if size > s.segs[s.top.seg].end-s.top.off {
		s.top = ip.nextSeg(s, id, size)
	}
	st.undo = append(st.undo, stackUndo{int(id), prev})
	off := s.top.off
	s.top.off += size
	s.hi = maxPos(s.hi, s.top)
	return off
}

// nextSeg moves past the current segment to the first later one that
// holds size bytes, chaining a new segment when none does. Segments past
// the top hold no live frame, so any of them may be reused.
func (ip *Interp) nextSeg(s *regionStack, id sgx.RegionID, size uint64) stackPos {
	for j := s.top.seg + 1; j < len(s.segs); j++ {
		if s.segs[j].end-s.segs[j].base >= size {
			return stackPos{j, s.segs[j].base}
		}
	}
	last := s.segs[len(s.segs)-1]
	grow := min(2*(last.end-last.base), stackMaxGrowth)
	s.segs = append(s.segs, ip.carve(id, max(size, grow)))
	j := len(s.segs) - 1
	return stackPos{j, s.segs[j].base}
}

// carve takes a stack segment from the region's bump allocator; a refused
// segment (past the region ceiling) becomes a runtime error.
func (ip *Interp) carve(id sgx.RegionID, size uint64) stackSeg {
	base := ip.alloc(id, int64(size))
	return stackSeg{base, base + size}
}

// pinIfLive pins the worker's stack when v is an address inside its live
// range: every frame up to the current top then outlives its activation
// until the Call boundary. Addresses already under the pin floor, and
// values that are no address of this worker's stacks, change nothing.
func (ip *Interp) pinIfLive(st *stackSet, v int64) {
	id, off := sgx.DecodePtr(uint64(v))
	if int(id) >= len(st.regs) {
		return
	}
	s := &st.regs[id]
	for i := 0; i <= s.top.seg && i < len(s.segs); i++ {
		if seg := s.segs[i]; off >= seg.base && off < seg.end {
			if p := (stackPos{i, off}); p.less(s.top) && !p.less(s.pin) {
				s.pin = s.top
				ip.stackPins.Add(1)
			}
			return
		}
	}
}

// pinEscapes pins the worker's stack for each value that leaves it.
func (ip *Interp) pinEscapes(w *prt.Worker, vals []val) {
	st := &stateOf(w).stack
	for _, v := range vals {
		ip.pinIfLive(st, v.I)
	}
}

// pinTx pins every frame a crashed attempt reached: the replay is served
// the attempt's alloca addresses from the journal, and until it runs no
// other activation may take them. The top rises with the floor, since an
// inner recover site may already have released the attempt's frames.
func (ip *Interp) pinTx(st *stackSet) {
	for i := range st.regs {
		if s := &st.regs[i]; s.pin.less(s.hi) {
			s.pin = s.hi
			s.top = maxPos(s.top, s.pin)
			ip.stackPins.Add(1)
		}
	}
}

// enterTx starts a spawned chunk's transaction on the stacks. When the
// chunk is nested inside another transaction on the same worker, its
// frames start above that transaction's high-water mark: the outer
// overlay may still buffer words of frames it released, and its commit,
// which comes later, must not land on a newer frame. The raise is logged
// like an allocation, so the chunk's release undoes it.
func (st *stackSet) enterTx(nested bool) {
	for i := range st.regs {
		s := &st.regs[i]
		st.saved = append(st.saved, s.hi)
		if nested && s.top.less(s.hi) {
			st.undo = append(st.undo, stackUndo{i, s.top})
			s.top = s.hi
		}
		s.hi = s.top
	}
}

// exitTx restores the outer transaction's high-water marks.
func (st *stackSet) exitTx() {
	n := len(st.saved) - len(st.regs)
	for i := range st.regs {
		st.regs[i].hi = st.saved[n+i]
	}
	st.saved = st.saved[:n]
}

// reset returns every stack to its floor at a Call boundary, with no
// activation live on the worker. A clean boundary drops the Call's pins;
// after a failed Call, stragglers of the old epoch may still hold frame
// addresses, so the pins become the stack's permanent floor.
func (st *stackSet) reset(clean bool) {
	for i := range st.regs {
		s := &st.regs[i]
		if !clean {
			s.keep = s.pin
		}
		s.top, s.pin, s.hi = s.keep, s.keep, s.keep
	}
	st.undo = st.undo[:0]
}

// stackEpoch resets an enclave worker's stacks when it starts the first
// spawn of a newer epoch from the top of its loop: the Calls of earlier
// epochs have joined every chunk they spawned.
func (ip *Interp) stackEpoch(w *prt.Worker, st *stackSet) {
	if w.Index == 0 || st.depth > 0 {
		return
	}
	if e := w.Epoch(); e != st.epoch {
		d := ip.callFailures.Load()
		st.reset(d == st.seen)
		st.epoch, st.seen = e, d
	}
}
