package partition

import "privagic/internal/ir"

// Leaves reports, by chunk ID, which chunks are leaves. A leaf's body,
// and every body it reaches through direct calls, contains no runtime
// intrinsic (spawn, join, wait, send and their vectored forms), no
// indirect call and no thread_create or thread_join. A spawned leaf
// therefore exchanges no message with its peers between its spawn and
// its Done: no peer can react to anything it did before it completes.
// The answer is read off the current bodies, so call it on the final
// program, after the crossing optimizer.
func (p *Program) Leaves() []bool {
	// blocked memoizes, per function, whether its own body holds an
	// instruction a leaf may not contain; callees lists its direct calls
	// into bodies in the module.
	type body struct {
		blocked bool
		callees []*ir.Function
	}
	bodies := map[*ir.Function]*body{}
	scan := func(fn *ir.Function) *body {
		if b := bodies[fn]; b != nil {
			return b
		}
		b := &body{}
		bodies[fn] = b
		fn.Instrs(func(_ *ir.Block, in ir.Instr) {
			call, ok := in.(*ir.Call)
			if !ok {
				return
			}
			callee, direct := call.Callee.(*ir.Function)
			if !direct {
				b.blocked = true
				return
			}
			switch callee.FName {
			case IntrSpawn, IntrJoin, IntrWait, IntrWaitV, IntrSend, IntrSendV, IntrElem,
				"thread_create", "thread_join":
				b.blocked = true
			default:
				if !callee.External {
					b.callees = append(b.callees, callee)
				}
			}
		})
		return b
	}
	leaves := make([]bool, len(p.ChunkByID))
	for id, ch := range p.ChunkByID {
		if ch == nil {
			continue
		}
		seen := map[*ir.Function]bool{ch.Fn: true}
		work := []*ir.Function{ch.Fn}
		leaf := true
		for len(work) > 0 && leaf {
			b := scan(work[len(work)-1])
			work = work[:len(work)-1]
			leaf = !b.blocked
			for _, c := range b.callees {
				if !seen[c] {
					seen[c] = true
					work = append(work, c)
				}
			}
		}
		leaves[id] = leaf
	}
	return leaves
}
