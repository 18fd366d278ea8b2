package audit

import (
	"fmt"
	"sort"

	"privagic/internal/ir"
	"privagic/internal/partition"
)

// checkSunk re-proves the consumer side of every cont the crossing
// optimizer sank out of a search loop (partition.PartFunc.Sunk). A sunk
// cont reaches each consumer once, on the first iteration of its loop,
// and the consumer then walks the rest of the loop with no further
// message, so the walk's loads run after the producer's whole walk. That
// delay is unobservable only when the cont is received at exactly one
// site and the consumer's loop around it only loads and computes: no
// store, no call, no other message, no split allocation. The optimizer
// derives the same fact before sinking; this is the validator's own
// derivation, not a shared one.
func (v *validator) checkSunk(pf *partition.PartFunc) {
	tags := make([]int, 0, len(pf.Sunk))
	for tag := range pf.Sunk {
		tags = append(tags, tag)
	}
	sort.Ints(tags)
	key := pf.Spec.Key
	for _, tag := range tags {
		for _, c := range pf.Sunk[tag].Consumers {
			ch := pf.Chunks[c]
			if ch == nil {
				v.errorf(ErrPlan, ir.Pos{}, key, "", nil, "sunk loop cont tag %d names consumer %s, which has no chunk", tag, c)
				continue
			}
			var waits []*ir.Call
			ch.Fn.Instrs(func(_ *ir.Block, in ir.Instr) {
				if call, ok := in.(*ir.Call); ok {
					if fn, direct := call.Callee.(*ir.Function); direct && fn.FName == partition.IntrWait {
						if t, tok := constArg(call, 0); tok && int(t) == tag {
							waits = append(waits, call)
						}
					}
				}
			})
			if len(waits) != 1 {
				v.errorf(ErrPlan, ir.Pos{}, key, ch.Name(), v.tagTrace(pf, tag, fmt.Sprintf(
					"sink: chunk %s receives sunk loop cont tag %d at %d sites", ch.Name(), tag, len(waits))),
					"chunk of color %s receives sunk loop cont tag %d at %d sites; a sunk cont is received exactly once per loop activation",
					c, tag, len(waits))
				continue
			}
			if reason := sunkLoopBlocker(v.prog, ch.Fn, waits[0]); reason != "" {
				v.errorf(ErrPlan, waits[0].InstrPos(), key, ch.Name(), v.tagTrace(pf, tag, fmt.Sprintf(
					"sink: chunk %s receives sunk loop cont tag %d, but %s", ch.Name(), tag, reason)),
					"sunk loop cont tag %d: %s; a consumer walks its loop after the producer's walk, so the loop may only load and compute",
					tag, reason)
			}
		}
	}
}

// sunkLoopBlocker finds the innermost natural loop around wait (back
// edges merged per header) and returns the first thing in it a delayed
// walk could make observable, or "" when the loop only loads and
// computes.
func sunkLoopBlocker(prog *partition.Program, fn *ir.Function, wait *ir.Call) string {
	fn.ComputeCFG()
	dom := ir.Dominators(fn)
	loops := map[*ir.Block]map[*ir.Block]bool{}
	for _, a := range fn.Blocks {
		for _, h := range a.Succs() {
			if !dom.Dominates(h, a) {
				continue
			}
			body := loops[h]
			if body == nil {
				body = map[*ir.Block]bool{h: true}
				loops[h] = body
			}
			for stack := []*ir.Block{a}; len(stack) > 0; {
				b := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if !body[b] {
					body[b] = true
					stack = append(stack, b.Preds()...)
				}
			}
		}
	}
	var loop map[*ir.Block]bool
	for _, body := range loops {
		if body[wait.Parent()] && (loop == nil || len(body) < len(loop)) {
			loop = body
		}
	}
	if loop == nil {
		return "the wait is not inside a loop"
	}
	for _, b := range fn.Blocks {
		if !loop[b] {
			continue
		}
		for _, in := range b.Instrs {
			switch x := in.(type) {
			case *ir.Store:
				return fmt.Sprintf("its loop stores through %s", x.Ptr.Name())
			case *ir.Free:
				return fmt.Sprintf("its loop frees %s", x.Ptr.Name())
			case *ir.Call:
				if x == wait {
					continue
				}
				if callee, direct := x.Callee.(*ir.Function); direct {
					return fmt.Sprintf("its loop calls @%s", callee.FName)
				}
				return "its loop makes an indirect call"
			case *ir.Malloc:
				if st, ok := x.Elem.(*ir.StructType); ok && prog.Splits[st.Name] != nil {
					return fmt.Sprintf("its loop allocates split struct %%%s", st.Name)
				}
			}
		}
	}
	return ""
}
