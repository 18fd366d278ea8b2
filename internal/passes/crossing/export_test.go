package crossing

import (
	"privagic/internal/ir"
	"privagic/internal/partition"
)

// ForceFuse rewrites every spawn of the named chunk into a direct call,
// deliberately bypassing FuseBlocker. The negative-corpus tests use it to
// prove the audit validator independently re-derives the fusion rule:
// an illegal fusion the optimizer would reject must also be caught when
// something else (a bug, a hand-edited plan) applies it anyway.
func ForceFuse(pp *partition.Program, chunkName string) bool {
	o := newOptimizer(pp)
	for _, tc := range pp.ChunkByID {
		if tc.Name() != chunkName {
			continue
		}
		for _, plan := range pp.Plans {
			for _, c := range plan.Spawns {
				if plan.Target.Chunks[c] == tc {
					return o.fuseSites(tc, plan.FArgIdx)
				}
			}
		}
	}
	return false
}

// ForceCoalesceProducer replaces the named producer chunk's sends for the
// given tags with one vectored send, leaving every consumer's waits
// untouched — a deliberately half-applied rewrite that bypasses the
// optimizer's consumer-side legality checks. The negative-corpus tests
// use it to prove the audit validator's message-plan cross-check catches
// a coalesce whose receive side cannot co-locate.
func ForceCoalesceProducer(pp *partition.Program, prodName string, tags []int) bool {
	want := map[int]bool{}
	for _, t := range tags {
		want[t] = true
	}
	for _, prod := range pp.ChunkByID {
		if prod.Name() != prodName {
			continue
		}
		for _, b := range prod.Fn.Blocks {
			var sites []sendSite
			for i, in := range b.Instrs {
				call, ok := in.(*ir.Call)
				if !ok || !isIntr(call, partition.IntrSend) {
					continue
				}
				dst, dok := constArg(call, 0)
				tag, tok := constArg(call, 1)
				if !dok || !tok || !want[int(tag)] {
					continue
				}
				sites = append(sites, sendSite{idx: i, call: call, dst: int(dst), tag: int(tag)})
			}
			if len(sites) < 2 {
				continue
			}
			newTag := pp.AllocTag()
			args := []ir.Value{ir.I64Const(int64(sites[0].dst)), ir.I64Const(int64(newTag))}
			for _, s := range sites {
				v := ir.Value(ir.I64Const(0))
				if len(s.call.Args) > 2 {
					v = s.call.Args[2]
				}
				args = append(args, v)
			}
			vec := ir.NewCallInstr(prod.Fn, pp.Intrinsic(partition.IntrSendV), args...)
			b.Splice(sites[len(sites)-1].idx, vec)
			for i := len(sites) - 2; i >= 0; i-- {
				b.Splice(sites[i].idx)
			}
			return true
		}
	}
	return false
}

// ForceSink sinks the transport with the given tag while skipping the
// loop-body legality checks of both sides (sinkBlocker). The
// negative-corpus tests use it to prove the audit validator re-derives
// the consumer-side rule: a sink the optimizer would reject must also be
// caught when something else applies it anyway.
func ForceSink(pp *partition.Program, tag int) bool {
	o := newOptimizer(pp)
	for _, pf := range pp.Funcs {
		if sk, _, _ := o.matchSink(pf, tag); sk != nil {
			o.applySink(pf, sk)
			return true
		}
	}
	return false
}
