package crossing

import (
	"privagic/internal/ir"
)

// Estimator carries the frequency heuristics. Counted loops are exact;
// everything else is a calibrated guess, checked against tracer
// measurements by the calibration test (±10% on the example corpus).
type Estimator struct {
	// DefaultTrip is the assumed iteration count of an unknown-bound
	// loop with no early exit.
	DefaultTrip float64
	// SearchTrip is the assumed iteration count of a probe loop (early
	// exit from the body): chains are short, probes usually hit early.
	SearchTrip float64
	// ColdExit is the probability that a probe loop falls off its
	// header exit (the not-found / grow path) instead of returning from
	// the body. Allocation-bearing exit paths amortize away in steady
	// state, so this is well below half.
	ColdExit float64
	// BranchProb is the taken-probability of each side of a
	// data-dependent two-way branch.
	BranchProb float64
}

// DefaultEstimator is the calibrated default (see TestCalibration).
func DefaultEstimator() Estimator {
	return Estimator{DefaultTrip: 8, SearchTrip: 1, ColdExit: 0.125, BranchProb: 0.5}
}

// Freq holds estimated per-block execution counts for one function body,
// normalized to one invocation of the function.
type Freq struct {
	Block map[*ir.Block]float64
	Loops *LoopInfo
	// Activations is each loop's entry count: the mass reaching its
	// header from outside the loop.
	Activations map[*Loop]float64
}

// EstimateFreq propagates execution frequency from the entry block over
// the acyclic (back-edge-free) CFG. Loop headers multiply incoming mass by
// the loop's trip estimate; a loop's exiting branch returns the entry mass
// (scaled by ColdExit for search loops) to the blocks after the loop; all
// other two-way branches split by BranchProb.
func EstimateFreq(fn *ir.Function, est Estimator) *Freq {
	li := AnalyzeLoops(fn)
	fr := &Freq{Block: map[*ir.Block]float64{}, Loops: li, Activations: map[*Loop]float64{}}
	if len(fn.Blocks) == 0 {
		return fr
	}

	// Edge frequencies accumulate into successor blocks in reverse
	// postorder over forward edges.
	order := forwardRPO(fn, li)
	edge := map[[2]*ir.Block]float64{}
	for i, b := range order {
		f := 0.0
		if i == 0 {
			f = 1.0
		}
		for _, p := range b.Preds() {
			if li.isBackEdge(p, b) {
				continue
			}
			f += edge[[2]*ir.Block{p, b}]
		}
		entryMass := f
		if l := li.ByHeader[b]; l != nil {
			fr.Activations[l] = entryMass
			f *= trip(l, est)
		}
		fr.Block[b] = f

		switch t := b.Terminator().(type) {
		case *ir.Br:
			edge[[2]*ir.Block{b, t.Target}] += f
		case *ir.CondBr:
			l := innermostWithExit(li, b)
			switch {
			case l != nil && b == l.Header && exitsLoop(l, t):
				// The loop's own exiting test: the exit edge
				// carries the mass that entered the loop (every
				// entry eventually leaves), scaled down when
				// body early-exits drain most of it first.
				exitF := entryMass
				if l.Search {
					exitF = entryMass * est.ColdExit
				}
				if exitF > f {
					exitF = f
				}
				out, in := t.Then, t.Else
				if l.Blocks[t.Then] {
					out, in = t.Else, t.Then
				}
				edge[[2]*ir.Block{b, out}] += exitF
				edge[[2]*ir.Block{b, in}] += f - exitF
			default:
				edge[[2]*ir.Block{b, t.Then}] += f * est.BranchProb
				edge[[2]*ir.Block{b, t.Else}] += f * (1 - est.BranchProb)
			}
		}
	}
	return fr
}

// At returns the estimated execution count of the block holding in.
func (fr *Freq) At(in ir.Instr) float64 {
	if b := in.Parent(); b != nil {
		return fr.Block[b]
	}
	return 0
}

func trip(l *Loop, est Estimator) float64 {
	switch {
	case l.KnownTrip:
		return l.Trip
	case l.Search:
		return est.SearchTrip
	default:
		return est.DefaultTrip
	}
}

// innermostWithExit returns the innermost loop containing b for which b's
// terminator is a loop-exiting branch, or nil.
func innermostWithExit(li *LoopInfo, b *ir.Block) *Loop {
	for l := li.Innermost[b]; l != nil; l = l.Parent {
		if cb, ok := b.Terminator().(*ir.CondBr); ok && exitsLoop(l, cb) {
			return l
		}
	}
	return nil
}

func exitsLoop(l *Loop, cb *ir.CondBr) bool {
	return l.Blocks[cb.Then] != l.Blocks[cb.Else]
}

// forwardRPO is a reverse postorder over the CFG with back edges removed,
// so every block is visited after all of its forward predecessors.
func forwardRPO(fn *ir.Function, li *LoopInfo) []*ir.Block {
	seen := map[*ir.Block]bool{}
	var post []*ir.Block
	var dfs func(b *ir.Block)
	dfs = func(b *ir.Block) {
		if seen[b] {
			return
		}
		seen[b] = true
		for _, s := range b.Succs() {
			if li.isBackEdge(b, s) {
				continue
			}
			dfs(s)
		}
		post = append(post, b)
	}
	dfs(fn.Blocks[0])
	out := make([]*ir.Block, len(post))
	for i, b := range post {
		out[len(post)-1-i] = b
	}
	return out
}
