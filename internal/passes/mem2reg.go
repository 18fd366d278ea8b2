// Package passes implements the classic SSA transformations Privagic runs
// before and after the secure-typing analysis: mem2reg (paper §5.1) and
// dead-code elimination (paper §7.3.1).
package passes

import (
	"privagic/internal/ir"
)

// Mem2Reg promotes local variables to SSA registers, inserting φ-nodes at
// iterated dominance frontiers. Exactly as in the paper (§5.1), a local is
// promoted only when the code never creates a pointer to it — its address
// is used exclusively as the direct operand of loads and stores — and when
// it carries no explicit color (a colored local is a real enclave memory
// location and must stay addressable). Such promoted variables can only be
// touched by a single thread, so the colors later inferred for the
// registers are correct even in multi-threaded programs.
//
// It returns the number of allocas promoted.
func Mem2Reg(f *ir.Function) int {
	if f.External || len(f.Blocks) == 0 {
		return 0
	}
	f.ComputeCFG()

	promotable := findPromotable(f)
	if len(promotable) == 0 {
		return 0
	}
	dom := ir.Dominators(f)

	// Phi placement at iterated dominance frontiers of the store blocks.
	phiFor := map[*ir.Phi]*ir.Alloca{}
	phisInBlock := map[*ir.Block][]*ir.Phi{}
	for _, a := range promotable {
		defBlocks := map[*ir.Block]bool{}
		f.Instrs(func(b *ir.Block, in ir.Instr) {
			if st, ok := in.(*ir.Store); ok && st.Ptr == ir.Value(a) {
				defBlocks[b] = true
			}
		})
		// Seed the worklist in block order, not map order: phi creation
		// order fixes phi names, so map order would make the emitted IR
		// differ between builds of the same source.
		placed := map[*ir.Block]bool{}
		work := make([]*ir.Block, 0, len(defBlocks))
		for _, b := range f.Blocks {
			if defBlocks[b] {
				work = append(work, b)
			}
		}
		for len(work) > 0 {
			b := work[len(work)-1]
			work = work[:len(work)-1]
			for _, df := range dom.Frontier(b) {
				if placed[df] {
					continue
				}
				placed[df] = true
				phi := ir.NewPhi(f, a.Elem)
				phiFor[phi] = a
				phisInBlock[df] = append(phisInBlock[df], phi)
				if !defBlocks[df] {
					defBlocks[df] = true
					work = append(work, df)
				}
			}
		}
	}

	// Renaming pass: walk the dominator tree carrying the current value
	// of each promoted variable.
	replace := map[ir.Value]ir.Value{} // dead load -> reaching value
	isPromoted := map[*ir.Alloca]bool{}
	for _, a := range promotable {
		isPromoted[a] = true
	}

	var walk func(b *ir.Block, cur map[*ir.Alloca]ir.Value)
	walk = func(b *ir.Block, cur map[*ir.Alloca]ir.Value) {
		cur = copyMap(cur)
		for _, phi := range phisInBlock[b] {
			cur[phiFor[phi]] = phi
		}
		var kept []ir.Instr
		for _, in := range b.Instrs {
			switch t := in.(type) {
			case *ir.Alloca:
				if isPromoted[t] {
					continue // drop
				}
			case *ir.Store:
				if a, ok := t.Ptr.(*ir.Alloca); ok && isPromoted[a] {
					cur[a] = t.Val
					continue // drop
				}
			case *ir.Load:
				if a, ok := t.Ptr.(*ir.Alloca); ok && isPromoted[a] {
					v := cur[a]
					if v == nil {
						v = zeroValue(a.Elem)
					}
					replace[t] = v
					continue // drop
				}
			}
			kept = append(kept, in)
		}
		b.Instrs = kept
		// Fill φ edges of successors.
		for _, s := range b.Succs() {
			for _, phi := range phisInBlock[s] {
				v := cur[phiFor[phi]]
				if v == nil {
					v = zeroValue(phiFor[phi].Elem)
				}
				phi.Edges = append(phi.Edges, ir.PhiEdge{Pred: b, Val: v})
			}
		}
		for _, c := range dom.Children(b) {
			walk(c, cur)
		}
	}
	walk(f.Blocks[0], map[*ir.Alloca]ir.Value{})

	// Install the φ-nodes at block heads.
	for b, phis := range phisInBlock {
		b.PrependPhis(phis)
	}

	// Resolve replacement chains (a load replaced by another dead load).
	resolve := func(v ir.Value) ir.Value {
		for {
			nv, ok := replace[v]
			if !ok {
				return v
			}
			v = nv
		}
	}
	f.Instrs(func(_ *ir.Block, in ir.Instr) {
		for _, op := range in.Ops() {
			*op = resolve(*op)
		}
	})
	f.ComputeCFG()
	return len(promotable)
}

// findPromotable returns allocas whose address never escapes: used only as
// the pointer operand of loads and stores, and carrying no explicit color.
func findPromotable(f *ir.Function) []*ir.Alloca {
	escaped := map[*ir.Alloca]bool{}
	var all []*ir.Alloca
	f.Instrs(func(_ *ir.Block, in ir.Instr) {
		if a, ok := in.(*ir.Alloca); ok {
			all = append(all, a)
			if !a.Color.IsNone() {
				escaped[a] = true
			}
			// Aggregates stay in memory: loads of whole structs or
			// arrays are not representable as scalar registers.
			switch a.Elem.(type) {
			case *ir.StructType, ir.ArrayType:
				escaped[a] = true
			}
		}
	})
	f.Instrs(func(_ *ir.Block, in ir.Instr) {
		for i, op := range in.Ops() {
			a, ok := (*op).(*ir.Alloca)
			if !ok {
				continue
			}
			switch t := in.(type) {
			case *ir.Load:
				// ptr operand: fine.
			case *ir.Store:
				// Only fine as the pointer (operand 1), not the value.
				if i == 0 && t.Val == ir.Value(a) {
					escaped[a] = true
				}
			default:
				escaped[a] = true
			}
		}
	})
	var out []*ir.Alloca
	for _, a := range all {
		if !escaped[a] {
			out = append(out, a)
		}
	}
	return out
}

func copyMap(m map[*ir.Alloca]ir.Value) map[*ir.Alloca]ir.Value {
	out := make(map[*ir.Alloca]ir.Value, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

func zeroValue(t ir.Type) ir.Value {
	switch tt := t.(type) {
	case ir.IntType:
		return ir.NewConstInt(tt, 0)
	case ir.FloatType:
		return &ir.ConstFloat{Typ: tt, V: 0}
	case ir.PointerType:
		return &ir.Null{Typ: tt}
	case ir.FuncType:
		return &ir.Null{Typ: ir.PtrTo(ir.I8)}
	default:
		return ir.I64Const(0)
	}
}
