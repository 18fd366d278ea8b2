package ir

import "fmt"

// This file provides detached-instruction constructors and block splicing
// used by the partitioner, which rewrites cloned bodies rather than
// emitting fresh code through a Builder.

// NewCallInstr builds a call instruction owned by fn (for register
// numbering) without inserting it anywhere.
func NewCallInstr(fn *Function, callee Value, args ...Value) *Call {
	var sig FuncType
	switch c := callee.(type) {
	case *Function:
		sig = c.Signature()
	default:
		ft, ok := callee.Type().(FuncType)
		if !ok {
			panic(fmt.Sprintf("ir: NewCallInstr on non-function %s", callee.Type()))
		}
		sig = ft
	}
	in := &Call{Callee: callee, Args: args}
	in.typ = sig.Ret
	in.name = fn.regName()
	return in
}

// NewWordCallInstr builds a detached call typed t instead of its
// callee's return type. The partitioner uses it for the runtime
// intrinsics that return a message word standing for a value of type t:
// the word is read as a t unchanged, where a cast from the intrinsic's
// i64 would convert a float's bits numerically.
func NewWordCallInstr(fn *Function, t Type, callee Value, args ...Value) *Call {
	in := NewCallInstr(fn, callee, args...)
	in.typ = t
	return in
}

// NewCastInstr builds a detached cast.
func NewCastInstr(fn *Function, v Value, to Type) *Cast {
	in := &Cast{Val: v}
	in.name, in.typ = fn.regName(), to
	return in
}

// IndexOf returns the position of in within the block, or -1.
func (b *Block) IndexOf(in Instr) int {
	for i, x := range b.Instrs {
		if x == in {
			return i
		}
	}
	return -1
}

// Splice replaces the instruction at index i with the given sequence
// (which may be empty, deleting it).
func (b *Block) Splice(i int, news ...Instr) {
	for _, n := range news {
		n.setParent(b)
	}
	out := make([]Instr, 0, len(b.Instrs)+len(news)-1)
	out = append(out, b.Instrs[:i]...)
	out = append(out, news...)
	out = append(out, b.Instrs[i+1:]...)
	b.Instrs = out
}

// ReplaceUses rewrites every operand equal to old into new, across the
// whole function.
func (f *Function) ReplaceUses(old, new Value) {
	f.Instrs(func(_ *Block, in Instr) {
		for _, op := range in.Ops() {
			if *op == old {
				*op = new
			}
		}
	})
}

// NormalizePhis drops φ edges whose predecessor is no longer an actual
// predecessor of the φ's block (after CFG rewriting) and recomputes the
// CFG. φ-nodes left with a single edge are replaced by their operand.
func (f *Function) NormalizePhis() {
	f.ComputeCFG()
	for _, b := range f.Blocks {
		isPred := map[*Block]bool{}
		for _, p := range b.preds {
			isPred[p] = true
		}
		var kept []Instr
		for _, in := range b.Instrs {
			phi, ok := in.(*Phi)
			if !ok {
				kept = append(kept, in)
				continue
			}
			var edges []PhiEdge
			for _, e := range phi.Edges {
				if isPred[e.Pred] {
					edges = append(edges, e)
				}
			}
			phi.Edges = edges
			if len(edges) == 1 {
				f.ReplaceUses(phi, edges[0].Val)
				continue // drop the φ
			}
			kept = append(kept, in)
		}
		b.Instrs = kept
	}
}
