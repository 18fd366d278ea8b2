package ir

import (
	"errors"
	"fmt"
)

// Verify checks structural well-formedness of the module: every block ends
// in exactly one terminator, operands are defined, φ-nodes match their
// predecessors, a binop's operands and result and a cmp's operands are
// all float or all non-float (the engines pick float or integer
// arithmetic from that one type, DESIGN.md §18), and unions of colors
// inside a single memory word do not exist (the paper's fundamental
// property: a memory location has at most one color, §4).
func Verify(m *Module) error {
	var errs []error
	for _, f := range m.Funcs {
		if f.External {
			continue
		}
		if err := VerifyFunc(f); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// VerifyFunc checks one function definition.
func VerifyFunc(f *Function) error {
	if len(f.Blocks) == 0 {
		return fmt.Errorf("ir: function @%s has no blocks", f.FName)
	}
	f.ComputeCFG()
	defined := map[Value]bool{}
	for _, p := range f.Params {
		defined[p] = true
	}
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if v, ok := in.(Value); ok {
				defined[v] = true
			}
		}
	}
	var errs []error
	for _, b := range f.Blocks {
		if len(b.Instrs) == 0 {
			errs = append(errs, fmt.Errorf("ir: @%s: empty block %%%s", f.FName, b.BName))
			continue
		}
		for i, in := range b.Instrs {
			isLast := i == len(b.Instrs)-1
			if IsTerminator(in) != isLast {
				errs = append(errs, fmt.Errorf("ir: @%s: block %%%s: misplaced terminator or non-terminated block at %q", f.FName, b.BName, in.String()))
			}
			for _, op := range in.Ops() {
				v := *op
				if v == nil {
					errs = append(errs, fmt.Errorf("ir: @%s: nil operand in %q", f.FName, in.String()))
					continue
				}
				switch v.(type) {
				case *ConstInt, *ConstFloat, *Null, *Global, *Function:
					continue
				}
				if !defined[v] {
					errs = append(errs, fmt.Errorf("ir: @%s: use of undefined value %s in %q", f.FName, v.Name(), in.String()))
				}
			}
			switch t := in.(type) {
			case *Phi:
				if len(t.Edges) != len(b.preds) {
					errs = append(errs, fmt.Errorf("ir: @%s: φ %s has %d edges, block %%%s has %d preds",
						f.FName, t.Name(), len(t.Edges), b.BName, len(b.preds)))
				}
			case *BinOp:
				if t.X != nil && t.Y != nil && !sameKind(t.Type(), t.X.Type(), t.Y.Type()) {
					errs = append(errs, fmt.Errorf("ir: @%s: %q mixes float and non-float operands", f.FName, t.String()))
				}
			case *Cmp:
				if t.X != nil && t.Y != nil && !sameKind(t.X.Type(), t.Y.Type()) {
					errs = append(errs, fmt.Errorf("ir: @%s: %q mixes float and non-float operands", f.FName, t.String()))
				}
			}
		}
	}
	return errors.Join(errs...)
}

// sameKind reports whether the types are all float or all non-float.
func sameKind(first Type, rest ...Type) bool {
	for _, t := range rest {
		if IsFloat(t) != IsFloat(first) {
			return false
		}
	}
	return true
}
