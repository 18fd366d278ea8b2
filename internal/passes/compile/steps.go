package compile

// Operand-kind specialized steps. A constructor here picks its closure by
// the kinds of the instruction's operands, a register slot or an
// immediate, so no step tests an operand's kind at run time. The
// operators' semantics stay exec's (BinOp, Cmp, Cast): a closure here
// re-states only an integer operator that cannot fail, and every error
// is raised by exec itself.

import (
	"privagic/internal/exec"
	"privagic/internal/ir"
)

// kinds names the operand kinds of a two-operand instruction: s for a
// register slot, k for an immediate.
type kinds uint8

const (
	ss kinds = iota
	sk
	ks
	kk
)

func kindsOf(x, y operand) kinds {
	switch {
	case x.slot >= 0 && y.slot >= 0:
		return ss
	case x.slot >= 0:
		return sk
	case y.slot >= 0:
		return ks
	}
	return kk
}

// set writes a value known at compile time.
func set(dst int, v exec.Val, next int) exec.Step {
	return func(fr *exec.Frame) int { fr.Regs[dst] = v; return next }
}

// move copies a slot: a word-preserving cast.
func move(dst, src, next int) exec.Step {
	return func(fr *exec.Frame) int { fr.Regs[dst] = fr.Regs[src]; return next }
}

// offset adds a compile-time offset to a slot: a plain field address, or
// an element address at an immediate index.
func offset(dst, src int, off int64, next int) exec.Step {
	return func(fr *exec.Frame) int { fr.Regs[dst].I = fr.Regs[src].I + off; return next }
}

// absorbed fills the position of an instruction that a superinstruction
// executes. Superinstructions absorb only instructions after the first of
// a block, where no jump lands, so it never runs.
func absorbed(*exec.Frame) int {
	exec.Errs("compile: absorbed step executed")
	return -1
}

// tick counts a block transfer against the step budget, so a livelocked
// compiled chunk fails with the interpreter's error.
func tick(fr *exec.Frame, fn *ir.Function) {
	if fr.Steps++; fr.Steps > exec.StepBudget {
		overBudget(fn)
	}
}

// overBudget stays out of line, so tick inlines into the branch steps.
//
//go:noinline
func overBudget(fn *ir.Function) {
	exec.Errf("interp: instruction budget exceeded in @%s (livelock?)", fn.FName)
}

// nilDeref raises the interpreter's error for a load or store through a
// nil pointer. The text is rendered here, on the error path.
func nilDeref(in ir.Instr, fn *ir.Function) {
	exec.Errf("interp: nil dereference: %q in @%s", in.String(), fn.FName)
}

// byZero raises exec's error for an integer division or remainder by
// zero.
func byZero(op ir.BinOpKind) int {
	exec.BinOp(op, ir.I64, exec.Val{}, exec.Val{})
	return -1
}

// seamlessLoad is the load of a unit compiled with SkipLoadSeam.
func seamlessLoad(fr *exec.Frame, t *ir.Load, addr uint64) exec.Val {
	if sl, ok := fr.Env.(exec.SeamlessLoader); ok {
		return sl.SeamlessLoad(fr.W, t, addr)
	}
	return fr.Env.Load(fr.W, t, addr)
}

// commutes reports whether an integer operator's operands may swap.
func commutes(op ir.BinOpKind) bool {
	switch op {
	case ir.OpAdd, ir.OpMul, ir.OpAnd, ir.OpOr, ir.OpXor:
		return true
	}
	return false
}

// intBinOp returns the step of an integer binary operator, or nil when
// exec.BinOp must run it: two immediates, a division or remainder by an
// immediate zero (exec raises the error), or an unknown operator.
// Commutative operators read an immediate first operand as the second,
// and subtracting an immediate adds its negation.
func intBinOp(op ir.BinOpKind, dst int, x, y operand, next int) exec.Step {
	if kindsOf(x, y) == ks && commutes(op) {
		x, y = y, x
	}
	if op == ir.OpSub && kindsOf(x, y) == sk {
		op, y.imm.I = ir.OpAdd, -y.imm.I
	}
	a, b, ka, kb := x.slot, y.slot, x.imm.I, y.imm.I
	switch kindsOf(x, y) {
	case ss:
		switch op {
		case ir.OpAdd:
			return func(fr *exec.Frame) int { fr.Regs[dst].I = fr.Regs[a].I + fr.Regs[b].I; return next }
		case ir.OpSub:
			return func(fr *exec.Frame) int { fr.Regs[dst].I = fr.Regs[a].I - fr.Regs[b].I; return next }
		case ir.OpMul:
			return func(fr *exec.Frame) int { fr.Regs[dst].I = fr.Regs[a].I * fr.Regs[b].I; return next }
		case ir.OpAnd:
			return func(fr *exec.Frame) int { fr.Regs[dst].I = fr.Regs[a].I & fr.Regs[b].I; return next }
		case ir.OpOr:
			return func(fr *exec.Frame) int { fr.Regs[dst].I = fr.Regs[a].I | fr.Regs[b].I; return next }
		case ir.OpXor:
			return func(fr *exec.Frame) int { fr.Regs[dst].I = fr.Regs[a].I ^ fr.Regs[b].I; return next }
		case ir.OpShl:
			return func(fr *exec.Frame) int { fr.Regs[dst].I = fr.Regs[a].I << uint64(fr.Regs[b].I&63); return next }
		case ir.OpShr:
			return func(fr *exec.Frame) int { fr.Regs[dst].I = fr.Regs[a].I >> uint64(fr.Regs[b].I&63); return next }
		case ir.OpDiv:
			return func(fr *exec.Frame) int {
				if d := fr.Regs[b].I; d != 0 {
					fr.Regs[dst].I = fr.Regs[a].I / d
					return next
				}
				return byZero(ir.OpDiv)
			}
		case ir.OpRem:
			return func(fr *exec.Frame) int {
				if d := fr.Regs[b].I; d != 0 {
					fr.Regs[dst].I = fr.Regs[a].I % d
					return next
				}
				return byZero(ir.OpRem)
			}
		}
	case sk:
		switch op {
		case ir.OpAdd:
			return func(fr *exec.Frame) int { fr.Regs[dst].I = fr.Regs[a].I + kb; return next }
		case ir.OpMul:
			return func(fr *exec.Frame) int { fr.Regs[dst].I = fr.Regs[a].I * kb; return next }
		case ir.OpAnd:
			return func(fr *exec.Frame) int { fr.Regs[dst].I = fr.Regs[a].I & kb; return next }
		case ir.OpOr:
			return func(fr *exec.Frame) int { fr.Regs[dst].I = fr.Regs[a].I | kb; return next }
		case ir.OpXor:
			return func(fr *exec.Frame) int { fr.Regs[dst].I = fr.Regs[a].I ^ kb; return next }
		case ir.OpShl:
			s := uint64(kb & 63)
			return func(fr *exec.Frame) int { fr.Regs[dst].I = fr.Regs[a].I << s; return next }
		case ir.OpShr:
			s := uint64(kb & 63)
			return func(fr *exec.Frame) int { fr.Regs[dst].I = fr.Regs[a].I >> s; return next }
		case ir.OpDiv:
			if kb != 0 {
				return func(fr *exec.Frame) int { fr.Regs[dst].I = fr.Regs[a].I / kb; return next }
			}
		case ir.OpRem:
			if kb != 0 {
				return func(fr *exec.Frame) int { fr.Regs[dst].I = fr.Regs[a].I % kb; return next }
			}
		}
	case ks:
		switch op {
		case ir.OpSub:
			return func(fr *exec.Frame) int { fr.Regs[dst].I = ka - fr.Regs[b].I; return next }
		case ir.OpShl:
			return func(fr *exec.Frame) int { fr.Regs[dst].I = ka << uint64(fr.Regs[b].I&63); return next }
		case ir.OpShr:
			return func(fr *exec.Frame) int { fr.Regs[dst].I = ka >> uint64(fr.Regs[b].I&63); return next }
		case ir.OpDiv:
			return func(fr *exec.Frame) int {
				if d := fr.Regs[b].I; d != 0 {
					fr.Regs[dst].I = ka / d
					return next
				}
				return byZero(ir.OpDiv)
			}
		case ir.OpRem:
			return func(fr *exec.Frame) int {
				if d := fr.Regs[b].I; d != 0 {
					fr.Regs[dst].I = ka % d
					return next
				}
				return byZero(ir.OpRem)
			}
		}
	}
	return nil
}

// intCmp returns the step of an integer comparison that hands its result
// to tl. gt and ge compare their swapped operands with lt and le, eq and
// ne read an immediate first operand as the second, and two immediates
// compare at compile time.
func intCmp(pred ir.CmpPred, typ ir.Type, x, y operand, tl *cmpTail) exec.Step {
	switch pred {
	case ir.CmpGt:
		pred, x, y = ir.CmpLt, y, x
	case ir.CmpGe:
		pred, x, y = ir.CmpLe, y, x
	}
	if kindsOf(x, y) == ks && (pred == ir.CmpEq || pred == ir.CmpNe) {
		x, y = y, x
	}
	a, b, ka, kb := x.slot, y.slot, x.imm.I, y.imm.I
	switch kindsOf(x, y) {
	case ss:
		switch pred {
		case ir.CmpEq:
			return func(fr *exec.Frame) int { return tl.done(fr, fr.Regs[a].I == fr.Regs[b].I) }
		case ir.CmpNe:
			return func(fr *exec.Frame) int { return tl.done(fr, fr.Regs[a].I != fr.Regs[b].I) }
		case ir.CmpLt:
			return func(fr *exec.Frame) int { return tl.done(fr, fr.Regs[a].I < fr.Regs[b].I) }
		case ir.CmpLe:
			return func(fr *exec.Frame) int { return tl.done(fr, fr.Regs[a].I <= fr.Regs[b].I) }
		}
	case sk:
		switch pred {
		case ir.CmpEq:
			return func(fr *exec.Frame) int { return tl.done(fr, fr.Regs[a].I == kb) }
		case ir.CmpNe:
			return func(fr *exec.Frame) int { return tl.done(fr, fr.Regs[a].I != kb) }
		case ir.CmpLt:
			return func(fr *exec.Frame) int { return tl.done(fr, fr.Regs[a].I < kb) }
		case ir.CmpLe:
			return func(fr *exec.Frame) int { return tl.done(fr, fr.Regs[a].I <= kb) }
		}
	case ks:
		switch pred {
		case ir.CmpLt:
			return func(fr *exec.Frame) int { return tl.done(fr, ka < fr.Regs[b].I) }
		case ir.CmpLe:
			return func(fr *exec.Frame) int { return tl.done(fr, ka <= fr.Regs[b].I) }
		}
	}
	r := exec.Cmp(pred, typ, x.imm, y.imm).I != 0
	return func(fr *exec.Frame) int { return tl.done(fr, r) }
}

// cmpTail is where an integer comparison puts its result: the
// comparison's slot, then the next step. In a compare-and-branch it also
// writes the slots of the cast and `ne 0` that re-test the result (equal
// to it, as the result is 0 or 1), all before the branch runs its φ
// copies, which may read them.
type cmpTail struct {
	dsts [3]int
	next int
	br   *branch // the fused condbr; nil for a plain comparison
}

func (tl *cmpTail) done(fr *exec.Frame, c bool) int {
	var v exec.Val
	if c {
		v.I = 1
	}
	if tl.br == nil {
		fr.Regs[tl.dsts[0]] = v
		return tl.next
	}
	fr.Regs[tl.dsts[0]], fr.Regs[tl.dsts[1]], fr.Regs[tl.dsts[2]] = v, v, v
	return tl.br.take(fr, c)
}

// branch is a compiled condbr: the budget tick, then the taken edge.
type branch struct {
	then, els edge
	fn        *ir.Function
}

func (br *branch) take(fr *exec.Frame, c bool) int {
	tick(fr, br.fn)
	e := &br.els
	if c {
		e = &br.then
	}
	if len(e.copies) != 0 {
		e.apply(fr)
	}
	return e.pc
}

// preservesWord reports whether exec.Cast from → to returns its operand's
// word unchanged (pointer, function and 64-bit integer targets of a
// non-float), so the cast compiles to a slot copy.
func preservesWord(from, to ir.Type) bool {
	if ir.IsFloat(from) {
		return ir.IsFloat(to)
	}
	switch tt := to.(type) {
	case ir.IntType:
		return tt.Bits == 64
	case ir.FloatType:
		return false
	}
	return true
}
