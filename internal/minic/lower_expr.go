package minic

import (
	"privagic/internal/ir"
)

// expr lowers an expression to an rvalue. It returns nil after reporting an
// error (callers tolerate nil).
func (fl *funcLower) expr(e Expr) ir.Value {
	return fl.exprWant(e, nil)
}

// exprConv lowers an expression and converts it to the wanted type.
func (fl *funcLower) exprConv(e Expr, want ir.Type) ir.Value {
	v := fl.exprWant(e, want)
	if v == nil {
		return nil
	}
	return fl.convert(v, want, e.NodePos())
}

// exprWant lowers an expression; want (possibly nil) provides the context
// type used to color malloc sites and type NULL.
func (fl *funcLower) exprWant(e Expr, want ir.Type) ir.Value {
	fl.ensureBlock()
	fl.b.SetPos(e.NodePos().IR())
	switch ex := e.(type) {
	case *IntLit:
		return ir.I64Const(ex.V)
	case *FloatLit:
		return &ir.ConstFloat{Typ: ir.F64, V: ex.V}
	case *StrLit:
		g := fl.c.mod.InternString(ex.V)
		return fl.b.IndexAddr(g, ir.I64Const(0))
	case *NullLit:
		if pt, ok := want.(ir.PointerType); ok {
			return &ir.Null{Typ: pt}
		}
		return &ir.Null{Typ: ir.PtrTo(ir.I8)}
	case *Ident:
		return fl.identRValue(ex)
	case *Unary:
		return fl.unary(ex)
	case *Binary:
		return fl.binary(ex)
	case *Assign:
		return fl.assign(ex)
	case *IncDec:
		return fl.incDec(ex)
	case *CallExpr:
		return fl.call(ex, want)
	case *IndexExpr, *FieldExpr:
		a := fl.addr(e)
		if a == nil {
			return nil
		}
		return fl.loadOrDecay(a)
	case *CastExpr:
		to, _ := fl.c.resolveType(ex.Type)
		v := fl.exprWant(ex.X, to)
		if v == nil {
			return nil
		}
		return fl.convert(v, to, ex.Pos)
	case *SizeofExpr:
		t, _ := fl.c.resolveType(ex.Type)
		return ir.I64Const(t.Size())
	}
	fl.c.errf(e.NodePos(), "unsupported expression")
	return nil
}

// identRValue resolves a name to an rvalue: loads variables, decays arrays,
// and passes functions through as function-pointer values.
func (fl *funcLower) identRValue(ex *Ident) ir.Value {
	if l := fl.lookup(ex.Name); l != nil {
		return fl.loadOrDecay(l.addr)
	}
	if g := fl.c.globals[ex.Name]; g != nil {
		return fl.loadOrDecay(g)
	}
	if fn := fl.c.funcs[ex.Name]; fn != nil {
		return fn
	}
	fl.c.errf(ex.Pos, "undefined identifier %s", ex.Name)
	return nil
}

// loadOrDecay loads through a pointer, except that pointers to arrays decay
// to element pointers instead of loading the whole array.
func (fl *funcLower) loadOrDecay(a ir.Value) ir.Value {
	pt, ok := a.Type().(ir.PointerType)
	if !ok {
		return a
	}
	if _, isArr := pt.Elem.(ir.ArrayType); isArr {
		return fl.b.IndexAddr(a, ir.I64Const(0))
	}
	return fl.b.Load(a)
}

// addr lowers an lvalue expression to the address of its storage.
func (fl *funcLower) addr(e Expr) ir.Value {
	fl.ensureBlock()
	fl.b.SetPos(e.NodePos().IR())
	switch ex := e.(type) {
	case *Ident:
		if l := fl.lookup(ex.Name); l != nil {
			return l.addr
		}
		if g := fl.c.globals[ex.Name]; g != nil {
			return g
		}
		fl.c.errf(ex.Pos, "undefined identifier %s", ex.Name)
		return nil
	case *Unary:
		if ex.Op == UnDeref {
			return fl.expr(ex.X)
		}
	case *IndexExpr:
		base := fl.indexBase(ex.X)
		if base == nil {
			return nil
		}
		idx := fl.exprConv(ex.I, ir.I64)
		if idx == nil {
			return nil
		}
		return fl.b.IndexAddr(base, idx)
	case *FieldExpr:
		var base ir.Value
		if ex.Arrow {
			base = fl.expr(ex.X)
		} else {
			base = fl.addr(ex.X)
		}
		if base == nil {
			return nil
		}
		pt, ok := base.Type().(ir.PointerType)
		if !ok {
			fl.c.errf(ex.Pos, "field access on non-pointer %s", base.Type())
			return nil
		}
		st, ok := pt.Elem.(*ir.StructType)
		if !ok {
			fl.c.errf(ex.Pos, "field access on non-struct %s", pt.Elem)
			return nil
		}
		idx := st.FieldIndex(ex.Name)
		if idx < 0 {
			fl.c.errf(ex.Pos, "struct %s has no field %s", st.Name, ex.Name)
			return nil
		}
		return fl.b.FieldAddr(base, idx)
	}
	fl.c.errf(e.NodePos(), "expression is not an lvalue")
	return nil
}

// indexBase lowers the base of x[i]: arrays yield their address, pointers
// their value.
func (fl *funcLower) indexBase(x Expr) ir.Value {
	// If x is an lvalue of array type, use its address directly.
	switch x.(type) {
	case *Ident, *FieldExpr, *IndexExpr:
		a := fl.addr(x)
		if a == nil {
			return nil
		}
		pt := a.Type().(ir.PointerType)
		if _, isArr := pt.Elem.(ir.ArrayType); isArr {
			return a
		}
		return fl.loadOrDecay(a)
	}
	return fl.expr(x)
}

func (fl *funcLower) unary(ex *Unary) ir.Value {
	switch ex.Op {
	case UnAddr:
		return fl.addr(ex.X)
	case UnDeref:
		p := fl.expr(ex.X)
		if p == nil {
			return nil
		}
		if _, ok := p.Type().(ir.PointerType); !ok {
			fl.c.errf(ex.Pos, "dereference of non-pointer %s", p.Type())
			return nil
		}
		return fl.loadOrDecay(p)
	case UnNeg:
		v := fl.expr(ex.X)
		if v == nil {
			return nil
		}
		if ft, ok := v.Type().(ir.FloatType); ok {
			return fl.b.BinOp(ir.OpSub, &ir.ConstFloat{Typ: ft, V: 0}, v)
		}
		it, _ := v.Type().(ir.IntType)
		return fl.b.BinOp(ir.OpSub, ir.NewConstInt(it, 0), v)
	case UnNot:
		v := fl.expr(ex.X)
		if v == nil {
			return nil
		}
		z := fl.zeroOf(v.Type())
		c := fl.b.Cmp(ir.CmpEq, v, z)
		return fl.convert(c, ir.I64, ex.Pos)
	case UnBitNot:
		v := fl.exprConv(ex.X, ir.I64)
		if v == nil {
			return nil
		}
		return fl.b.BinOp(ir.OpXor, v, ir.I64Const(-1))
	}
	fl.c.errf(ex.Pos, "unsupported unary operator")
	return nil
}

// zeroOf returns the zero constant of a type (for truthiness tests).
func (fl *funcLower) zeroOf(t ir.Type) ir.Value {
	switch tt := t.(type) {
	case ir.IntType:
		return ir.NewConstInt(tt, 0)
	case ir.FloatType:
		return &ir.ConstFloat{Typ: tt, V: 0}
	case ir.PointerType:
		return &ir.Null{Typ: tt}
	default:
		return ir.I64Const(0)
	}
}

// truthy converts a value to an i1 condition.
func (fl *funcLower) truthy(v ir.Value) ir.Value {
	if v == nil {
		return nil
	}
	if it, ok := v.Type().(ir.IntType); ok && it.Bits == 1 {
		return v
	}
	return fl.b.Cmp(ir.CmpNe, v, fl.zeroOf(v.Type()))
}

func (fl *funcLower) binary(ex *Binary) ir.Value {
	switch ex.Op {
	case BinLAnd, BinLOr:
		return fl.logical(ex)
	}
	x := fl.expr(ex.X)
	y := fl.expr(ex.Y)
	if x == nil || y == nil {
		return nil
	}
	// Pointer arithmetic: p + i and p - i scale by element size.
	if pt, ok := x.Type().(ir.PointerType); ok && (ex.Op == BinAdd || ex.Op == BinSub) {
		if _, isP := y.Type().(ir.PointerType); !isP {
			idx := fl.convert(y, ir.I64, ex.Pos)
			if ex.Op == BinSub {
				idx = fl.b.BinOp(ir.OpSub, ir.I64Const(0), idx)
			}
			_ = pt
			return fl.b.IndexAddr(x, idx)
		}
	}
	x, y = fl.usualConvert(x, y, ex.Pos)
	if x == nil || y == nil {
		return nil
	}
	var cmp ir.CmpPred
	switch ex.Op {
	case BinEq:
		cmp = ir.CmpEq
	case BinNe:
		cmp = ir.CmpNe
	case BinLt:
		cmp = ir.CmpLt
	case BinLe:
		cmp = ir.CmpLe
	case BinGt:
		cmp = ir.CmpGt
	case BinGe:
		cmp = ir.CmpGe
	}
	if cmp != 0 {
		c := fl.b.Cmp(cmp, x, y)
		return fl.convert(c, ir.I64, ex.Pos)
	}
	var op ir.BinOpKind
	switch ex.Op {
	case BinAdd:
		op = ir.OpAdd
	case BinSub:
		op = ir.OpSub
	case BinMul:
		op = ir.OpMul
	case BinDiv:
		op = ir.OpDiv
	case BinRem:
		op = ir.OpRem
	case BinAnd:
		op = ir.OpAnd
	case BinOr:
		op = ir.OpOr
	case BinXor:
		op = ir.OpXor
	case BinShl:
		op = ir.OpShl
	case BinShr:
		op = ir.OpShr
	default:
		fl.c.errf(ex.Pos, "unsupported binary operator")
		return nil
	}
	return fl.b.BinOp(op, x, y)
}

// usualConvert applies the usual arithmetic conversions: mixed int widths
// promote to i64, int+float promotes to f64.
func (fl *funcLower) usualConvert(x, y ir.Value, p Pos) (ir.Value, ir.Value) {
	xt, yt := x.Type(), y.Type()
	if ir.TypesEqual(xt, yt) {
		return x, y
	}
	_, xf := xt.(ir.FloatType)
	_, yf := yt.(ir.FloatType)
	if xf || yf {
		return fl.convert(x, ir.F64, p), fl.convert(y, ir.F64, p)
	}
	_, xp := xt.(ir.PointerType)
	_, yp := yt.(ir.PointerType)
	if xp && yp {
		return x, y // pointer comparison
	}
	if xp || yp {
		// Pointer vs integer (e.g. p != 0): compare as machine words.
		return fl.convert(x, ir.I64, p), fl.convert(y, ir.I64, p)
	}
	return fl.convert(x, ir.I64, p), fl.convert(y, ir.I64, p)
}

// logical lowers short-circuit && and || through a temporary slot that
// mem2reg later promotes to a φ.
func (fl *funcLower) logical(ex *Binary) ir.Value {
	slot := fl.b.Alloca(ir.I64, ir.None)
	evalY := fl.fn.NewBlock("sc.rhs")
	done := fl.fn.NewBlock("sc.done")

	x := fl.truthy(fl.expr(ex.X))
	if x == nil {
		return nil
	}
	xw := fl.convert(x, ir.I64, ex.Pos)
	fl.b.Store(xw, slot)
	if ex.Op == BinLAnd {
		fl.b.CondBr(x, evalY, done)
	} else {
		fl.b.CondBr(x, done, evalY)
	}
	fl.b.At(evalY)
	y := fl.truthy(fl.expr(ex.Y))
	if y == nil {
		return nil
	}
	yw := fl.convert(y, ir.I64, ex.Pos)
	fl.b.Store(yw, slot)
	if fl.b.Cur.Terminator() == nil {
		fl.b.Br(done)
	}
	fl.b.At(done)
	return fl.b.Load(slot)
}

func (fl *funcLower) assign(ex *Assign) ir.Value {
	dst := fl.addr(ex.LHS)
	if dst == nil {
		return nil
	}
	elem := dst.Type().(ir.PointerType).Elem
	var v ir.Value
	if ex.Op == 0 {
		v = fl.exprConv(ex.RHS, elem)
	} else {
		old := fl.b.Load(dst)
		rhs := fl.expr(ex.RHS)
		if rhs == nil {
			return nil
		}
		if pt, ok := old.Type().(ir.PointerType); ok {
			// p += n pointer arithmetic.
			idx := fl.convert(rhs, ir.I64, ex.Pos)
			if ex.Op == BinSub {
				idx = fl.b.BinOp(ir.OpSub, ir.I64Const(0), idx)
			}
			_ = pt
			v = fl.b.IndexAddr(old, idx)
		} else {
			rhs = fl.convert(rhs, old.Type(), ex.Pos)
			op := ir.OpAdd
			if ex.Op == BinSub {
				op = ir.OpSub
			}
			v = fl.b.BinOp(op, old, rhs)
		}
	}
	if v == nil {
		return nil
	}
	fl.b.Store(v, dst)
	return v
}

func (fl *funcLower) incDec(ex *IncDec) ir.Value {
	dst := fl.addr(ex.X)
	if dst == nil {
		return nil
	}
	old := fl.b.Load(dst)
	var nv ir.Value
	if _, ok := old.Type().(ir.PointerType); ok {
		step := int64(1)
		if ex.Dec {
			step = -1
		}
		nv = fl.b.IndexAddr(old, ir.I64Const(step))
	} else {
		op := ir.OpAdd
		if ex.Dec {
			op = ir.OpSub
		}
		nv = fl.b.BinOp(op, old, fl.convert(ir.I64Const(1), old.Type(), ex.Pos))
	}
	fl.b.Store(nv, dst)
	if ex.Post {
		return old
	}
	return nv
}

// convert emits the conversion of v to type "to" (no-op when types match).
func (fl *funcLower) convert(v ir.Value, to ir.Type, p Pos) ir.Value {
	if v == nil || to == nil || ir.TypesEqual(v.Type(), to) {
		return v
	}
	// Constant folding for integer literals.
	if ci, ok := v.(*ir.ConstInt); ok {
		switch tt := to.(type) {
		case ir.IntType:
			return ir.NewConstInt(tt, truncInt(ci.V, tt.Bits))
		case ir.FloatType:
			return &ir.ConstFloat{Typ: tt, V: float64(ci.V)}
		case ir.PointerType:
			if ci.V == 0 {
				return &ir.Null{Typ: tt}
			}
		}
	}
	if n, ok := v.(*ir.Null); ok {
		if tt, isP := to.(ir.PointerType); isP {
			_ = n
			return &ir.Null{Typ: tt}
		}
	}
	from := v.Type()
	switch from.(type) {
	case ir.IntType, ir.FloatType, ir.PointerType, ir.FuncType:
		switch to.(type) {
		case ir.IntType, ir.FloatType, ir.PointerType, ir.FuncType:
			return fl.b.Cast(v, to)
		}
	}
	fl.c.errf(p, "cannot convert %s to %s", from, to)
	return nil
}

func truncInt(v int64, bits int) int64 {
	switch bits {
	case 1:
		return v & 1
	case 8:
		return int64(int8(v))
	case 32:
		return int64(int32(v))
	default:
		return v
	}
}
