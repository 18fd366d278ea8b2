package ir

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestStructLayout(t *testing.T) {
	st := NewStruct("account", []Field{
		{Name: "name", Type: ArrayType{Elem: I8, Len: 256}, Color: Named("blue")},
		{Name: "balance", Type: F64, Color: Named("red")},
	})
	if st.Fields[0].Offset != 0 {
		t.Errorf("name offset = %d", st.Fields[0].Offset)
	}
	if st.Fields[1].Offset != 256 {
		t.Errorf("balance offset = %d, want 256 (aligned)", st.Fields[1].Offset)
	}
	if st.Size() != 264 {
		t.Errorf("size = %d, want 264", st.Size())
	}
	if got := st.Colors(); len(got) != 2 {
		t.Errorf("Colors() = %v", got)
	}
}

func TestStructPadding(t *testing.T) {
	st := NewStruct("padded", []Field{
		{Name: "c", Type: I8},
		{Name: "x", Type: I64},
		{Name: "c2", Type: I8},
	})
	if st.Fields[1].Offset != 8 {
		t.Errorf("x offset = %d, want 8", st.Fields[1].Offset)
	}
	if st.Size() != 24 {
		t.Errorf("size = %d, want 24 (tail padding)", st.Size())
	}
}

func TestTypesEqual(t *testing.T) {
	cases := []struct {
		a, b Type
		want bool
	}{
		{I64, I64, true},
		{I64, I32, false},
		{PtrTo(I8), PtrTo(I8), true},
		{PtrToColored(I8, Named("blue")), PtrTo(I8), false},
		{PtrToColored(I8, Named("blue")), PtrToColored(I8, Named("blue")), true},
		{ArrayType{Elem: I8, Len: 4}, ArrayType{Elem: I8, Len: 4}, true},
		{ArrayType{Elem: I8, Len: 4}, ArrayType{Elem: I8, Len: 5}, false},
		{FuncType{Ret: Void}, FuncType{Ret: Void}, true},
		{FuncType{Ret: Void, Variadic: true}, FuncType{Ret: Void}, false},
	}
	for _, c := range cases {
		if got := TypesEqual(c.a, c.b); got != c.want {
			t.Errorf("TypesEqual(%s, %s) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestColorCompatibility(t *testing.T) {
	blue, red := Named("blue"), Named("red")
	cases := []struct {
		a, b Color
		want bool
	}{
		{F, blue, true},
		{blue, F, true},
		{blue, blue, true},
		{blue, red, false},
		{U, blue, false},
		{S, U, false},
		{F, F, true},
	}
	for _, c := range cases {
		if got := Compatible(c.a, c.b); got != c.want {
			t.Errorf("Compatible(%s, %s) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

// buildDiamond creates entry -> (then|else) -> join, ret.
func buildDiamond() (*Function, *Block, *Block, *Block, *Block) {
	f := NewFunction("d", I64, []*Param{{PName: "a", Typ: I64}})
	b := NewBuilder(f)
	entry := b.Cur
	then := f.NewBlock("then")
	els := f.NewBlock("else")
	join := f.NewBlock("join")
	cond := b.Cmp(CmpGt, f.Params[0], I64Const(0))
	b.CondBr(cond, then, els)
	b.At(then)
	b.Br(join)
	b.At(els)
	b.Br(join)
	b.At(join)
	b.Ret(I64Const(0))
	f.ComputeCFG()
	return f, entry, then, els, join
}

func TestDominators(t *testing.T) {
	f, entry, then, els, join := buildDiamond()
	dom := Dominators(f)
	if dom.Idom(then) != entry || dom.Idom(els) != entry {
		t.Error("branches not dominated by entry")
	}
	if dom.Idom(join) != entry {
		t.Errorf("join idom = %v, want entry", dom.Idom(join))
	}
	if !dom.Dominates(entry, join) || dom.Dominates(then, join) {
		t.Error("dominance relation wrong")
	}
	// Dominance frontier of then/else is join.
	fr := dom.Frontier(then)
	if len(fr) != 1 || fr[0] != join {
		t.Errorf("frontier(then) = %v, want [join]", fr)
	}
}

func TestPostDominators(t *testing.T) {
	f, entry, then, els, join := buildDiamond()
	pdom := PostDominators(f)
	// The joining point of the branch is the immediate post-dominator of
	// the entry — the Rule 4 region boundary.
	if pdom.Idom(entry) != join {
		t.Errorf("ipdom(entry) = %v, want join", pdom.Idom(entry))
	}
	if pdom.Idom(then) != join || pdom.Idom(els) != join {
		t.Error("branch blocks not post-dominated by join")
	}
}

func TestCloneFunction(t *testing.T) {
	f, _, _, _, _ := buildDiamond()
	clone, vmap := CloneFunction(f, "d2")
	if clone.FName != "d2" || len(clone.Blocks) != len(f.Blocks) {
		t.Fatal("clone shape wrong")
	}
	// Mutating the clone must not touch the original.
	clone.Blocks[0].Instrs = clone.Blocks[0].Instrs[:0]
	if len(f.Blocks[0].Instrs) == 0 {
		t.Error("clone shares instruction slices with the original")
	}
	if vmap[f.Params[0]] == nil {
		t.Error("params not mapped")
	}
	if err := VerifyFunc(f); err != nil {
		t.Errorf("original damaged: %v", err)
	}
}

func TestVerifyCatchesBrokenIR(t *testing.T) {
	f := NewFunction("bad", Void, nil)
	b := NewBuilder(f)
	blk := b.Cur
	_ = blk
	// Block without terminator.
	b.BinOp(OpAdd, I64Const(1), I64Const(2))
	if err := VerifyFunc(f); err == nil {
		t.Error("unterminated block accepted")
	}
	b.Ret(nil)
	if err := VerifyFunc(f); err != nil {
		t.Errorf("now valid, got %v", err)
	}
}

// TestVerifyRejectsMixedFloatOps: the engines pick float or integer
// arithmetic from one IR type per operator, so a binop whose operands and
// result are not all float or all non-float, or a cmp mixing the two, is
// malformed.
func TestVerifyRejectsMixedFloatOps(t *testing.T) {
	f2 := func(v float64) *ConstFloat { return &ConstFloat{Typ: F64, V: v} }
	for name, emit := range map[string]func(b *Builder){
		"binop int, float": func(b *Builder) { b.BinOp(OpMul, I64Const(2), f2(2)) },
		"binop float, int": func(b *Builder) { b.BinOp(OpAdd, f2(2), I64Const(2)) },
		"binop result":     func(b *Builder) { b.BinOp(OpAdd, f2(1), f2(2)).typ = I64 },
		"cmp int, float":   func(b *Builder) { b.Cmp(CmpLt, I64Const(0), f2(1)) },
	} {
		f := NewFunction("mixed", Void, nil)
		b := NewBuilder(f)
		emit(b)
		b.Ret(nil)
		if err := VerifyFunc(f); err == nil || !strings.Contains(err.Error(), "mixes float and non-float") {
			t.Errorf("%s: VerifyFunc = %v, want a mixed-operand error", name, err)
		}
	}
	f := NewFunction("typed", Void, nil)
	b := NewBuilder(f)
	b.Cmp(CmpLt, b.BinOp(OpMul, f2(2), f2(3)), f2(1))
	b.Cmp(CmpEq, &Null{Typ: PtrTo(I8)}, I64Const(0))
	b.Ret(nil)
	if err := VerifyFunc(f); err != nil {
		t.Errorf("consistent float and word ops rejected: %v", err)
	}
}

func TestRemoveUnreachable(t *testing.T) {
	f := NewFunction("u", Void, nil)
	b := NewBuilder(f)
	b.Ret(nil)
	dead := f.NewBlock("dead")
	b.At(dead)
	b.Ret(nil)
	if n := f.RemoveUnreachable(); n != 1 {
		t.Errorf("removed %d blocks, want 1", n)
	}
}

func TestPrinterRoundTrip(t *testing.T) {
	f, _, _, _, _ := buildDiamond()
	m := NewModule("m")
	m.AddFunc(f)
	m.AddGlobal(&Global{GName: "g", Elem: I64, Color: Named("blue")})
	out := m.String()
	for _, frag := range []string{"@d", "condbr", "color(blue)", "@g"} {
		if !strings.Contains(out, frag) {
			t.Errorf("printed module missing %q:\n%s", frag, out)
		}
	}
}

func TestInternString(t *testing.T) {
	m := NewModule("m")
	a := m.InternString("hello")
	b := m.InternString("hello")
	c := m.InternString("world")
	if a != b {
		t.Error("same literal interned twice")
	}
	if a == c {
		t.Error("different literals shared")
	}
}

// TestPtrEncodeQuick is a property test: struct layout respects alignment
// invariants for arbitrary field mixes.
func TestLayoutInvariantsQuick(t *testing.T) {
	f := func(kinds []uint8) bool {
		var fields []Field
		for i, k := range kinds {
			var ft Type
			switch k % 4 {
			case 0:
				ft = I8
			case 1:
				ft = I32
			case 2:
				ft = I64
			case 3:
				ft = F64
			}
			fields = append(fields, Field{Name: string(rune('a' + i%26)), Type: ft})
		}
		st := NewStruct("q", fields)
		var prevEnd int64
		for _, fl := range st.Fields {
			if fl.Offset%fl.Type.Align() != 0 {
				return false // misaligned
			}
			if fl.Offset < prevEnd {
				return false // overlapping
			}
			prevEnd = fl.Offset + fl.Type.Size()
		}
		return st.Size() >= prevEnd
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
