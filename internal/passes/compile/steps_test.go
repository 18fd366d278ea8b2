package compile

import (
	"fmt"
	"math"
	"testing"

	"privagic/internal/exec"
	"privagic/internal/ir"
	"privagic/internal/prt"
	"privagic/internal/value"
)

// edgeInputs are the operand values every specialized step is checked
// on.
var edgeInputs = []int64{0, 1, -1, 63, 64, math.MinInt64, math.MaxInt64}

var allKinds = []kinds{ss, sk, ks, kk}

func (k kinds) String() string { return [...]string{"ss", "sk", "ks", "kk"}[k] }

// operands returns f's parameters (slots) or the constants x and y
// (immediates), as k says.
func operands(f *ir.Function, k kinds, x, y int64) (ir.Value, ir.Value) {
	var a, b ir.Value = f.Params[0], f.Params[1]
	if k == ks || k == kk {
		a = ir.I64Const(x)
	}
	if k == sk || k == kk {
		b = ir.I64Const(y)
	}
	return a, b
}

// newFn starts a function f(i64 %a, i64 %b) and returns it with a
// builder at its entry block.
func newFn() (*ir.Function, *ir.Builder) {
	f := ir.NewFunction("f", ir.I64, []*ir.Param{{PName: "a", Typ: ir.I64}, {PName: "b", Typ: ir.I64}})
	return f, ir.NewBuilder(f)
}

// run compiles f and runs it on (x, y), returning its result or the text
// of the RuntimeErr it raised.
func run(t *testing.T, f *ir.Function, x, y int64) (r int64, errText string) {
	t.Helper()
	cf := New([]*ir.Function{f}, &stubEnv{t}, Options{}).Fn(f)
	fr := &exec.Frame{Regs: make([]exec.Val, cf.NumSlots), Env: &stubEnv{t}}
	fr.Regs[0], fr.Regs[1] = value.IV(x), value.IV(y)
	return eval(func() int64 { return exec.Run(cf.Code, fr).I })
}

// eval runs fn, turning a RuntimeErr panic into its text.
func eval(fn func() int64) (r int64, errText string) {
	defer func() {
		if p := recover(); p != nil {
			re, ok := p.(exec.RuntimeErr)
			if !ok {
				panic(p)
			}
			errText = re.Err.Error()
		}
	}()
	return fn(), ""
}

// TestSpecializedStepsAgreeWithExec compiles every integer binary
// operator and comparison with every pair of operand kinds, and checks
// each step against exec's semantics on edge values: the same result, or
// the same error text for a division or remainder by zero. Comparisons
// are checked as plain steps and as the two compare-and-branch shapes.
func TestSpecializedStepsAgreeWithExec(t *testing.T) {
	for op := ir.OpAdd; op <= ir.OpShr; op++ {
		for _, k := range allKinds {
			for _, x := range edgeInputs {
				for _, y := range edgeInputs {
					f, b := newFn()
					a1, a2 := operands(f, k, x, y)
					b.Ret(b.BinOp(op, a1, a2))
					got, gotErr := run(t, f, x, y)
					want, wantErr := eval(func() int64 { return exec.BinOp(op, ir.I64, value.IV(x), value.IV(y)).I })
					if got != want || gotErr != wantErr {
						t.Errorf("%s %s(%d, %d) = %d %q, want %d %q", op, k, x, y, got, gotErr, want, wantErr)
					}
				}
			}
		}
	}
	shapes := []struct {
		name string
		emit func(f *ir.Function, b *ir.Builder, c *ir.Cmp)
	}{
		{"plain", func(f *ir.Function, b *ir.Builder, c *ir.Cmp) { b.Ret(c) }},
		{"branch", func(f *ir.Function, b *ir.Builder, c *ir.Cmp) { condRet(f, b, c) }},
		{"truth-idiom branch", func(f *ir.Function, b *ir.Builder, c *ir.Cmp) {
			condRet(f, b, b.Cmp(ir.CmpNe, b.Cast(c, ir.I64), ir.I64Const(0)))
		}},
	}
	for pred := ir.CmpEq; pred <= ir.CmpGe; pred++ {
		for _, sh := range shapes {
			for _, k := range allKinds {
				for _, x := range edgeInputs {
					for _, y := range edgeInputs {
						f, b := newFn()
						a1, a2 := operands(f, k, x, y)
						sh.emit(f, b, b.Cmp(pred, a1, a2))
						got, _ := run(t, f, x, y)
						if want := exec.Cmp(pred, ir.I64, value.IV(x), value.IV(y)).I; got != want {
							t.Errorf("%s %s %s(%d, %d) = %d, want %d", sh.name, pred, k, x, y, got, want)
						}
					}
				}
			}
		}
	}
}

// condRet ends f's entry block with `condbr cond` into blocks returning 1
// and 0.
func condRet(f *ir.Function, b *ir.Builder, cond ir.Value) {
	then, els := f.NewBlock("then"), f.NewBlock("else")
	b.CondBr(cond, then, els)
	b.At(then).Ret(ir.I64Const(1))
	b.At(els).Ret(ir.I64Const(0))
}

// TestCastsAgreeWithExec checks every cast the compiler lowers, from a
// slot and from an immediate, against exec.Cast, and that a cast
// compiled to a slot copy (preservesWord) does preserve the word.
func TestCastsAgreeWithExec(t *testing.T) {
	ptr := ir.PointerType{Elem: ir.I64}
	types := []ir.Type{ir.IntType{Bits: 1}, ir.IntType{Bits: 8}, ir.IntType{Bits: 32}, ir.I64, ir.FloatType{Bits: 64}, ptr}
	words := append(append([]int64{}, edgeInputs...), int64(math.Float64bits(-2.5)))
	for _, from := range types {
		for _, to := range types {
			for _, w := range words {
				want := exec.Cast(value.IV(w), from, to).I
				if preservesWord(from, to) && want != w {
					t.Errorf("preservesWord(%s, %s) but exec.Cast(%#x) = %#x", from, to, w, want)
				}
				for _, imm := range []bool{false, true} {
					f := ir.NewFunction("f", to, []*ir.Param{{PName: "a", Typ: from}, {PName: "b", Typ: ir.I64}})
					b := ir.NewBuilder(f)
					var v ir.Value = f.Params[0]
					if imm {
						v = &ir.ConstInt{Typ: ir.I64, V: w}
						if ir.IsFloat(from) {
							v = &ir.ConstFloat{Typ: ir.FloatType{Bits: 64}, V: math.Float64frombits(uint64(w))}
						}
					}
					b.Ret(b.Cast(v, to))
					if got, _ := run(t, f, w, 0); got != want {
						t.Errorf("cast %s→%s (imm %v) of %#x = %#x, want %#x", from, to, imm, w, got, want)
					}
				}
			}
		}
	}
}

// treeEnv serves loads from a word map: the nodes of a binary tree.
type treeEnv struct {
	*stubEnv
	mem map[uint64]int64
}

func (e *treeEnv) Load(w *prt.Worker, t *ir.Load, addr uint64) exec.Val {
	return value.IV(e.mem[addr])
}

const treeSrc = `
struct node { long key; struct node* left; struct node* right; };
long depth(struct node* n, long k) {
	long d = 0;
	while (n != 0) {
		if (n->key == k) { return d; }
		if (k < n->key) { n = n->left; } else { n = n->right; }
		d = d + 1;
	}
	return -1;
}
`

// TestTreeWalkSteps counts the steps one tree node costs: the pointer
// cast, one compare-and-branch per test, one field-access step per field
// read, and the branches of the loop and its join. Without the
// superinstructions the node costs 22 steps.
func TestTreeWalkSteps(t *testing.T) {
	fn := buildFn(t, treeSrc, "depth")
	// A right spine of 40 nodes at 0x1000, 0x1100, ... with keys 0..39.
	env := &treeEnv{stubEnv: &stubEnv{t}, mem: map[uint64]int64{}}
	const nodes = 40
	for i := uint64(0); i < nodes; i++ {
		at := 0x1000 + 0x100*i
		env.mem[at] = int64(i)
		if i+1 < nodes {
			env.mem[at+16] = int64(at + 0x100)
		}
	}
	cf := New([]*ir.Function{fn}, env, Options{}).Fn(fn)
	walk := func(k int64) (ret int64, steps int) {
		fr := &exec.Frame{Regs: make([]exec.Val, cf.NumSlots), Env: env}
		fr.Regs[0], fr.Regs[1] = value.IV(0x1000), value.IV(k)
		pc := 0
		for pc >= 0 && pc < len(cf.Code) {
			pc = cf.Code[pc](fr)
			steps++
		}
		return fr.Ret.I, steps
	}
	r0, s0 := walk(0)
	r1, s1 := walk(nodes - 1)
	if r0 != 0 || r1 != nodes-1 {
		t.Fatalf("depth(0), depth(%d) = %d, %d; want 0, %d", nodes-1, r0, r1, nodes-1)
	}
	if per := float64(s1-s0) / (nodes - 1); per != 10 {
		t.Errorf("a tree node runs %v steps, want 10", per)
	}
}

// TestAbsorbedStepsAreNeverJumpTargets checks the layout invariant the
// superinstructions rest on: no block's entry pc holds an absorbed step.
func TestAbsorbedStepsAreNeverJumpTargets(t *testing.T) {
	absorbedPtr := fmt.Sprintf("%p", exec.Step(absorbed))
	for _, src := range []struct{ src, fn string }{{treeSrc, "depth"}, {loopSrc, "work"}} {
		fn := buildFn(t, src.src, src.fn)
		cf := New([]*ir.Function{fn}, &treeEnv{stubEnv: &stubEnv{t}}, Options{}).Fn(fn)
		n := 0
		for pc, step := range cf.Code {
			if fmt.Sprintf("%p", step) == absorbedPtr {
				n++
				for _, b := range fn.Blocks {
					if got, _ := cf.BlockPC(b); got == pc {
						t.Errorf("%s: block %%%s starts at absorbed step %d", src.fn, b.BName, pc)
					}
				}
			}
		}
		if n == 0 {
			t.Errorf("%s: no instruction was absorbed into a superinstruction", src.fn)
		}
	}
}
