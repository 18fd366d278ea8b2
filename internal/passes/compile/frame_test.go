package compile

import (
	"testing"

	"privagic/internal/exec"
	"privagic/internal/ir"
	"privagic/internal/prt"
)

// FieldOffset answers stubEnv's compile-time field query with the
// nominal layout: every field is plain.
func (e *stubEnv) FieldOffset(t *ir.FieldAddr) (int64, bool) {
	return t.Struct().Fields[t.Index].Offset, true
}

// fieldEnv reports every field as plain or as split, counts the
// run-time FieldAddr calls, and answers loads with their address so a
// test can see which address a field access produced.
type fieldEnv struct {
	*stubEnv
	split      bool
	fieldAddrs int
}

func (e *fieldEnv) FieldOffset(t *ir.FieldAddr) (int64, bool) {
	off, _ := e.stubEnv.FieldOffset(t)
	return off, !e.split
}

func (e *fieldEnv) FieldAddr(w *prt.Worker, t *ir.FieldAddr, base exec.Val) exec.Val {
	e.fieldAddrs++
	return exec.IV(0x9000)
}

func (e *fieldEnv) Load(w *prt.Worker, t *ir.Load, addr uint64) exec.Val {
	return exec.IV(int64(addr))
}

const fieldSrc = `
struct pair { long a; long b; };
long second(struct pair* p) {
	return p->b;
}
`

// TestPlainFieldAddrIsCompileTime checks that a plain field access
// compiles to base+offset and never reaches Env.FieldAddr, while a split
// field still goes through the run-time seam (its address is loaded from
// the structure's slot).
func TestPlainFieldAddrIsCompileTime(t *testing.T) {
	fn := buildFn(t, fieldSrc, "second")
	for _, split := range []bool{false, true} {
		env := &fieldEnv{stubEnv: &stubEnv{t}, split: split}
		cf := New([]*ir.Function{fn}, env, Options{}).Fn(fn)
		if cf == nil {
			t.Fatal("function was not compiled")
		}
		fr := &exec.Frame{Regs: make([]exec.Val, cf.NumSlots), Env: env}
		fr.Regs[0] = exec.IV(0x1000)
		got := exec.Run(cf.Code, fr).I
		want, wantCalls := int64(0x1008), 0
		if split {
			want, wantCalls = 0x9000, 1
		}
		if got != want || env.fieldAddrs != wantCalls {
			t.Errorf("split=%v: loaded from %#x with %d FieldAddr calls, want %#x with %d",
				split, got, env.fieldAddrs, want, wantCalls)
		}
	}
}

// callEnv records the argument slices Env.Call receives.
type callEnv struct {
	*stubEnv
	args [][]exec.Val
}

func (e *callEnv) Call(w *prt.Worker, t *ir.Call, callee exec.Val, args []exec.Val) exec.Val {
	e.args = append(e.args, args)
	return exec.IV(args[0].I * 10)
}

const callSrc = `
long three(long a, long b, long c);
long one(long a);
long caller(long x) {
	return three(x, x + 1, x + 2) + one(x + 3);
}
`

// TestCallArgumentsLiveInFrame checks the call-argument area: the frame
// reserves the widest call's arity after the value slots, and each call
// step hands Env.Call a window of that area, capped at its arity so the
// callee cannot append into the frame.
func TestCallArgumentsLiveInFrame(t *testing.T) {
	fn := buildFn(t, callSrc, "caller")
	env := &callEnv{stubEnv: &stubEnv{t}}
	cf := New([]*ir.Function{fn}, env, Options{}).Fn(fn)
	if cf == nil {
		t.Fatal("function was not compiled")
	}
	values := 0
	for _, b := range fn.Blocks {
		for _, in := range b.Instrs {
			if _, ok := in.(ir.Value); ok {
				values++
			}
		}
	}
	if want := len(fn.Params) + values + 3; cf.NumSlots != want {
		t.Fatalf("NumSlots = %d, want %d (params + values + widest call)", cf.NumSlots, want)
	}
	fr := &exec.Frame{Regs: make([]exec.Val, cf.NumSlots), Env: env}
	fr.Regs[0] = exec.IV(4)
	if got := exec.Run(cf.Code, fr).I; got != 40+70 {
		t.Fatalf("caller(4) = %d, want 110", got)
	}
	if len(env.args) != 2 {
		t.Fatalf("Env.Call ran %d times, want 2", len(env.args))
	}
	area := &fr.Regs[cf.NumSlots-3]
	for i, args := range env.args {
		if &args[0] != area {
			t.Errorf("call %d: arguments are not in the frame's argument area", i)
		}
		if len(args) != cap(args) {
			t.Errorf("call %d: argument window len %d cap %d, want equal", i, len(args), cap(args))
		}
	}
}
