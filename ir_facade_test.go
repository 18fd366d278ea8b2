package privagic

import (
	"strings"
	"testing"

	"privagic/internal/ir"
)

// TestCompileIRPath exercises the Figure 5 input path: MiniC → emitted IR
// text → CompileIR → execution, with the same behaviour as the direct
// compile.
func TestCompileIRPath(t *testing.T) {
	src := `
long color(blue) total = 0;
entry void add(long color(blue) n) { total = total + n; }
entry long get() { return total; }
`
	direct, err := Compile("acc.c", src, Options{Mode: Hardened})
	if err != nil {
		t.Fatal(err)
	}
	text := direct.EmitIR()
	viaIR, err := CompileIR("acc.pir", text, Options{Mode: Hardened})
	if err != nil {
		t.Fatalf("CompileIR: %v\n--- emitted ---\n%s", err, text)
	}

	run := func(p *Program) int64 {
		inst := p.Instantiate(MachineA())
		defer inst.Close()
		for _, n := range []int64{5, 7, 30} {
			if _, err := inst.Call("add", n); err != nil {
				t.Fatal(err)
			}
		}
		v, err := inst.Call("get")
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	if a, b := run(direct), run(viaIR); a != b || a != 42 {
		t.Errorf("direct = %d, via IR = %d, want 42", a, b)
	}
}

// TestCompileIRRejectsLeaks: type errors surface on the IR path too.
func TestCompileIRRejectsLeaks(t *testing.T) {
	src := `
@secret = global i64 color(blue)
@open = global i64
define void @leak() {
entry1:
  %v = load i64, @secret
  store %v, @open
  ret void
}
`
	if _, err := CompileIR("leak.pir", src, Options{Mode: Hardened}); err == nil {
		t.Fatal("hand-written leaking IR accepted")
	}
}

// TestCompileIRFloatRoundTrip: a float program survives Compile → EmitIR
// → CompileIR with the same answer, and the re-parsed module types every
// binop and cmp consistently (a literal 2.0 printed as "2" used to
// re-parse as an i64 operand, and only a run-time float flag hid it).
func TestCompileIRFloatRoundTrip(t *testing.T) {
	src := `
entry long run(long n) {
	double d = 0.75;
	double s = 0.0;
	for (long i = 0; i < n; i++) {
		s = s + 2.0 * d;
		if (3.0 < s) d = d / 2.0;
	}
	return (long)(s * 1000.0);
}
`
	direct, err := Compile("float.c", src, Options{Mode: Relaxed})
	if err != nil {
		t.Fatal(err)
	}
	text := direct.EmitIR()
	if !strings.Contains(text, "mul 2.0, ") || !strings.Contains(text, "cmp lt 3.0, ") {
		t.Errorf("float literals not printed as floats:\n%s", text)
	}
	viaIR, err := CompileIR("float.pir", text, Options{Mode: Relaxed})
	if err != nil {
		t.Fatalf("CompileIR: %v\n--- emitted ---\n%s", err, text)
	}
	for _, f := range viaIR.Module.Funcs {
		f.Instrs(func(_ *ir.Block, in ir.Instr) {
			switch op := in.(type) {
			case *ir.BinOp:
				if ir.IsFloat(op.X.Type()) != ir.IsFloat(op.Type()) || ir.IsFloat(op.Y.Type()) != ir.IsFloat(op.Type()) {
					t.Errorf("@%s: %s mixes float and non-float types", f.FName, op)
				}
			case *ir.Cmp:
				if ir.IsFloat(op.X.Type()) != ir.IsFloat(op.Y.Type()) {
					t.Errorf("@%s: %s mixes float and non-float types", f.FName, op)
				}
			}
		})
	}
	run := func(p *Program) int64 {
		inst := p.Instantiate(MachineA())
		defer inst.Close()
		v, err := inst.Call("run", 6)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	// s: 1.5, 3.0, then d halves after each step: 4.5, 5.25, 5.625, 5.8125.
	if a, b := run(direct), run(viaIR); a != b || a != 5812 {
		t.Errorf("direct = %d, via IR = %d, want 5812", a, b)
	}
}

// TestCompileIRRejectsNarrowFloat: storing the f32 field of
// { f32 a, i32 b } used to write 8 bytes and overwrite b (main returned
// 107321753600, not 703). A value is one 64-bit word, so f32 does not
// compile.
func TestCompileIRRejectsNarrowFloat(t *testing.T) {
	src := `
%P = { f32 a, i32 b }
@p = global %P
define i64 @main() entry {
entry1:
  %pa = fieldaddr @p, 0
  %pb = fieldaddr @p, 1
  store 703, %pb
  store 1.5, %pa
  %v = load i32, %pb
  %w = cast %v to i64
  ret %w
}
`
	if _, err := CompileIR("narrow.pir", src, Options{Mode: Relaxed}); err == nil || !strings.Contains(err.Error(), "f32") {
		t.Fatalf("CompileIR = %v, want an f32 rejection", err)
	}
}
