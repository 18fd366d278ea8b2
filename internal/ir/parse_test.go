package ir

import (
	"strings"
	"testing"
)

const sampleIR = `
; module sample
%node = { color(blue) i64 key, color(blue) [64 x i8] value, color(blue) %node color(blue)* next }
@head = global %node color(blue)* color(blue)
@counter = global i64
@.str1 = global [6 x i8] "hello\x00"
declare i64 @printf(i8* %a0) within variadic
define i64 @sum(i64 %n) entry {
entry1:
  br %head2
head2:
  %acc = phi [0, %entry1], [%acc2, %body3]
  %i = phi [0, %entry1], [%i2, %body3]
  %c = cmp lt %i, %n
  condbr %c, %body3, %exit4
body3:
  %acc2 = add %acc, %i
  %i2 = add %i, 1
  br %head2
exit4:
  ret %acc
}
`

func TestParseModule(t *testing.T) {
	mod, err := ParseModule("sample", sampleIR)
	if err != nil {
		t.Fatal(err)
	}
	st := mod.Struct("node")
	if st == nil || len(st.Fields) != 3 {
		t.Fatal("struct node not parsed")
	}
	if st.Fields[0].Color != Named("blue") {
		t.Errorf("key color = %v", st.Fields[0].Color)
	}
	// Self-referential pointer field.
	pt, ok := st.Fields[2].Type.(PointerType)
	if !ok || pt.Elem != Type(st) || pt.Color != Named("blue") {
		t.Errorf("next field type = %v", st.Fields[2].Type)
	}
	g := mod.Global("head")
	if g == nil || g.Color != Named("blue") {
		t.Fatalf("head global wrong: %+v", g)
	}
	if s := mod.Global(".str1"); s == nil || string(s.InitBytes) != "hello\x00" {
		t.Errorf("string global wrong")
	}
	pf := mod.Func("printf")
	if pf == nil || !pf.External || !pf.Within || !pf.Variadic {
		t.Errorf("printf attrs wrong: %+v", pf)
	}
	fn := mod.Func("sum")
	if fn == nil || !fn.Entry || len(fn.Blocks) != 4 {
		t.Fatalf("sum wrong")
	}
	if err := VerifyFunc(fn); err != nil {
		t.Fatal(err)
	}
}

// TestParsePrintRoundTrip checks print -> parse -> print is a fixpoint.
func TestParsePrintRoundTrip(t *testing.T) {
	mod, err := ParseModule("sample", sampleIR)
	if err != nil {
		t.Fatal(err)
	}
	printed := mod.String()
	mod2, err := ParseModule("sample", printed)
	if err != nil {
		t.Fatalf("re-parse failed: %v\n--- printed ---\n%s", err, printed)
	}
	printed2 := mod2.String()
	if printed != printed2 {
		t.Errorf("round trip not a fixpoint:\n--- first ---\n%s\n--- second ---\n%s", printed, printed2)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct{ name, src, frag string }{
		{"badtype", "@g = global wible\n", "unknown type"},
		{"badinstr", "define void @f() {\nentry:\n  frobnicate %x\n}\n", "unknown instruction"},
		{"undefreg", "define void @f() {\nentry:\n  store %nope, @g\n}\n", "undefined"},
		{"nolabel", "define void @f() {\n  ret void\n}\n", "before first block"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := ParseModule("e", c.src)
			if err == nil {
				t.Fatal("expected error")
			}
			if !strings.Contains(err.Error(), c.frag) {
				t.Errorf("error %q missing %q", err, c.frag)
			}
		})
	}
}

// TestParseFloatLiterals: a float constant prints in a form that parses
// back as a float, and an integer literal on the left of a float binop or
// cmp takes the float type of its right operand.
func TestParseFloatLiterals(t *testing.T) {
	for v, want := range map[float64]string{2: "2.0", -0.5: "-0.5", 1e21: "1e+21"} {
		if got := (&ConstFloat{Typ: F64, V: v}).Name(); got != want {
			t.Errorf("ConstFloat(%v).Name() = %q, want %q", v, got, want)
		}
	}
	mod, err := ParseModule("lit", `
define i64 @f(f64 %d) {
entry1:
  %a = mul 2, %d
  %b = mul %d, 3
  %c = cmp lt 0, %a
  %e = add %b, 2.0
  ret 0
}
`)
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range mod.Func("f").Blocks[0].Instrs {
		switch t2 := in.(type) {
		case *BinOp:
			if !IsFloat(t2.X.Type()) || !IsFloat(t2.Y.Type()) || !IsFloat(t2.Type()) {
				t.Errorf("%s: operands %s, %s, result %s; want all f64", t2, t2.X.Type(), t2.Y.Type(), t2.Type())
			}
		case *Cmp:
			if !IsFloat(t2.X.Type()) || !IsFloat(t2.Y.Type()) {
				t.Errorf("%s: operands %s, %s; want f64", t2, t2.X.Type(), t2.Y.Type())
			}
		}
	}
}

// TestParseRejectsNarrowFloats: a value is one 64-bit word, so only f64
// exists; an f32 field would be stored as 8 bytes over its neighbour.
func TestParseRejectsNarrowFloats(t *testing.T) {
	for _, src := range []string{
		"%P = { f32 a, i32 b }\n",
		"@g = global f16\n",
	} {
		if _, err := ParseModule("narrow", src); err == nil || !strings.Contains(err.Error(), "only f64") {
			t.Errorf("ParseModule(%q) error = %v, want an only-f64 rejection", src, err)
		}
	}
}
