package interp

import (
	"errors"
	"strings"
	"testing"

	"privagic/internal/passes/compile"
	"privagic/internal/typing"
)

// enginePrograms are end-to-end programs every engine must agree on:
// multi-color spawns and conts, loops with φ-nodes, arrays, recursion
// through direct calls, and builtin output.
var enginePrograms = []struct {
	name    string
	mode    typing.Mode
	src     string
	entry   string
	want    int64
	wantOut string
}{
	{
		name: "figure6",
		mode: typing.Relaxed,
		src: `
int color(U) unsafe = 0;
int color(blue) blue = 10;
int color(red) red = 0;

void g(int n) {
	blue = n;
	red = n;
	printf("Hello\n");
}
int f(int y) {
	g(21);
	return 42;
}
entry int main() {
	unsafe = 1;
	int x = f(blue);
	return x;
}
`,
		entry:   "main",
		want:    42,
		wantOut: "Hello\n",
	},
	{
		name: "loops_and_arrays",
		mode: typing.Relaxed,
		src: `
long acc[16];
entry long main() {
	long s = 0;
	for (long i = 0; i < 16; i = i + 1) {
		acc[i] = i * i;
	}
	for (long i = 0; i < 16; i = i + 1) {
		s = s + acc[i];
	}
	return s % 1000 + (s << 1) - (s >> 2) + (s & 255) + (s | 3) + (s ^ 9);
}
`,
		entry: "main",
		want: func() int64 {
			var s int64
			for i := int64(0); i < 16; i++ {
				s += i * i
			}
			return s%1000 + (s << 1) - (s >> 2) + (s & 255) + (s | 3) + (s ^ 9)
		}(),
	},
	{
		name: "recursion",
		mode: typing.Relaxed,
		src: `
long fib(long n) {
	if (n < 2) { return n; }
	return fib(n - 1) + fib(n - 2);
}
entry long main() {
	return fib(15);
}
`,
		entry: "main",
		want:  610,
	},
	{
		name: "colored_counter",
		mode: typing.Relaxed,
		src: `
long color(sec) counter = 0;
long bump(long d) {
	counter = counter + d;
	return counter;
}
entry long main() {
	long t = 0;
	for (long i = 1; i <= 10; i = i + 1) {
		t = bump(i);
	}
	return t;
}
`,
		entry: "main",
		want:  55,
	},
}

// TestEnginesAgree runs every engine program on the interpreter, the
// compiled tier, and the differential oracle, requiring identical
// results and output — and that the compiled tier actually dispatched.
func TestEnginesAgree(t *testing.T) {
	engines := []Engine{EngineInterp, EngineCompiled, EngineDifferential}
	for _, p := range enginePrograms {
		for _, eng := range engines {
			t.Run(p.name+"/"+eng.String(), func(t *testing.T) {
				ip := build(t, p.mode, p.src, p.entry)
				if err := ip.SetEngine(eng); err != nil {
					t.Fatalf("SetEngine(%v): %v", eng, err)
				}
				ret, err := ip.Call(p.entry)
				if err != nil {
					t.Fatalf("Call: %v", err)
				}
				if ret != p.want {
					t.Errorf("%s() = %d, want %d", p.entry, ret, p.want)
				}
				if got := ip.Output(); got != p.wantOut {
					t.Errorf("output = %q, want %q", got, p.wantOut)
				}
				st := ip.ExecStats()
				if eng == EngineCompiled && st.CompiledDispatches == 0 {
					t.Errorf("compiled engine ran but CompiledDispatches = 0")
				}
				if st.OracleDivergences != 0 {
					t.Errorf("OracleDivergences = %d, want 0", st.OracleDivergences)
				}
			})
		}
	}
}

// TestEnginesAgreeOnErrors requires the engines to agree on typed
// runtime errors, text and all — the property the oracle's error
// comparison rests on.
func TestEnginesAgreeOnErrors(t *testing.T) {
	src := `
entry long main(long d) {
	return 10 / d;
}
`
	for _, eng := range []Engine{EngineInterp, EngineCompiled, EngineDifferential} {
		t.Run(eng.String(), func(t *testing.T) {
			ip := build(t, typing.Relaxed, src, "main")
			if err := ip.SetEngine(eng); err != nil {
				t.Fatalf("SetEngine: %v", err)
			}
			if ret, err := ip.Call("main", 5); err != nil || ret != 2 {
				t.Fatalf("main(5) = %d, %v; want 2, nil", ret, err)
			}
			_, err := ip.Call("main", 0)
			if err == nil || !strings.Contains(err.Error(), "integer division by zero") {
				t.Fatalf("main(0) error = %v, want division by zero", err)
			}
			if errors.Is(err, ErrDivergence) {
				t.Fatalf("division by zero misreported as a divergence: %v", err)
			}
		})
	}
}

// TestDifferentialCatchesSkippedSeam is the negative oracle test: a unit
// compiled with the test-only SkipLoadSeam option reads backing memory
// directly, bypassing the boundary-snapshot/transaction/journal seams.
// The live pass records the seam-crossing load; the shadow never
// consumes it; the oracle must report a divergence. The struct program's
// loads are field loads, which the compiler fuses with their fieldaddr
// into one step: the fused step must skip the seam too, and be caught.
func TestDifferentialCatchesSkippedSeam(t *testing.T) {
	for _, p := range []struct{ name, src string }{
		{"global", `
long stash = 7;
entry long main() {
	stash = stash + 35;
	return stash;
}
`},
		{"struct_field", `
struct box { long pad; long v; };
entry long main() {
	struct box* b = malloc(sizeof(struct box));
	b->v = 7;
	b->v = b->v + 35;
	return b->v;
}
`},
	} {
		t.Run(p.name, func(t *testing.T) {
			ip := build(t, typing.Relaxed, p.src, "main")
			if err := ip.SetEngine(EngineDifferential); err != nil {
				t.Fatalf("SetEngine: %v", err)
			}
			ip.OverrideUnit(compile.Options{SkipLoadSeam: true})
			_, err := ip.Call("main")
			if err == nil {
				t.Fatal("Call succeeded; want a divergence from the skipped load seam")
			}
			if !errors.Is(err, ErrDivergence) {
				t.Fatalf("Call error = %v, want ErrDivergence", err)
			}
			var de *DivergenceError
			if !errors.As(err, &de) {
				t.Fatalf("Call error = %v, want a *DivergenceError", err)
			}
			if ip.ExecStats().OracleDivergences == 0 {
				t.Error("OracleDivergences = 0 after a reported divergence")
			}
		})
	}
}
