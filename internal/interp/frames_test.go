package interp

import (
	"errors"
	"strings"
	"testing"

	"privagic/internal/ir"
	"privagic/internal/sgx"
	"privagic/internal/sources"
	"privagic/internal/typing"
)

var allEngines = []Engine{EngineInterp, EngineCompiled, EngineDifferential}

// TestCompiledDirectCallAllocationFree drives a compiled body that calls
// a helper directly and requires zero allocations per activation once
// the worker's frame list is warm: the caller's and the helper's frames
// are reused, and the call passes its arguments in the caller's frame.
func TestCompiledDirectCallAllocationFree(t *testing.T) {
	ip := build(t, typing.Relaxed, `
long mix(long a, long b, long c) {
	return a * 31 + b * 7 + c;
}
entry long main(long x) {
	long s = 0;
	for (long i = 0; i < 4; i = i + 1) {
		s = s + mix(x, i, s);
	}
	return s;
}
`, "main")
	if err := ip.SetEngine(EngineCompiled); err != nil {
		t.Fatalf("SetEngine: %v", err)
	}
	cf := ip.compiledFn(ip.Prog.Entries["main"].Chunks[ir.U].Fn)
	if cf == nil {
		t.Fatal("main's U chunk was not compiled")
	}
	w := ip.mainThread().Normal()
	args := []val{iv(3)}
	want := ip.runCompiled(cf, w, args, ip.live)
	before := ip.ExecStats().CompiledDispatches
	allocs := testing.AllocsPerRun(100, func() {
		if got := ip.runCompiled(cf, w, args, ip.live); got != want {
			t.Fatalf("main(3) = %v, want %v", got, want)
		}
	})
	if allocs != 0 {
		t.Errorf("compiled activation with a direct call allocates %.1f times, want 0", allocs)
	}
	// AllocsPerRun makes one warm-up run plus 100 measured ones; each
	// runs main and four compiled mix activations.
	if got := ip.ExecStats().CompiledDispatches - before; got != 101*4 {
		t.Errorf("helper dispatches = %d, want %d (the helper must run compiled)", got, 101*4)
	}
}

// TestDeepRecursionAgrees recurses past the frame list's bound on every
// engine: pooled frames must never be shared between live activations.
func TestDeepRecursionAgrees(t *testing.T) {
	const src = `
long walk(long n, long acc) {
	if (n == 0) { return acc; }
	long below = walk(n - 1, acc + n);
	return below + n % 3;
}
entry long main(long n) {
	return walk(n, 0) + walk(n / 2, 1);
}
`
	model := func(n, acc int64) int64 {
		var rec func(n, acc int64) int64
		rec = func(n, acc int64) int64 {
			if n == 0 {
				return acc
			}
			return rec(n-1, acc+n) + n%3
		}
		return rec(n, acc)
	}
	const depth = 700
	want := model(depth, 0) + model(depth/2, 1)
	for _, eng := range allEngines {
		t.Run(eng.String(), func(t *testing.T) {
			ip := build(t, typing.Relaxed, src, "main")
			if err := ip.SetEngine(eng); err != nil {
				t.Fatalf("SetEngine: %v", err)
			}
			for i := 0; i < 2; i++ {
				if got, err := ip.Call("main", depth); err != nil || got != want {
					t.Fatalf("call %d: main(%d) = %d, %v; want %d", i, depth, got, err, want)
				}
			}
		})
	}
}

// TestNestedErrorThenCleanCall raises a runtime error two helpers deep,
// dropping the frames of every activation on the way out, then requires
// the same instance to answer the next calls exactly.
func TestNestedErrorThenCleanCall(t *testing.T) {
	const src = `
long inner(long d) { return 100 / d; }
long mid(long d) { return inner(d) + 1; }
entry long main(long d) {
	return mid(d) + mid(d + 1);
}
`
	for _, eng := range allEngines {
		t.Run(eng.String(), func(t *testing.T) {
			ip := build(t, typing.Relaxed, src, "main")
			if err := ip.SetEngine(eng); err != nil {
				t.Fatalf("SetEngine: %v", err)
			}
			if got, err := ip.Call("main", 4); err != nil || got != 26+21 {
				t.Fatalf("main(4) = %d, %v; want 47", got, err)
			}
			_, err := ip.Call("main", 0)
			if err == nil || !strings.Contains(err.Error(), "integer division by zero") {
				t.Fatalf("main(0) error = %v, want division by zero", err)
			}
			for i := 0; i < 3; i++ {
				if got, err := ip.Call("main", 1); err != nil || got != 101+51 {
					t.Fatalf("main(1) after the error = %d, %v; want 152", got, err)
				}
			}
		})
	}
}

// TestSplitFieldsAgree runs the two-color hashmap, whose nodes are split
// structures, on every engine: the compiled tier resolves the plain
// field at compile time and still loads the colored fields' out-of-line
// pointers through the seam.
func TestSplitFieldsAgree(t *testing.T) {
	for _, eng := range allEngines {
		t.Run(eng.String(), func(t *testing.T) {
			ip := build(t, typing.Relaxed, sources.HashmapColored2, "run_ycsb")
			if len(ip.layouts) == 0 {
				t.Fatal("the program has no split structure")
			}
			if err := ip.SetEngine(eng); err != nil {
				t.Fatalf("SetEngine: %v", err)
			}
			if got, err := ip.Call("run_ycsb"); err != nil || got != 264 {
				t.Fatalf("run_ycsb() = %d, %v; want 264", got, err)
			}
			if n := ip.ExecStats().OracleDivergences; n != 0 {
				t.Errorf("OracleDivergences = %d, want 0", n)
			}
		})
	}
}

// TestProgramSizedMallocFails asks for a 1 TiB allocation: the region
// must refuse it with a typed error instead of exhausting the host, and
// the instance must keep answering.
func TestProgramSizedMallocFails(t *testing.T) {
	const src = `
entry long f(long n) {
	long* p = malloc(sizeof(long) * n);
	p[0] = 1;
	return p[0];
}
`
	for _, eng := range allEngines {
		t.Run(eng.String(), func(t *testing.T) {
			ip := build(t, typing.Relaxed, src, "f")
			if err := ip.SetEngine(eng); err != nil {
				t.Fatalf("SetEngine: %v", err)
			}
			if _, err := ip.Call("f", 1<<37); err == nil || !strings.Contains(err.Error(), "region ceiling") {
				t.Fatalf("f(1<<37) error = %v, want a region-ceiling error", err)
			}
			if _, err := ip.Call("f", 1<<62); err == nil || errors.Is(err, ErrDivergence) {
				t.Fatalf("f(1<<62) error = %v, want a typed allocation error", err)
			}
			if got, err := ip.Call("f", 3); err != nil || got != 1 {
				t.Fatalf("f(3) after the refused allocation = %d, %v; want 1", got, err)
			}
			if ext := ip.RT.Space.Region(sgx.Unsafe).Extent(); ext > 1<<20 {
				t.Errorf("unsafe extent = %d after the refused allocation", ext)
			}
		})
	}
}
