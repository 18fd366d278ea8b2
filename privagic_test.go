package privagic

import (
	"strings"
	"testing"
	"time"

	"privagic/internal/sources"
)

// TestCompileAndRunQuickstart exercises the public API end to end.
func TestCompileAndRunQuickstart(t *testing.T) {
	src := `
ignore long reveal(long color(vault) v);
long color(vault) balance = 0;
entry void deposit(long color(vault) cents) { balance = balance + cents; }
entry long audit() { return reveal(balance); }
`
	prog, err := Compile("wallet.c", src, Options{Mode: Hardened})
	if err != nil {
		t.Fatal(err)
	}
	if got := prog.Colors(); len(got) != 1 || got[0] != "vault" {
		t.Errorf("Colors() = %v, want [vault]", got)
	}
	inst := prog.Instantiate(nil)
	defer inst.Close()
	for _, c := range []int64{500, 125, 75} {
		if _, err := inst.Call("deposit", c); err != nil {
			t.Fatal(err)
		}
	}
	total, err := inst.Call("audit")
	if err != nil {
		t.Fatal(err)
	}
	if total != 700 {
		t.Errorf("audit() = %d, want 700", total)
	}
}

// TestCompileReportsTypeErrors checks error surfacing through the facade.
func TestCompileReportsTypeErrors(t *testing.T) {
	src := `
int color(blue) secret;
int leak;
entry void f() { leak = secret; }
`
	_, err := Compile("leak.c", src, Options{Mode: Hardened})
	if err == nil {
		t.Fatal("expected a confidentiality error")
	}
	if !strings.Contains(err.Error(), "secure typing") {
		t.Errorf("error %v does not come from the type system", err)
	}
}

// TestCheckWithoutPartitioning checks the analysis-only path.
func TestCheckWithoutPartitioning(t *testing.T) {
	an, err := Check("m.c", sources.MemcachedCoreColored, Options{Mode: Hardened})
	if err != nil {
		t.Fatal(err)
	}
	if terr := an.Err(); terr != nil {
		t.Fatalf("memcached core should type-check: %v", terr)
	}
	if len(an.Colors) != 1 || an.Colors[0].Name != "store" {
		t.Errorf("colors = %v, want [store]", an.Colors)
	}
}

// TestTCBReportThroughFacade checks the Table 4 path.
func TestTCBReportThroughFacade(t *testing.T) {
	prog, err := Compile("m.c", sources.MemcachedCoreColored, Options{Mode: Hardened})
	if err != nil {
		t.Fatal(err)
	}
	rep := prog.TCBReport()
	if rep.ReductionFactor() < 50 {
		t.Errorf("TCB reduction = %.0f, want large", rep.ReductionFactor())
	}
}

// TestUnsafeMemoryHelpers checks the buffer-passing helpers.
func TestUnsafeMemoryHelpers(t *testing.T) {
	src := `
entry long first_byte(char* p) { return p[0]; }
`
	prog, err := Compile("b.c", src, Options{Mode: Relaxed})
	if err != nil {
		t.Fatal(err)
	}
	inst := prog.Instantiate(MachineA())
	defer inst.Close()
	addr := inst.AllocUnsafe(16)
	inst.WriteUnsafe(addr, []byte{42, 1, 2})
	got, err := inst.Call("first_byte", int64(addr))
	if err != nil {
		t.Fatal(err)
	}
	if got != 42 {
		t.Errorf("first_byte = %d, want 42", got)
	}
	if b := inst.ReadUnsafe(addr, 3); b[0] != 42 || b[2] != 2 {
		t.Errorf("ReadUnsafe = %v", b)
	}
}

// TestEmitIRDeterministic compiles the memcached core repeatedly and
// requires byte-identical IR text: phi placement and naming must follow
// block order, never map iteration order.
func TestEmitIRDeterministic(t *testing.T) {
	emit := func() string {
		prog, err := Compile("memcached_core.c", sources.MemcachedCoreColored, Options{
			Mode: Relaxed, Entries: []string{"run_ycsb"},
		})
		if err != nil {
			t.Fatal(err)
		}
		return prog.EmitIR()
	}
	want := emit()
	for i := 1; i < 8; i++ {
		if got := emit(); got != want {
			t.Fatalf("compile %d emitted different IR text than compile 0", i)
		}
	}
}

// TestEngineSelection: the zero Options.Engine runs the compiled tier,
// EngineInterp runs no body compiled, and an unknown name fails Compile.
func TestEngineSelection(t *testing.T) {
	const src = `
long total = 0;
entry long add(long x) { total = total + x; return total; }
`
	for _, tc := range []struct {
		engine   Engine
		compiled bool   // some body ran on the compiled tier
		err      string // Compile's error text, "" when it succeeds
	}{
		{engine: "", compiled: true},
		{engine: EngineCompiled, compiled: true},
		{engine: EngineInterp, compiled: false},
		{engine: "jit", err: `privagic: unknown engine "jit" (want "interp", "compiled", or "differential")`},
	} {
		t.Run("engine="+string(tc.engine), func(t *testing.T) {
			prog, err := Compile("add.c", src, Options{Mode: Hardened, Engine: tc.engine})
			if tc.err != "" {
				if err == nil || err.Error() != tc.err {
					t.Fatalf("Compile error = %v, want %q", err, tc.err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			inst := prog.Instantiate(nil)
			defer inst.Close()
			if v, err := inst.Call("add", 5); err != nil || v != 5 {
				t.Fatalf("add(5) = %d, %v; want 5", v, err)
			}
			if got := inst.ExecStats().CompiledDispatches > 0; got != tc.compiled {
				t.Fatalf("compiled dispatches = %d, want compiled=%v",
					inst.ExecStats().CompiledDispatches, tc.compiled)
			}
		})
	}
}

// threadVectorSrc runs step in two application threads at once. With
// the crossing optimizer on, each iteration's three reveals travel as
// one vectored cont whose tag both threads share, so each thread must
// read the vectors its own workers received.
const threadVectorSrc = `
ignore long reveal(long color(red) v);
long color(red) s1; long color(red) s2; long color(red) s3; long out[2];
void step(long id) { long sum = 0; for (long i = 0; i < 3000; i++) {
  long a = reveal(s1 + id * 100000 + i); long b = reveal(s2 + id * 100000 + i);
  long c = reveal(s3 + id * 100000 + i); sum = sum + a + b + c; } out[id] = sum; }
void worker(long id) { step(id); }
entry long run() { thread_create(worker, 1); step(0); thread_join(); return out[0] * 1000 + out[1]; }
`

// threadNestedSrc joins a thread that creates and joins its own child:
// each thread_join waits for its own thread's children, never itself.
const threadNestedSrc = `
long out[4];
void leaf(long id) { out[id] = id * 10; }
void mid(long id) { thread_create(leaf, id + 1); thread_join(); out[id] = 7; }
entry long run() { thread_create(mid, 0); thread_join(); return out[0] + out[1]; }
`

// threadFusedSrc creates its thread in an unsafe function that an
// enclave function calls, the shape the crossing optimizer fuses onto
// the enclave's worker when nothing pins it, and joins it in the
// caller's unsafe code. leafFail makes the child fail instead, which
// the join must return.
const threadFusedSrc = `
long out[2];
long color(red) key;
void leaf(long id) { long s = 0; for (long i = 0; i < 100000; i++) { s = s + i; } out[id] = s; }
void leafFail(long id) { abort(); }
void spawnLeaf(long id) { if (id > 0) { thread_create(leaf, id); } else { thread_create(leafFail, 1); } }
void encStep(long id) { key = key + id; spawnLeaf(id); }
entry long run(long id) { encStep(id); thread_join(); return out[1]; }
`

// threadDeadline bounds every Call and Close of the thread tests, so a
// thread_join that waits for itself fails the test instead of hanging.
const threadDeadline = 10 * time.Second

// runWithin instantiates prog, calls run once with args and closes the
// instance, each under threadDeadline.
func runWithin(t *testing.T, prog *Program, args ...int64) (int64, error) {
	t.Helper()
	inst := prog.Instantiate(nil)
	type result struct {
		v   int64
		err error
	}
	done := make(chan result, 1)
	go func() {
		v, err := inst.Call("run", args...)
		done <- result{v, err}
	}()
	var r result
	select {
	case r = <-done:
	case <-time.After(threadDeadline):
		t.Fatalf("run did not return within %v", threadDeadline)
	}
	closed := make(chan struct{})
	go func() {
		inst.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(threadDeadline):
		t.Fatalf("Close did not return within %v", threadDeadline)
	}
	return r.v, r.err
}

// TestAppThreadsOwnTheirState runs both thread programs on every engine
// with the crossing optimizer on: a received vector belongs to the
// worker that waited for it, and a thread's children to the thread that
// created them.
func TestAppThreadsOwnTheirState(t *testing.T) {
	const instances = 20
	for _, eng := range []Engine{EngineInterp, EngineCompiled, EngineDifferential} {
		t.Run(string(eng), func(t *testing.T) {
			opts := Options{Mode: Relaxed, OptimizeCrossings: true, Engine: eng}
			vec, err := Compile("threadvec.c", threadVectorSrc, opts)
			if err != nil {
				t.Fatal(err)
			}
			if len(vec.CrossingOpt.Coalesced) == 0 {
				t.Fatal("the optimizer coalesced no conts: the program sends no vectors")
			}
			for i := range instances {
				if v, err := runWithin(t, vec); err != nil || v != 14408995500 {
					t.Fatalf("instance %d: run() = %d, %v; want 14408995500", i, v, err)
				}
			}
			nested, err := Compile("threadnest.c", threadNestedSrc, opts)
			if err != nil {
				t.Fatal(err)
			}
			if v, err := runWithin(t, nested); err != nil || v != 17 {
				t.Fatalf("run() = %d, %v; want 17", v, err)
			}
			fused, err := Compile("threadfused.c", threadFusedSrc, opts)
			if err != nil {
				t.Fatal(err)
			}
			if v, err := runWithin(t, fused, 1); err != nil || v != 4999950000 {
				t.Fatalf("run(1) = %d, %v; want 4999950000", v, err)
			}
			if _, err := runWithin(t, fused, 0); err == nil || !strings.Contains(err.Error(), "aborted") {
				t.Fatalf("run(0) = %v; want the child's abort", err)
			}
		})
	}
}
