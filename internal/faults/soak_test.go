package faults_test

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"privagic"
	"privagic/internal/faults"
	"privagic/internal/sources"
)

// The soak is the acceptance test of the robustness work: the figure-6
// walkthrough and the two-color hashmap run under 1000+ seeded fault
// schedules (drops with and without retransmit, duplicates, delays,
// reorders, forgeries, injected crashes), and every single run must either
// produce the exact correct answer or return one of the typed supervision
// errors. A hang is a deadlock (caught by a per-run deadline); a wrong
// ret with a nil error is a silent corruption. Both fail the suite.

// figure6Src is the paper's Figure 6 example (examples/figure6 runs the
// annotated walkthrough of the same program).
const figure6Src = `
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
`

// soakWaitTimeout bounds every runtime wait during the soak. Held
// (delayed/reordered) messages are force-flushed on a ~5ms wall-clock
// bound, so a comfortably larger timeout keeps benign delays from reading
// as losses while a genuine loss still fails fast.
const soakWaitTimeout = 15 * time.Millisecond

// faultClassFor derives one of four fault classes plus jittered
// probabilities from the schedule seed:
//
//	seed%4 == 0: lossy transport with retransmission (must mostly succeed)
//	seed%4 == 1: permanent loss (timeouts are the expected failure)
//	seed%4 == 2: crashing enclaves (aborts are the expected failure)
//	seed%4 == 3: noisy but lossless (duplicates/delays/reorders/forgeries)
func faultClassFor(seed int64) privagic.FaultOptions {
	r := rand.New(rand.NewSource(seed * 7919))
	o := privagic.FaultOptions{
		Seed:      seed,
		Duplicate: 0.01 + 0.03*r.Float64(),
		Delay:     0.01 + 0.03*r.Float64(),
		Reorder:   0.01 + 0.03*r.Float64(),
		Forge:     0.01 + 0.02*r.Float64(),
	}
	switch seed % 4 {
	case 0:
		o.Drop = 0.005 + 0.015*r.Float64()
		o.Retransmit = true
		o.RetransmitAfter = time.Millisecond
	case 1:
		o.Drop = 0.002 + 0.006*r.Float64()
	case 2:
		o.Crash = 0.002 + 0.008*r.Float64()
	}
	return o
}

// callResult is what one soak call returned.
type callResult struct {
	ret int64
	err error
}

// callWithDeadline runs inst.Call(entry) for one schedule. A call still
// running after 10s is a deadlock: before failing the test with the
// DEADLOCK message and the caller's stats, it logs every goroutine's
// stack and the instance's trace, so the report names the wait that
// never ended.
func callWithDeadline(t *testing.T, inst *privagic.Instance, entry string, seed int64, stats func() string) callResult {
	t.Helper()
	done := make(chan callResult, 1)
	go func() {
		ret, err := inst.Call(entry)
		done <- callResult{ret, err}
	}()
	select {
	case res := <-done:
		return res
	case <-time.After(10 * time.Second):
	}
	logState(t, inst, seed, "at the deadline")
	t.Fatalf("seed %d: DEADLOCK: call did not complete in 10s (%s)", seed, stats())
	return callResult{}
}

// logState logs every goroutine's stack and the instance's trace. Every
// fatal soak path calls it before failing, so the report names the wait
// or message that led there.
func logState(t *testing.T, inst *privagic.Instance, seed int64, when string) {
	t.Helper()
	stacks := make([]byte, 4<<20)
	stacks = stacks[:runtime.Stack(stacks, true)]
	t.Logf("seed %d: goroutines %s:\n%s", seed, when, stacks)
	t.Logf("seed %d: trace %s (empty when tracing is off):\n%s", seed, when, inst.TraceDump(256))
}

// soakOutcome tallies how a schedule sweep ended.
type soakOutcome struct {
	correct, timeouts, aborts, stopped int
}

// runSchedule executes one entry call on a fresh instance under one fault
// schedule and classifies the outcome. check validates a successful ret.
func runSchedule(t *testing.T, prog *privagic.Program, entry string, seed int64,
	check func(ret int64, inst *privagic.Instance) string, out *soakOutcome) {
	t.Helper()
	inst := prog.Instantiate(nil)
	defer inst.Close()
	inst.EnableSpawnValidation()
	inst.EnableSupervision(privagic.SupervisionOptions{WaitTimeout: soakWaitTimeout})
	inst.EnableFaultInjection(faultClassFor(seed))

	res := callWithDeadline(t, inst, entry, seed, func() string {
		return fmt.Sprintf("faults: %+v", inst.FaultStats())
	})
	switch {
	case res.err == nil:
		if msg := check(res.ret, inst); msg != "" {
			t.Fatalf("seed %d: SILENT WRONG ANSWER: %s (faults: %+v, supervision: %+v)",
				seed, msg, inst.FaultStats(), inst.SupervisionStats())
		}
		out.correct++
	case errors.Is(res.err, privagic.ErrWaitTimeout):
		out.timeouts++
	case errors.Is(res.err, privagic.ErrEnclaveAbort):
		out.aborts++
	case errors.Is(res.err, privagic.ErrStopped):
		out.stopped++
	default:
		logState(t, inst, seed, "at the failure")
		t.Fatalf("seed %d: untyped failure %v (faults: %+v)", seed, res.err, inst.FaultStats())
	}
}

// TestSoakFigure6 sweeps the paper's walkthrough program through seeded
// fault schedules.
func TestSoakFigure6(t *testing.T) {
	prog, err := privagic.Compile("figure6.c", figure6Src, privagic.Options{
		Mode: privagic.Relaxed, Entries: []string{"main"},
	})
	if err != nil {
		t.Fatal(err)
	}
	n := faults.SoakCount(faults.Schedules().Figure6, testing.Short())
	var out soakOutcome
	for seed := int64(1); seed <= int64(n); seed++ {
		runSchedule(t, prog, "main", seed, func(ret int64, inst *privagic.Instance) string {
			if ret != 42 {
				return "ret != 42"
			}
			if !strings.Contains(inst.Output(), "Hello") {
				return "completed without g's output"
			}
			return ""
		}, &out)
	}
	t.Logf("figure6 soak over %d schedules: %d correct, %d timeouts, %d aborts, %d stopped",
		n, out.correct, out.timeouts, out.aborts, out.stopped)
	if out.correct < n/2 {
		t.Errorf("only %d/%d schedules completed correctly; fault rates drown the protocol", out.correct, n)
	}
}

// TestSoakTwoColorHashmap sweeps the §9.3 two-color hashmap (red keys,
// blue values, declassified comparisons) — the workload where a silently
// corrupted message would flip the hit count.
func TestSoakTwoColorHashmap(t *testing.T) {
	prog, err := privagic.Compile("hashmap2.c", sources.HashmapColored2, privagic.Options{
		Mode: privagic.Relaxed, Entries: []string{"run_ycsb"},
	})
	if err != nil {
		t.Fatal(err)
	}
	// The ground truth comes from one clean (fault-free) run.
	clean := prog.Instantiate(nil)
	want, err := clean.Call("run_ycsb")
	clean.Close()
	if err != nil {
		t.Fatalf("clean run failed: %v", err)
	}
	if want <= 0 {
		t.Fatalf("clean run returned %d hits; workload is degenerate", want)
	}
	n := faults.SoakCount(faults.Schedules().TwoColor, testing.Short())
	var out soakOutcome
	for seed := int64(1); seed <= int64(n); seed++ {
		runSchedule(t, prog, "run_ycsb", seed, func(ret int64, _ *privagic.Instance) string {
			if ret != want {
				return "hit count diverged from the clean run"
			}
			return ""
		}, &out)
	}
	t.Logf("two-color soak over %d schedules (want %d hits): %d correct, %d timeouts, %d aborts, %d stopped",
		n, want, out.correct, out.timeouts, out.aborts, out.stopped)
	// Classes 0 (lossy with retransmission) and 3 (noisy but lossless)
	// are half the seeds and should almost always recover to the exact
	// answer; a third of all schedules is a conservative floor for that.
	if out.correct < n/3 {
		t.Errorf("only %d/%d schedules completed correctly; recovery classes should dominate", out.correct, n)
	}
}
