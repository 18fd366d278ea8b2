package faults_test

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"privagic"
	"privagic/internal/faults"
	"privagic/internal/sources"
)

// The Iago soak is the acceptance test of the runtime boundary defense:
// seeded schedules of the U-memory mutator adversary (double-fetch flips,
// pointer smashes, in-place payload mutation) against hardened instances.
// The contract asserted on every single schedule: the run ends in the
// exact correct answer or a typed error (ErrIagoViolation, a supervision
// timeout from a rejected message, an abort, a shutdown) — never a silent
// wrong answer, never an untyped failure, never a host crash. The relaxed
// negative control at the bottom shows the same adversary corrupting an
// undefended instance without tripping a single detector.

// iagoClass is one seeded attack schedule: which defenses are armed and
// what the mutator does.
type iagoClass struct {
	def privagic.BoundaryDefenseOptions
	mut privagic.MutatorOptions
}

// iagoClassFor derives one of four attack classes plus jittered
// probabilities from the schedule seed:
//
//	seed%4 == 0: memory attacker — double-fetch flips + pointer smashes
//	             (full defense; snapshots defeat the flips, the sanitizer
//	             answers the smashes)
//	seed%4 == 1: queue attacker — in-place payload mutation plus light
//	             flips (full defense; payload tags reject at the gate)
//	seed%4 == 2: sanitizer in isolation — snapshots disarmed, smash-only
//	             (a flip would be silently re-read without the snapshot
//	             layer, so this class probes only the pointer defense)
//	seed%4 == 3: everything at once (full defense)
//
// Every eighth seed of the memory classes adds the concurrent flipper so
// corruption timing is not purely synchronous with the loads. About one
// seed in seven keeps the adversary dormant (all probabilities zero):
// those schedules pin the other half of the hardened contract — with
// nothing attacking, the defended instance must reach the exact answer.
func iagoClassFor(seed int64) iagoClass {
	r := rand.New(rand.NewSource(seed * 6151))
	c := iagoClass{def: privagic.FullBoundaryDefense()}
	c.mut.Seed = seed
	if seed%7 == 0 {
		return c
	}
	switch seed % 4 {
	case 0:
		c.mut.FlipAfterRead = 0.05 + 0.25*r.Float64()
		c.mut.SmashPointers = 0.02 + 0.10*r.Float64()
		c.mut.Concurrent = seed%8 == 0
	case 1:
		c.mut.MutatePayload = 0.02 + 0.10*r.Float64()
		c.mut.FlipAfterRead = 0.02 + 0.05*r.Float64()
	case 2:
		c.def = privagic.BoundaryDefenseOptions{SanitizePointers: true, PayloadTags: true}
		c.mut.SmashPointers = 0.05 + 0.20*r.Float64()
	default:
		c.mut.FlipAfterRead = 0.03 + 0.12*r.Float64()
		c.mut.SmashPointers = 0.01 + 0.06*r.Float64()
		c.mut.MutatePayload = 0.01 + 0.06*r.Float64()
		c.mut.Concurrent = seed%8 == 7
	}
	return c
}

// iagoOutcome tallies a hardened sweep.
type iagoOutcome struct {
	correct, violations, timeouts, aborts, stopped int
	mutations, memDetections, payloadDetections    int64
}

// runIagoSchedule executes one entry call on a hardened instance under one
// mutator schedule and classifies the outcome. check validates a
// successful ret — under the hardened contract, err == nil admits no slack
// at all.
func runIagoSchedule(t *testing.T, prog *privagic.Program, entry string, seed int64,
	check func(ret int64, inst *privagic.Instance) string, out *iagoOutcome) {
	t.Helper()
	cl := iagoClassFor(seed)
	inst := prog.Instantiate(nil)
	defer inst.Close()
	inst.EnableSpawnValidation()
	inst.EnableSupervision(privagic.SupervisionOptions{WaitTimeout: soakWaitTimeout})
	inst.EnableBoundaryDefense(cl.def)
	inst.EnableMutator(cl.mut)

	res := callWithDeadline(t, inst, entry, seed, func() string {
		return fmt.Sprintf("mutator: %+v, boundary: %+v", inst.MutatorStats(), inst.BoundaryStats())
	})
	ms, bs := inst.MutatorStats(), inst.BoundaryStats()
	switch {
	case res.err == nil:
		if msg := check(res.ret, inst); msg != "" {
			t.Fatalf("seed %d: SILENT WRONG ANSWER in hardened mode: %s (mutator: %+v, boundary: %+v)",
				seed, msg, ms, bs)
		}
		out.correct++
	case errors.Is(res.err, privagic.ErrIagoViolation):
		out.violations++
	case errors.Is(res.err, privagic.ErrWaitTimeout):
		out.timeouts++
	case errors.Is(res.err, privagic.ErrEnclaveAbort):
		out.aborts++
	case errors.Is(res.err, privagic.ErrStopped):
		out.stopped++
	default:
		logState(t, inst, seed, "at the failure")
		t.Fatalf("seed %d: untyped failure %v (mutator: %+v, boundary: %+v)", seed, res.err, ms, bs)
	}
	out.mutations += ms.Total()
	out.memDetections += bs.Violations
	out.payloadDetections += bs.PayloadTampered
}

// TestSoakIagoFigure6 sweeps the walkthrough program. It has no enclave
// pointers resident in U (no split structs), so the adversary's leverage
// is flips and payload mutation — both fully covered — and the sweep
// should overwhelmingly reach the exact answer.
func TestSoakIagoFigure6(t *testing.T) {
	prog, err := privagic.Compile("figure6.c", figure6Src, privagic.Options{
		Mode: privagic.Relaxed, Entries: []string{"main"},
	})
	if err != nil {
		t.Fatal(err)
	}
	n := faults.SoakCount(faults.Schedules().IagoFigure6, testing.Short())
	var out iagoOutcome
	for seed := int64(1); seed <= int64(n); seed++ {
		runIagoSchedule(t, prog, "main", seed, func(ret int64, inst *privagic.Instance) string {
			if ret != 42 {
				return "ret != 42"
			}
			if !strings.Contains(inst.Output(), "Hello") {
				return "completed without g's output"
			}
			return ""
		}, &out)
	}
	t.Logf("figure6 iago soak over %d schedules: %d exact, %d violations, %d timeouts, %d aborts, %d stopped; %d mutations injected, %d payload rejections",
		n, out.correct, out.violations, out.timeouts, out.aborts, out.stopped, out.mutations, out.payloadDetections)
	if out.mutations == 0 {
		t.Error("sweep injected no mutations; the soak proved nothing")
	}
	if out.correct < n/2 {
		t.Errorf("only %d/%d schedules reached the exact answer; the defense overhead should not drown the protocol", out.correct, n)
	}
}

// TestSoakIagoTwoColorHashmap sweeps the two-color hashmap — the workload
// whose U-resident split-struct slots give the pointer smasher real
// targets, and whose hit count a single silently corrupted word would
// flip.
func TestSoakIagoTwoColorHashmap(t *testing.T) {
	soakIagoTwoColor(t, compileTwoColor(t, false, privagic.EngineCompiled), faults.SoakCount(faults.Schedules().IagoTwoColor, testing.Short()))
}

// TestSoakIagoTwoColorHashmapOptimized runs the same sweep over the
// hashmap compiled with the crossing optimizer on, as the benchmark
// compiles it: its consumers now walk their chains after the producer's
// walk, so a flipped U word may be read at a different moment than in
// lockstep, and the answer must still be exact or a typed error.
func TestSoakIagoTwoColorHashmapOptimized(t *testing.T) {
	soakIagoTwoColor(t, compileTwoColor(t, true, privagic.EngineCompiled), faults.SoakCount(faults.Schedules().IagoTwoColorOptimized, testing.Short()))
}

// soakIagoTwoColor sweeps one build of the hashmap through n mutator
// schedules.
func soakIagoTwoColor(t *testing.T, prog *privagic.Program, n int) {
	t.Helper()
	clean := prog.Instantiate(nil)
	want, err := clean.Call("run_ycsb")
	clean.Close()
	if err != nil {
		t.Fatalf("clean run failed: %v", err)
	}
	if want <= 0 {
		t.Fatalf("clean run returned %d hits; workload is degenerate", want)
	}
	var out iagoOutcome
	for seed := int64(1); seed <= int64(n); seed++ {
		runIagoSchedule(t, prog, "run_ycsb", seed, func(ret int64, _ *privagic.Instance) string {
			if ret != want {
				return "hit count diverged from the clean run"
			}
			return ""
		}, &out)
	}
	t.Logf("two-color iago soak over %d schedules (want %d hits): %d exact, %d violations, %d timeouts, %d aborts, %d stopped; %d mutations, %d pointer detections, %d payload rejections",
		n, want, out.correct, out.violations, out.timeouts, out.aborts, out.stopped, out.mutations, out.memDetections, out.payloadDetections)
	if out.mutations == 0 {
		t.Error("sweep injected no mutations; the soak proved nothing")
	}
	if out.memDetections == 0 {
		t.Error("no pointer smash was ever detected; the sanitizer classes exercised nothing")
	}
	if out.correct == 0 {
		t.Error("no schedule reached the exact answer; even light classes always derailed")
	}
}

// TestIagoRelaxedNegativeControl runs the same adversary classes against
// undefended instances: mutations land freely and not one detector trips.
// Wrong answers and garbled failures are expected here — they are the
// point: the attack is real, and only the defense layer stands between it
// and the hardened guarantee.
func TestIagoRelaxedNegativeControl(t *testing.T) {
	prog, err := privagic.Compile("hashmap2.c", sources.HashmapColored2, privagic.Options{
		Mode: privagic.Relaxed, Entries: []string{"run_ycsb"},
	})
	if err != nil {
		t.Fatal(err)
	}
	clean := prog.Instantiate(nil)
	want, err := clean.Call("run_ycsb")
	clean.Close()
	if err != nil {
		t.Fatalf("clean run failed: %v", err)
	}
	const n = 16
	var mutations int64
	var wrong, errored, wedged int
	for seed := int64(1); seed <= n; seed++ {
		cl := iagoClassFor(seed)
		inst := prog.Instantiate(nil)
		inst.EnableSupervision(privagic.SupervisionOptions{WaitTimeout: soakWaitTimeout})
		inst.EnableMutator(cl.mut) // no EnableBoundaryDefense: relaxed
		type result struct {
			ret int64
			err error
		}
		done := make(chan result, 1)
		go func() {
			ret, err := inst.Call("run_ycsb")
			done <- result{ret, err}
		}()
		select {
		case res := <-done:
			if errors.Is(res.err, privagic.ErrIagoViolation) {
				t.Fatalf("seed %d: undefended run surfaced ErrIagoViolation: %v", seed, res.err)
			}
			switch {
			case res.err != nil:
				errored++
			case res.ret != want:
				wrong++
			}
		case <-time.After(5 * time.Second):
			wedged++ // chasing corrupted memory wedged the run; fair game
		}
		bs := inst.BoundaryStats()
		if bs.Violations != 0 || bs.PayloadTampered != 0 {
			t.Fatalf("seed %d: undefended run detected something: %+v", seed, bs)
		}
		mutations += inst.MutatorStats().Total()
		inst.Close()
	}
	t.Logf("relaxed negative control over %d schedules: %d mutations injected, zero detected; %d silently wrong, %d errored, %d wedged",
		n, mutations, wrong, errored, wedged)
	if mutations == 0 {
		t.Fatal("control injected no mutations; it proved nothing")
	}
	if wrong+errored+wedged == 0 {
		t.Log("note: every undefended run still answered correctly; corruption landed outside the consumed data")
	}
}
