package faults_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"privagic"
	"privagic/internal/faults"
)

// The differential soak is the acceptance test of the compiled execution
// tier: the same workloads and adversary schedules as the recovery and
// Iago soaks, but every instance runs under the differential oracle —
// the interpreter executes each chunk as the engine of record while the
// compiled shadow re-executes it against the recorded trace, and any
// disagreement (value, boundary crossing, message plan, error text) is a
// hard ErrDivergence. The sweep's contract: across hundreds of chaos and
// Iago schedules, zero divergences. Crashes must still fully recover and
// mutations must still end in the exact answer or a typed violation —
// the oracle may never weaken the guarantees it is auditing.

// diffWorkloads are the two soak programs compiled under the oracle: the
// walkthrough (multi-color spawns, conts, builtin output) and the
// two-color hashmap (split structs, vector crossings, enclave state).
type diffWorkload struct {
	prog  *privagic.Program
	entry string
	check func(ret int64, inst *privagic.Instance) string
}

// diffWorkloadsFor compiles both soak workloads with the differential
// engine and derives each one's expected answer from a clean oracle run
// (which itself must not diverge).
func diffWorkloadsFor(t *testing.T) []diffWorkload {
	t.Helper()
	fig, err := privagic.Compile("figure6.c", figure6Src, privagic.Options{
		Mode: privagic.Relaxed, Entries: []string{"main"},
		Engine: privagic.EngineDifferential,
	})
	if err != nil {
		t.Fatal(err)
	}
	return []diffWorkload{
		{fig, "main", func(ret int64, inst *privagic.Instance) string {
			if ret != 42 {
				return "ret != 42"
			}
			if c := strings.Count(inst.Output(), "Hello"); c != 1 {
				return fmt.Sprintf("g's output appeared %d times, want exactly once", c)
			}
			return ""
		}},
		diffHashmap(t, compileTwoColor(t, false, privagic.EngineDifferential)),
	}
}

// diffHashmap derives the hashmap workload's expected answer from a clean
// oracle run of prog (which itself must not diverge).
func diffHashmap(t *testing.T, prog *privagic.Program) diffWorkload {
	t.Helper()
	clean := prog.Instantiate(nil)
	want, err := clean.Call("run_ycsb")
	divs := clean.ExecStats().OracleDivergences
	clean.Close()
	if err != nil {
		t.Fatalf("clean differential run failed: %v", err)
	}
	if divs != 0 {
		t.Fatalf("clean differential run reported %d divergences", divs)
	}
	if want <= 0 {
		t.Fatalf("clean run returned %d hits; workload is degenerate", want)
	}
	return diffWorkload{prog, "run_ycsb", func(ret int64, _ *privagic.Instance) string {
		if ret != want {
			return "hit count diverged from the clean run"
		}
		return ""
	}}
}

// assertNoDivergence is the soak's core check, applied to every single
// schedule regardless of outcome: the error (if any) must not be — or
// wrap — a divergence, and the instance's divergence counter must be
// zero.
func assertNoDivergence(t *testing.T, seed int64, err error, inst *privagic.Instance) {
	t.Helper()
	if errors.Is(err, privagic.ErrDivergence) {
		t.Fatalf("seed %d: DIVERGENCE: %v", seed, err)
	}
	if n := inst.ExecStats().OracleDivergences; n != 0 {
		t.Fatalf("seed %d: OracleDivergences = %d (err: %v)", seed, n, err)
	}
}

// TestSoakDifferentialChaos sweeps both workloads through the recovery
// soak's crash schedules (entry crashes, mid-body crashes after buffered
// writes, mixes) with recovery enabled and the oracle armed. Every run
// must fully recover to the exact answer — replays re-enter the oracle —
// and no schedule may report a divergence.
func TestSoakDifferentialChaos(t *testing.T) {
	workloads := diffWorkloadsFor(t)
	n := faults.SoakCount(faults.Schedules().DiffChaos, testing.Short())
	var crashes, replays int64
	for seed := int64(1); seed <= int64(n); seed++ {
		c, r := diffChaosSchedule(t, workloads[seed%int64(len(workloads))], seed)
		crashes += c
		replays += r
	}
	t.Logf("differential chaos soak over %d schedules: %d crashes injected, %d replays, zero divergences",
		n, crashes, replays)
	if crashes == 0 {
		t.Error("sweep injected no crashes; the soak proved nothing")
	}
}

// TestSoakDifferentialIago sweeps both workloads through the Iago soak's
// mutator classes (double-fetch flips, pointer smashes, payload
// mutation, the concurrent flipper) on hardened instances running under
// the oracle. Every run must end in the exact answer or a typed error —
// and never a divergence: the boundary seams are compiled-in calls on
// the same interfaces the interpreter uses, so the adversary corrupting
// U memory must present identically to both engines.
func TestSoakDifferentialIago(t *testing.T) {
	workloads := diffWorkloadsFor(t)
	n := faults.SoakCount(faults.Schedules().DiffIago, testing.Short())
	var out iagoOutcome
	for seed := int64(1); seed <= int64(n); seed++ {
		diffIagoSchedule(t, workloads[seed%int64(len(workloads))], seed, &out)
	}
	t.Logf("differential iago soak over %d schedules: %d exact, %d violations, %d timeouts, %d aborts, %d stopped; %d mutations, %d pointer detections, %d payload rejections; zero divergences",
		n, out.correct, out.violations, out.timeouts, out.aborts, out.stopped, out.mutations, out.memDetections, out.payloadDetections)
	if out.mutations == 0 {
		t.Error("sweep injected no mutations; the soak proved nothing")
	}
	if out.correct == 0 {
		t.Error("no schedule reached the exact answer; even dormant-adversary seeds derailed")
	}
}

// diffChaosSchedule runs one crash schedule of wl under the oracle with
// recovery on; the run must recover to the exact answer with no
// divergence. It returns the crashes injected and the replays run.
func diffChaosSchedule(t *testing.T, wl diffWorkload, seed int64) (crashes, replays int64) {
	t.Helper()
	inst := wl.prog.Instantiate(nil)
	inst.EnableSpawnValidation()
	inst.EnableSupervision(privagic.SupervisionOptions{WaitTimeout: recoveryWaitTimeout})
	inst.EnableRecovery(privagic.RecoveryOptions{MaxAttempts: recoveryBudget})
	inst.EnableFaultInjection(recoveryFaultsFor(seed))

	res := callWithDeadline(t, inst, wl.entry, seed, func() string {
		return fmt.Sprintf("faults: %+v, recovery: %+v", inst.FaultStats(), inst.RecoveryStats())
	})
	assertNoDivergence(t, seed, res.err, inst)
	fs, rs := inst.FaultStats(), inst.RecoveryStats()
	if res.err != nil {
		t.Fatalf("seed %d: USER-VISIBLE ERROR despite recovery: %v (faults: %+v, recovery: %+v)",
			seed, res.err, fs, rs)
	}
	if msg := wl.check(res.ret, inst); msg != "" {
		t.Fatalf("seed %d: WRONG ANSWER under the oracle: %s (faults: %+v, recovery: %+v)",
			seed, msg, fs, rs)
	}
	inst.Close()
	return fs.Crashes, rs.Replays
}

// diffIagoSchedule runs one mutator schedule of wl under the oracle on a
// hardened instance; the run must end in the exact answer or a typed
// error, with no divergence.
func diffIagoSchedule(t *testing.T, wl diffWorkload, seed int64, out *iagoOutcome) {
	t.Helper()
	cl := iagoClassFor(seed)
	inst := wl.prog.Instantiate(nil)
	inst.EnableSpawnValidation()
	inst.EnableSupervision(privagic.SupervisionOptions{WaitTimeout: soakWaitTimeout})
	inst.EnableBoundaryDefense(cl.def)
	inst.EnableMutator(cl.mut)

	res := callWithDeadline(t, inst, wl.entry, seed, func() string {
		return fmt.Sprintf("mutator: %+v, boundary: %+v", inst.MutatorStats(), inst.BoundaryStats())
	})
	assertNoDivergence(t, seed, res.err, inst)
	ms, bs := inst.MutatorStats(), inst.BoundaryStats()
	switch {
	case res.err == nil:
		if msg := wl.check(res.ret, inst); msg != "" {
			t.Fatalf("seed %d: SILENT WRONG ANSWER under the oracle: %s (mutator: %+v, boundary: %+v)",
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
		t.Fatalf("seed %d: untyped failure %v (mutator: %+v, boundary: %+v)", seed, res.err, ms, bs)
	}
	out.mutations += ms.Total()
	out.memDetections += bs.Violations
	out.payloadDetections += bs.PayloadTampered
	inst.Close()
}

// TestSoakDifferentialOptimized sweeps the hashmap compiled with the
// crossing optimizer on, as the benchmark compiles it, under the oracle:
// each seed runs the chaos soak's crash schedule and the Iago soak's
// mutator class of that seed. Every run must end in the exact answer
// (or, under the mutator, a typed error) with zero divergences.
func TestSoakDifferentialOptimized(t *testing.T) {
	wl := diffHashmap(t, compileTwoColor(t, true, privagic.EngineDifferential))
	n := faults.SoakCount(faults.Schedules().DiffOptimized, testing.Short())
	var crashes, replays int64
	var out iagoOutcome
	for seed := int64(1); seed <= int64(n); seed++ {
		c, r := diffChaosSchedule(t, wl, seed)
		crashes += c
		replays += r
		diffIagoSchedule(t, wl, seed, &out)
	}
	t.Logf("optimized differential soak over %d seeds: %d crashes, %d replays; %d exact, %d violations, %d timeouts, %d aborts, %d stopped under %d mutations; zero divergences",
		n, crashes, replays, out.correct, out.violations, out.timeouts, out.aborts, out.stopped, out.mutations)
	if crashes == 0 {
		t.Error("crash schedules injected no crashes; the soak proved nothing")
	}
	if out.mutations == 0 {
		t.Error("mutator schedules injected no mutations; the soak proved nothing")
	}
	if out.correct == 0 {
		t.Error("no mutator schedule reached the exact answer; even dormant-adversary seeds derailed")
	}
}
