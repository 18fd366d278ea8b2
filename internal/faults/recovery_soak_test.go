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

// The recovery soak is the acceptance test of the recovery layer: the same
// two workloads as the supervision soak, but every schedule injects crashes
// (at chunk entry, mid-body after buffered writes, or both) capped at the
// replay budget — so every single run must recover to the exact correct
// answer with a nil error. On top of correctness, each run is audited for
// the exactly-once invariants: no spawn gives up, every journaled spawn
// commits exactly once, every injected crash is answered by exactly one
// replay, and no crashed attempt's buffered effects leak.
//
// Each sweep runs its schedules twice: under the supervision window, and
// with no window at all, where only the failure channel (a crashed
// chunk's Done ends the waits it starves) can end a wait. A third pass
// lets the crashes outnumber the replay budget, again with no window:
// every Call must then return the exact answer or ErrEnclaveAbort, and
// never hang.

// recoveryBudget is both the per-spawn replay budget and the per-run crash
// cap. Cap <= budget is what makes recovery deterministic: even if every
// crash lands on the same spawn, its attempts never exhaust.
const recoveryBudget = 3

// recoveryWaitTimeout bounds runtime waits during the recovery soak.
// Crash-only schedules never lose a message, so unlike the supervision
// soak's tight budget (where a timeout is an *expected* outcome of a
// dropped cont) this timeout is purely a lost-wakeup guard: it must sit
// well above scheduler noise — delays past 100ms have been observed on
// loaded CI machines — or benign preemption reads as a recovery failure.
const recoveryWaitTimeout = 250 * time.Millisecond

// recoveryFaultsFor derives a crash-only schedule from the seed: entry
// crashes, mid-run crashes (the case that needs effect buffering), or a mix.
func recoveryFaultsFor(seed int64) privagic.FaultOptions {
	r := rand.New(rand.NewSource(seed * 104729))
	o := privagic.FaultOptions{Seed: seed, MaxCrashes: recoveryBudget}
	switch seed % 3 {
	case 0:
		o.Crash = 0.05 + 0.2*r.Float64()
	case 1:
		o.CrashMid = 0.02 + 0.08*r.Float64()
	default:
		o.Crash = 0.03 + 0.1*r.Float64()
		o.CrashMid = 0.01 + 0.04*r.Float64()
	}
	return o
}

// recoveryTotals aggregates the audit counters over a sweep.
type recoveryTotals struct {
	crashes, replays, discards, giveups int64
}

// recoveryInstance instantiates prog for one crash schedule with recovery
// on, under the given wait window (0 = none) and boundary defense (the
// zero value arms none).
func recoveryInstance(prog *privagic.Program, def privagic.BoundaryDefenseOptions, window time.Duration,
	maxAttempts int, faults privagic.FaultOptions) *privagic.Instance {
	inst := prog.Instantiate(nil)
	inst.EnableSpawnValidation()
	inst.EnableBoundaryDefense(def)
	inst.EnableSupervision(privagic.SupervisionOptions{WaitTimeout: window})
	inst.EnableRecovery(privagic.RecoveryOptions{MaxAttempts: maxAttempts})
	inst.EnableFaultInjection(faults)
	return inst
}

// runRecoverySchedule executes one entry call under one crash schedule with
// recovery enabled and asserts full recovery plus the journal invariants.
func runRecoverySchedule(t *testing.T, prog *privagic.Program, def privagic.BoundaryDefenseOptions, entry string,
	seed int64, window time.Duration, check func(ret int64, inst *privagic.Instance) string, tot *recoveryTotals) {
	t.Helper()
	inst := recoveryInstance(prog, def, window, recoveryBudget, recoveryFaultsFor(seed))
	defer inst.Close()

	res := callWithDeadline(t, inst, entry, seed, func() string {
		return fmt.Sprintf("faults: %+v, recovery: %+v", inst.FaultStats(), inst.RecoveryStats())
	})
	fs, rs := inst.FaultStats(), inst.RecoveryStats()
	if res.err != nil {
		logState(t, inst, seed, "at the failure")
		t.Fatalf("seed %d: USER-VISIBLE ERROR despite recovery: %v (faults: %+v, recovery: %+v)",
			seed, res.err, fs, rs)
	}
	if msg := check(res.ret, inst); msg != "" {
		t.Fatalf("seed %d: WRONG ANSWER after recovery: %s (faults: %+v, recovery: %+v)",
			seed, msg, fs, rs)
	}
	// Exactly-once audit. Every injected crash aborts one attempt and is
	// answered by exactly one replay; every journaled spawn commits exactly
	// once (a commit gap means a lost effect, an excess means double
	// application); nothing may run out of budget with the cap <= budget.
	if rs.Giveups != 0 {
		t.Fatalf("seed %d: %d spawns exhausted the replay budget (faults: %+v)", seed, rs.Giveups, fs)
	}
	if rs.Commits != rs.SpawnsJournaled {
		t.Fatalf("seed %d: %d journaled spawns but %d commits (faults: %+v, recovery: %+v)",
			seed, rs.SpawnsJournaled, rs.Commits, fs, rs)
	}
	if rs.Replays != fs.Crashes {
		t.Fatalf("seed %d: %d crashes injected but %d replays performed (recovery: %+v)",
			seed, fs.Crashes, rs.Replays, rs)
	}
	// Only mid-run crashes open (and then discard) an effect transaction.
	if rs.EffectDiscards > fs.Crashes {
		t.Fatalf("seed %d: %d effect discards for %d crashes", seed, rs.EffectDiscards, fs.Crashes)
	}
	tot.crashes += fs.Crashes
	tot.replays += rs.Replays
	tot.discards += rs.EffectDiscards
}

// runSpentSchedule executes one entry call with no wait window under a
// crash schedule that may outlast the replay budget: more crashes than
// attempts. The Call must return the exact answer or ErrEnclaveAbort.
func runSpentSchedule(t *testing.T, prog *privagic.Program, def privagic.BoundaryDefenseOptions, entry string,
	seed int64, check func(ret int64, inst *privagic.Instance) string, tot *recoveryTotals) {
	t.Helper()
	o := recoveryFaultsFor(seed)
	o.MaxCrashes = 2 * recoveryBudget
	inst := recoveryInstance(prog, def, 0, 1, o)
	defer inst.Close()

	res := callWithDeadline(t, inst, entry, seed, func() string {
		return fmt.Sprintf("faults: %+v, recovery: %+v", inst.FaultStats(), inst.RecoveryStats())
	})
	fs, rs := inst.FaultStats(), inst.RecoveryStats()
	switch {
	case res.err == nil:
		if msg := check(res.ret, inst); msg != "" {
			t.Fatalf("seed %d: WRONG ANSWER with the budget spent: %s (faults: %+v, recovery: %+v)",
				seed, msg, fs, rs)
		}
	case !errors.Is(res.err, privagic.ErrEnclaveAbort):
		logState(t, inst, seed, "at the failure")
		t.Fatalf("seed %d: %v with the budget spent, want the answer or ErrEnclaveAbort (faults: %+v, recovery: %+v)",
			seed, res.err, fs, rs)
	case rs.Giveups == 0:
		t.Fatalf("seed %d: ErrEnclaveAbort but no spawn gave up (faults: %+v, recovery: %+v)", seed, fs, rs)
	}
	tot.crashes += fs.Crashes
	tot.giveups += rs.Giveups
}

// sweepRecovery runs seeds 1..n of the recovery soak for one workload,
// with the boundary defense def armed: the capped schedules under the
// supervision window and with none, then the spent-budget schedules with
// none.
func sweepRecovery(t *testing.T, prog *privagic.Program, def privagic.BoundaryDefenseOptions, entry string, n int,
	check func(ret int64, inst *privagic.Instance) string) {
	t.Helper()
	for _, window := range []time.Duration{recoveryWaitTimeout, 0} {
		var tot recoveryTotals
		for seed := int64(1); seed <= int64(n); seed++ {
			runRecoverySchedule(t, prog, def, entry, seed, window, check, &tot)
		}
		t.Logf("%s recovery soak over %d schedules, window %v: %d crashes injected, %d replays, %d effect discards — all recovered",
			entry, n, window, tot.crashes, tot.replays, tot.discards)
		if tot.crashes == 0 {
			t.Errorf("window %v: sweep injected no crashes; the soak proved nothing", window)
		}
	}
	var tot recoveryTotals
	for seed := int64(1); seed <= int64(n); seed++ {
		runSpentSchedule(t, prog, def, entry, seed, check, &tot)
	}
	t.Logf("%s spent-budget soak over %d schedules, no window: %d crashes injected, %d spawns gave up",
		entry, n, tot.crashes, tot.giveups)
	if tot.giveups == 0 {
		t.Error("spent-budget sweep exhausted no budget; the soak proved nothing")
	}
}

// TestSoakRecoveryFigure6 sweeps the walkthrough program through crash
// schedules with recovery on: ret must be 42 with g's output printed
// exactly once, every time.
func TestSoakRecoveryFigure6(t *testing.T) {
	prog, err := privagic.Compile("figure6.c", figure6Src, privagic.Options{
		Mode: privagic.Relaxed, Entries: []string{"main"},
	})
	if err != nil {
		t.Fatal(err)
	}
	n := faults.SoakCount(faults.Schedules().RecoveryFigure6, testing.Short())
	sweepRecovery(t, prog, privagic.BoundaryDefenseOptions{}, "main", n, func(ret int64, inst *privagic.Instance) string {
		if ret != 42 {
			return "ret != 42"
		}
		if c := strings.Count(inst.Output(), "Hello"); c != 1 {
			return fmt.Sprintf("g's output appeared %d times, want exactly once", c)
		}
		return ""
	})
}

// TestSoakRecoveryTwoColorHashmap sweeps the two-color hashmap — the
// workload whose enclave state a double-applied or lost replay effect
// would silently corrupt — through crash schedules with recovery on.
func TestSoakRecoveryTwoColorHashmap(t *testing.T) {
	prog := compileTwoColor(t, false, privagic.EngineCompiled)
	soakRecoveryTwoColor(t, prog, faults.SoakCount(faults.Schedules().RecoveryTwoColor, testing.Short()))
}

// TestSoakRecoveryTwoColorHashmapOptimized runs the same sweep over the
// hashmap compiled as the benchmark compiles it, with the crossing
// optimizer on: a crash may now land in a walk whose cont was sunk to
// the loop's exit, and the replay must still end in the exact answer.
func TestSoakRecoveryTwoColorHashmapOptimized(t *testing.T) {
	prog := compileTwoColor(t, true, privagic.EngineCompiled)
	soakRecoveryTwoColor(t, prog, faults.SoakCount(faults.Schedules().RecoveryTwoColorOptimized, testing.Short()))
}

// compileTwoColor compiles the two-color hashmap's run_ycsb in relaxed
// mode on the given engine, with or without the crossing optimizer. The
// optimized build must sink the search loops' conts, or its sweeps would
// not cover the rewrite.
func compileTwoColor(t *testing.T, optimize bool, engine privagic.Engine) *privagic.Program {
	t.Helper()
	prog, err := privagic.Compile("hashmap2.c", sources.HashmapColored2, privagic.Options{
		Mode: privagic.Relaxed, Entries: []string{"run_ycsb"},
		OptimizeCrossings: optimize, Engine: engine,
	})
	if err != nil {
		t.Fatal(err)
	}
	if optimize && len(prog.CrossingOpt.Sunk) == 0 {
		t.Fatalf("the optimizer sank no loop cont (%s)", prog.CrossingOpt.Summary())
	}
	return prog
}

// soakRecoveryTwoColor sweeps one build of the hashmap through n crash
// schedules; every run must return the clean run's hit count.
func soakRecoveryTwoColor(t *testing.T, prog *privagic.Program, n int) {
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
	sweepRecovery(t, prog, privagic.BoundaryDefenseOptions{}, "run_ycsb", n, func(ret int64, _ *privagic.Instance) string {
		if ret != want {
			return "hit count diverged from the clean run"
		}
		return ""
	})
}

// memcachedBatchSrc is the memcached core plus one 300-op batch entry,
// the shape of the benchmark's batches. Its store chunk sends nothing
// before its Done, so the sweep replays a leaf: a replay runs fresh, and
// the answer counts hits and inserts, so a lost or double-applied insert
// shows in it.
const memcachedBatchSrc = sources.MemcachedCoreColored + `
entry long soak_batch() {
	long seed = 7;
	long hits = 0;
	for (long i = 0; i < 300; i++) {
		seed = (seed * 1103515245 + 12345) & 2147483647;
		long key = (seed >> 12) & 255;
		if (((seed >> 24) & 1) == 0) { mc_set(key, inbuf); }
		else { hits = hits + mc_get(key); }
	}
	return hits * 100000 + mc_items();
}
`

// TestSoakRecoveryMemcachedBatch sweeps a hardened memcached batch, with
// every boundary defense armed, through the crash schedules: each
// journaled spawn of the batch is a leaf, whose replays run fresh.
func TestSoakRecoveryMemcachedBatch(t *testing.T) {
	prog, err := privagic.Compile("memcached_batch.c", memcachedBatchSrc, privagic.Options{
		Mode: privagic.Hardened, Entries: []string{"soak_batch"},
	})
	if err != nil {
		t.Fatal(err)
	}
	clean := prog.Instantiate(nil)
	clean.EnableBoundaryDefense(privagic.FullBoundaryDefense())
	clean.EnableRecovery(privagic.RecoveryOptions{MaxAttempts: recoveryBudget})
	want, err := clean.Call("soak_batch")
	rs := clean.RecoveryStats()
	clean.Close()
	if err != nil {
		t.Fatalf("clean run failed: %v", err)
	}
	if want/100000 == 0 || want%100000 == 0 {
		t.Fatalf("clean run returned %d (hits*100000 + items); workload is degenerate", want)
	}
	if rs.SpawnsJournaled == 0 || rs.Unlogged != rs.SpawnsJournaled {
		t.Fatalf("%d of %d journaled spawns unlogged; the batch must be a leaf", rs.Unlogged, rs.SpawnsJournaled)
	}
	n := faults.SoakCount(faults.Schedules().RecoveryMemcached, testing.Short())
	sweepRecovery(t, prog, privagic.FullBoundaryDefense(), "soak_batch", n, func(ret int64, _ *privagic.Instance) string {
		if ret != want {
			return fmt.Sprintf("soak_batch() = %d, want %d (hits*100000 + items)", ret, want)
		}
		return ""
	})
}
