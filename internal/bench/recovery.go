package bench

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"privagic"
	"privagic/internal/sources"
)

// The recovery experiment is the ablation for the replay layer:
// the two-color hashmap runs (a) bare, (b) with recovery armed but no
// faults — the cost of effect buffering and the journal's load/cont
// caches on the fault-free path — and (c) under seeded crash schedules
// with the crash cap at the replay budget, where every run must recover
// to the exact fault-free answer. The two headline numbers are the
// fault-free overhead and the recovery rate. A fourth row runs the armed
// fault-free scenario on the compiled tier, the one the benchmark
// workloads run, and counts its Go heap allocations per journaled spawn:
// the journal and the effect transactions recycle their buffers, so a
// warm spawn allocates next to nothing. (On the interpreter, its own
// frame maps, about 34 objects per spawn, would drown that count.)

// RecoveryConfig parameterizes the ablation.
type RecoveryConfig struct {
	// Schedules is the number of seeded crash schedules in the faulted
	// scenario, and the repeat count of the unfaulted scenarios (wall
	// times are averaged over it).
	Schedules int
	// Budget is the per-spawn replay budget and the per-run crash cap.
	Budget int
	// WaitTimeout is the supervision inactivity window of the crash
	// schedules; the fault-free row waits faultFreeWindow.
	WaitTimeout time.Duration
}

// DefaultRecovery returns the standard ablation setup.
func DefaultRecovery() RecoveryConfig {
	return RecoveryConfig{Schedules: 30, Budget: 3, WaitTimeout: 15 * time.Millisecond}
}

// RecoveryRow is one scenario's aggregate outcome. Only the exact
// fault-free answer passes: any error, typed or not, is user-visible.
type RecoveryRow struct {
	Scenario string
	Tally

	Crashes int64 // crashes injected across the scenario
	Replays int64 // replays performed

	Wall Timing

	// GoAllocs counts the Go heap objects allocated during the row's
	// calls and Spawns the spawns they journaled (the compiled row only).
	GoAllocs int64 `json:",omitempty"`
	Spawns   int64 `json:",omitempty"`
}

// RecoveryReport holds the ablation table.
type RecoveryReport struct {
	Config RecoveryConfig
	Want   int64 // the fault-free answer every run is held to
	Rows   []RecoveryRow
	// OverheadPct is the fault-free cost of arming recovery: the median
	// of paired armed/bare ratios (row 1 vs row 0), in percent.
	OverheadPct float64
	// AllocsPerSpawn is the compiled row's Go heap allocations per
	// journaled spawn.
	AllocsPerSpawn float64
}

// allocsPerSpawnBar is the bar on AllocsPerSpawn: a fifth of the 7.41
// objects per spawn the compiled row allocated (full config, 2 vCPU)
// when every journaled spawn allocated its record, load log, replay
// caches and effect transaction afresh.
const allocsPerSpawnBar = 1.48

// Recovery runs the ablation.
func Recovery(cfg RecoveryConfig) (*RecoveryReport, error) {
	if cfg.Schedules < 1 {
		cfg.Schedules = 1
	}
	if cfg.Budget < 1 {
		cfg.Budget = 1
	}
	prog, want, err := groundTruth("hashmap2.c", sources.HashmapColored2, "run_ycsb")
	if err != nil {
		return nil, err
	}
	compiled, err := privagic.Compile("hashmap2.c", sources.HashmapColored2, privagic.Options{
		Mode: privagic.Relaxed, Entries: []string{"run_ycsb"}, Engine: privagic.EngineCompiled,
	})
	if err != nil {
		return nil, fmt.Errorf("bench: compile hashmap2.c: %w", err)
	}
	rep := &RecoveryReport{Config: cfg, Want: want}
	rows := []RecoveryRow{
		{Scenario: "baseline (no recovery)"},
		{Scenario: "recovery armed, fault-free"},
		{Scenario: fmt.Sprintf("crash schedules (cap %d)", cfg.Budget)},
		{Scenario: "armed, fault-free, compiled"},
	}
	// run returns one rep of scenario i: rows 1 to 3 arm recovery, row 2
	// also injects a seeded crash schedule and waits only the configured
	// window, row 3 runs the compiled tier and counts its allocations.
	seed := int64(0)
	run := func(i int) func(*span) error {
		row := &rows[i]
		p := prog
		if i == 3 {
			p = compiled
		}
		var ms runtime.MemStats
		return func(s *span) error {
			instRun(s, p, "run_ycsb", want, &row.Tally, func(inst *privagic.Instance) {
				inst.EnableSpawnValidation()
				if i > 0 {
					window := faultFreeWindow
					if i == 2 {
						window = cfg.WaitTimeout
					}
					inst.EnableSupervision(privagic.SupervisionOptions{WaitTimeout: window})
					inst.EnableRecovery(privagic.RecoveryOptions{MaxAttempts: cfg.Budget})
				}
				if i == 2 {
					seed++
					r := rand.New(rand.NewSource(seed * 104729))
					inst.EnableFaultInjection(privagic.FaultOptions{
						Seed:       seed,
						MaxCrashes: cfg.Budget,
						Crash:      0.02 + 0.06*r.Float64(),
						CrashMid:   0.01 + 0.03*r.Float64(),
					})
				}
				if i == 3 {
					runtime.ReadMemStats(&ms)
					row.GoAllocs -= int64(ms.Mallocs)
				}
			}, func(inst *privagic.Instance) {
				if i == 3 {
					runtime.ReadMemStats(&ms)
					row.GoAllocs += int64(ms.Mallocs)
					row.Spawns += inst.RecoveryStats().SpawnsJournaled
				}
				if i == 2 {
					row.Crashes += inst.FaultStats().Crashes
				} else if row.Timeouts > 0 && row.Stall == "" {
					row.Stall = stallDump(inst)
				}
				row.Replays += inst.RecoveryStats().Replays
			})
			return nil
		}
	}
	p, _ := paired(cfg.Schedules, run(0), run(1))
	rows[0].Wall, rows[1].Wall = p.A, p.B
	rep.OverheadPct = 100 * (p.Ratio - 1)
	rows[2].Wall, _ = measure(cfg.Schedules, run(2))
	rows[3].Wall, _ = measure(cfg.Schedules, run(3))
	if rows[3].Spawns > 0 {
		rep.AllocsPerSpawn = float64(rows[3].GoAllocs) / float64(rows[3].Spawns)
	}
	rep.Rows = rows
	return rep, nil
}

// Gates requires every run, crashed or not, to end in the exact answer.
func (r *RecoveryReport) Gates() []Gate {
	var errs, wrong int
	for _, row := range r.Rows {
		errs += row.Errors()
		wrong += row.Wrong
	}
	return []Gate{
		atMost("recovery runs with errors", float64(errs), 0, ""),
		atMost("recovery wrong answers", float64(wrong), 0, ""),
		atMost("Go allocations per journaled spawn", r.AllocsPerSpawn, allocsPerSpawnBar, ""),
	}
}

// String renders the ablation table.
func (r *RecoveryReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Recovery ablation — two-color hashmap, %d hits fault-free, budget %d, window %v\n",
		r.Want, r.Config.Budget, r.Config.WaitTimeout)
	fmt.Fprintf(&b, "%-28s %s %8s %8s %9s\n", "scenario", tallyHeader, "crashes", "replays", "min-us")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-28s %s %8d %8d %9.0f\n", row.Scenario, row.Tally,
			row.Crashes, row.Replays, row.Wall.MinMicros())
	}
	fmt.Fprintf(&b, "fault-free overhead of arming recovery: %+.1f%% (median of paired ratios)\n", r.OverheadPct)
	fmt.Fprintf(&b, "Go allocations per journaled spawn, armed and fault-free, compiled tier: %.2f\n", r.AllocsPerSpawn)
	return b.String()
}
