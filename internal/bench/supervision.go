package bench

import (
	"fmt"
	"strings"
	"time"

	"privagic"
	"privagic/internal/sources"
)

// The supervision experiment is the robustness ablation that the paper's
// evaluation does not have: the two-color hashmap (the §9.3 workload with
// the longest cross-enclave protocol) runs under the runtime's
// fault-tolerance layer, with and without injected faults, and the table
// reports what supervision costs when nothing goes wrong and what it
// buys when things do — every faulted run either recovers to the exact
// fault-free answer or fails with a typed error, never hangs, never
// returns a silently wrong result.

// SupervisionConfig parameterizes the ablation.
type SupervisionConfig struct {
	// Schedules is the number of seeded fault schedules per faulted
	// scenario.
	Schedules int
	// WaitTimeout is the supervision inactivity window.
	WaitTimeout time.Duration
}

// DefaultSupervision returns the standard ablation setup.
func DefaultSupervision() SupervisionConfig {
	return SupervisionConfig{Schedules: 10, WaitTimeout: 15 * time.Millisecond}
}

// SupervisionRow is one scenario's aggregate outcome. A run passes when
// it returns the exact fault-free answer or fails with ErrWaitTimeout or
// ErrEnclaveAbort; every other tally column is a failure.
type SupervisionRow struct {
	Scenario string
	Tally

	Retransmits     int64 // cost-model retransmissions charged
	HostileRejected int64 // forged messages refused at the admit gate
	DupsDropped     int64 // replayed messages suppressed
	Wall            Timing
}

// SupervisionReport holds the ablation table.
type SupervisionReport struct {
	Config SupervisionConfig
	Want   int64 // the fault-free answer every run is held to
	Rows   []SupervisionRow
}

// supScenario describes one table row's fault regime.
type supScenario struct {
	name      string
	supervise bool
	faulted   bool
	faults    func(seed int64) privagic.FaultOptions
}

// Supervision runs the ablation.
func Supervision(cfg SupervisionConfig) (*SupervisionReport, error) {
	if cfg.Schedules < 1 {
		cfg.Schedules = 1
	}
	prog, want, err := groundTruth("hashmap2.c", sources.HashmapColored2, "run_ycsb")
	if err != nil {
		return nil, err
	}
	rep := &SupervisionReport{Config: cfg, Want: want}

	scenarios := []supScenario{
		{name: "baseline (no supervision)"},
		{name: "supervised, fault-free", supervise: true},
		{name: "drop 1% + retransmit", supervise: true, faulted: true,
			faults: func(seed int64) privagic.FaultOptions {
				return privagic.FaultOptions{Seed: seed, Drop: 0.01,
					Retransmit: true, RetransmitAfter: time.Millisecond}
			}},
		{name: "crash 0.5% of chunks", supervise: true, faulted: true,
			faults: func(seed int64) privagic.FaultOptions {
				return privagic.FaultOptions{Seed: seed, Crash: 0.005}
			}},
		{name: "dup/delay/reorder/forge 2%", supervise: true, faulted: true,
			faults: func(seed int64) privagic.FaultOptions {
				return privagic.FaultOptions{Seed: seed, Duplicate: 0.02,
					Delay: 0.02, Reorder: 0.02, Forge: 0.02}
			}},
	}
	for _, sc := range scenarios {
		runs := 1
		if sc.faulted {
			runs = cfg.Schedules
		}
		row := SupervisionRow{Scenario: sc.name}
		seed := int64(0)
		row.Wall, _ = measure(runs, func(s *span) error {
			seed++
			instRun(s, prog, "run_ycsb", want, &row.Tally, func(inst *privagic.Instance) {
				inst.EnableSpawnValidation()
				if sc.supervise {
					inst.EnableSupervision(privagic.SupervisionOptions{WaitTimeout: cfg.WaitTimeout})
				}
				if sc.faulted {
					inst.EnableFaultInjection(sc.faults(seed))
				}
			}, func(inst *privagic.Instance) {
				sup := inst.SupervisionStats()
				row.HostileRejected += sup.HostileTotal()
				row.DupsDropped += sup.DroppedDuplicates
				row.Retransmits += inst.Meter().Retransmits()
			})
			return nil
		})
		rep.Rows = append(rep.Rows, row)
	}
	return rep, nil
}

// failures counts the runs that neither returned the exact answer nor
// failed with a typed timeout or abort.
func (row SupervisionRow) failures() int {
	return row.Runs - row.Correct - row.Timeouts - row.Aborts
}

// Gates holds the run to its invariant: no silently wrong or untyped run.
func (r *SupervisionReport) Gates() []Gate {
	bad := 0
	for _, row := range r.Rows {
		bad += row.failures()
	}
	return []Gate{atMost("supervision wrong or untyped runs", float64(bad), 0, "")}
}

// String renders the ablation table.
func (r *SupervisionReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Supervision ablation — two-color hashmap, %d hits fault-free, window %v\n",
		r.Want, r.Config.WaitTimeout)
	fmt.Fprintf(&b, "%-28s %s %8s %8s %6s %9s\n", "scenario", tallyHeader, "hostile", "dups", "retx", "min-us")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-28s %s %8d %8d %6d %9.0f\n", row.Scenario, row.Tally,
			row.HostileRejected, row.DupsDropped, row.Retransmits, row.Wall.MinMicros())
	}
	return b.String()
}
