package bench

import (
	"fmt"
	"io"
	"strings"

	"privagic"
	"privagic/internal/sources"
)

// The obs ablation measures what the observability layer costs: the same
// workload swept with observability off, with the metrics registry armed,
// and with registry + tracer armed. The acceptance bar is <3% wall
// overhead for the fully armed configuration — metrics are gauge closures
// over existing counters (snapshot-time cost only) and the tracer is one
// uncontended mutexed ring write per runtime event with batched
// timestamping, so the budget holds on both the figure-9 hashmap and the
// figure-8 memcached-core workloads.
//
// Methodology: each instrumented scenario is timed against its own
// interleaved observability-off twin (paired), and the overhead figure
// is the median of the per-rep ratios.

// ObsConfig parameterizes the ablation.
type ObsConfig struct {
	// Schedules is the number of paired reps per instrumented row (each
	// pair also runs the observability-off row once).
	Schedules int
	// TraceOut, when set, receives the Chrome trace_event JSON of one
	// fully instrumented run of the first workload (the -trace-out flag).
	TraceOut io.Writer
}

// DefaultObs returns the standard ablation setup.
func DefaultObs() ObsConfig { return ObsConfig{Schedules: 60} }

// ObsRow is one (workload, scenario) aggregate outcome.
type ObsRow struct {
	Workload string
	Scenario string
	Tally

	Wall Timing
	// OverheadPct is relative to the workload's observability-off row:
	// the median over reps of this scenario's wall time divided by its
	// paired baseline run's (zero on the baseline row).
	OverheadPct float64

	// TraceEvents/Metrics sample the instrumentation's own output: events
	// recorded in the last run of the row, metric names in its snapshot.
	TraceEvents int64
	Metrics     int
}

// ObsReport holds the ablation table.
type ObsReport struct {
	Config ObsConfig
	Rows   []ObsRow
}

// obsFullyArmed names the scenario the 3% budget applies to.
const obsFullyArmed = "metrics + tracer"

// Obs runs the ablation.
func Obs(cfg ObsConfig) (*ObsReport, error) {
	if cfg.Schedules < 1 {
		cfg.Schedules = 1
	}
	rep := &ObsReport{Config: cfg}
	workloads := []iagoWorkload{
		{name: "hashmap", file: "hashmap2.c", src: sources.HashmapColored2, entry: "run_ycsb"},
		{name: "memcached", file: "memcached_core.c", src: sources.MemcachedCoreColored, entry: "run_ycsb"},
	}
	scenarios := []struct {
		name string
		opts privagic.ObservabilityOptions
	}{
		{name: "observability off"},
		{name: "metrics registry", opts: privagic.ObservabilityOptions{Metrics: true}},
		{name: obsFullyArmed, opts: privagic.ObservabilityOptions{Metrics: true, Trace: true}},
	}
	for _, wl := range workloads {
		prog, want, err := groundTruth(wl.file, wl.src, wl.entry)
		if err != nil {
			return nil, err
		}
		rows := make([]ObsRow, len(scenarios))
		run := func(si int) func(*span) error {
			row, opts := &rows[si], scenarios[si].opts
			return func(s *span) error {
				instRun(s, prog, wl.entry, want, &row.Tally, func(inst *privagic.Instance) {
					if si > 0 {
						inst.EnableObservability(opts)
					}
				}, func(inst *privagic.Instance) {
					if si > 0 {
						snap := inst.MetricsSnapshot()
						row.Metrics = len(snap)
						row.TraceEvents = snap["obs.trace_events"]
					}
				})
				return nil
			}
		}
		for si := 1; si < len(scenarios); si++ {
			p, _ := paired(cfg.Schedules, run(0), run(si))
			rows[si].Wall, rows[si].OverheadPct = p.B, 100*(p.Ratio-1)
			if si == 1 {
				rows[0].Wall = p.A
			}
		}
		for si := range rows {
			rows[si].Workload, rows[si].Scenario = wl.name, scenarios[si].name
		}
		rep.Rows = append(rep.Rows, rows...)
		if cfg.TraceOut != nil {
			// One extra fully instrumented run to capture the trace the
			// -trace-out flag asked for (the timed sweep stays untouched).
			// The capture run is untimed, so it can afford rings big
			// enough to keep the whole run resident.
			inst := prog.Instantiate(nil)
			inst.EnableObservability(privagic.ObservabilityOptions{Metrics: true, Trace: true, TraceBuffer: 1 << 14})
			if _, err := inst.Call(wl.entry); err != nil {
				inst.Close()
				return nil, fmt.Errorf("bench: traced %s run failed: %w", wl.name, err)
			}
			if err := inst.WriteChromeTrace(cfg.TraceOut); err != nil {
				inst.Close()
				return nil, fmt.Errorf("bench: trace export: %w", err)
			}
			inst.Close()
			cfg.TraceOut = nil // first workload's trace only
		}
	}
	return rep, nil
}

// Gates holds the fully armed rows to the 3% overhead budget.
func (r *ObsReport) Gates() []Gate {
	worst := 0.0
	for _, row := range r.Rows {
		if row.Scenario == obsFullyArmed {
			worst = max(worst, row.OverheadPct)
		}
	}
	return []Gate{timing(atMost("observability overhead, metrics + tracer (worst workload)", worst, 3, "%"))}
}

// String renders the ablation table.
func (r *ObsReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Observability overhead ablation — %d paired runs/row, median-of-ratios overhead\n", r.Config.Schedules)
	fmt.Fprintf(&b, "%-10s %-20s %s %8s %7s %9s %8s %8s\n",
		"workload", "scenario", tallyHeader, "min-us", "spread", "overhead", "events", "metrics")
	for _, row := range r.Rows {
		over := ""
		if row.OverheadPct != 0 {
			over = fmt.Sprintf("%+.1f%%", row.OverheadPct)
		}
		fmt.Fprintf(&b, "%-10s %-20s %s %8.0f %6.1f%% %9s %8d %8d\n",
			row.Workload, row.Scenario, row.Tally, row.Wall.MinMicros(), 100*row.Wall.Spread,
			over, row.TraceEvents, row.Metrics)
	}
	return b.String()
}
