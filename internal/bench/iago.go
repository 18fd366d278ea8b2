package bench

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"privagic"
	"privagic/internal/sources"
)

// The Iago ablation measures what the runtime boundary defense (copy-in
// snapshots, pointer sanitization, payload integrity tags — the §4 Iago
// attacker's countermeasures) costs when nothing attacks and what it buys
// when the U-memory mutator does: every hardened run must end in the
// exact answer or a typed error, while the relaxed control row shows the
// same adversary corrupting an undefended instance without tripping a
// single detector. Two workloads bracket the attack surface: the figure-6
// walkthrough (no enclave pointers resident in U) and the memcached core
// (split-struct chains parked in U memory — the pointer smasher's target).

// iagoFigure6Src is the paper's Figure 6 walkthrough: entry main returns
// 42 after the cross-enclave g(21) protocol.
const iagoFigure6Src = `
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

// IagoConfig parameterizes the ablation.
type IagoConfig struct {
	// Schedules is the number of runs per row (seeded mutator schedules
	// for the attacked rows, repeated timings for the fault-free rows).
	Schedules int
	// WaitTimeout is the supervision inactivity window for attacked rows
	// (a rejected payload starves its wait; the timeout types the loss).
	WaitTimeout time.Duration
}

// DefaultIago returns the standard ablation setup.
func DefaultIago() IagoConfig {
	return IagoConfig{Schedules: 20, WaitTimeout: 15 * time.Millisecond}
}

// IagoRow is one (workload, scenario) aggregate outcome. A hardened run
// passes when it returns the exact answer or fails with any typed error;
// wrong answers and untyped errors are silent corruption.
type IagoRow struct {
	Workload string
	Scenario string
	Tally

	Mutations       int64 // corruptions the adversary injected
	PointerRejected int64 // U-sourced addresses refused by the sanitizer
	PayloadRejected int64 // tampered messages refused at the admit gate
	SnapshotCopyIns int64 // U words copied into enclave-private snapshots
	Wall            Timing
	// OverheadPct is the fault-free defense cost relative to the
	// workload's baseline row, as the median of paired ratios (only set
	// on the hardened fault-free row).
	OverheadPct float64

	defense bool
}

// IagoReport holds the ablation table.
type IagoReport struct {
	Config IagoConfig
	Rows   []IagoRow
}

// iagoMutator derives a jittered everything-at-once mutator schedule from
// the seed (the same class the soak's seed%4==3 arm runs).
func iagoMutator(seed int64) privagic.MutatorOptions {
	r := rand.New(rand.NewSource(seed * 6151))
	return privagic.MutatorOptions{
		Seed:          seed,
		FlipAfterRead: 0.03 + 0.12*r.Float64(),
		SmashPointers: 0.01 + 0.06*r.Float64(),
		MutatePayload: 0.01 + 0.06*r.Float64(),
	}
}

// iagoWorkload is one program under test.
type iagoWorkload struct {
	name  string
	file  string
	src   string
	entry string
}

// Iago runs the ablation.
func Iago(cfg IagoConfig) (*IagoReport, error) {
	if cfg.Schedules < 1 {
		cfg.Schedules = 1
	}
	rep := &IagoReport{Config: cfg}
	workloads := []iagoWorkload{
		{name: "figure6", file: "figure6.c", src: iagoFigure6Src, entry: "main"},
		{name: "memcached", file: "memcached_core.c", src: sources.MemcachedCoreColored, entry: "run_ycsb"},
	}
	for _, wl := range workloads {
		prog, want, err := groundTruth(wl.file, wl.src, wl.entry)
		if err != nil {
			return nil, err
		}
		rows := []IagoRow{
			{Scenario: "baseline (no defense)"},
			{Scenario: "hardened, fault-free", defense: true},
			{Scenario: "hardened + mutator", defense: true},
			{Scenario: "relaxed + mutator"},
		}
		// run returns one rep of row i; rows 2 and 3 are attacked by a
		// seeded mutator under supervision.
		seed := int64(0)
		run := func(i int) func(*span) error {
			row := &rows[i]
			return func(s *span) error {
				instRun(s, prog, wl.entry, want, &row.Tally, func(inst *privagic.Instance) {
					inst.EnableSpawnValidation()
					if row.defense {
						inst.EnableBoundaryDefense(privagic.FullBoundaryDefense())
					}
					if i >= 2 {
						seed++
						inst.EnableSupervision(privagic.SupervisionOptions{WaitTimeout: cfg.WaitTimeout})
						inst.EnableMutator(iagoMutator(seed))
					}
				}, func(inst *privagic.Instance) {
					bs := inst.BoundaryStats()
					row.PointerRejected += bs.Violations
					row.PayloadRejected += bs.PayloadTampered
					row.SnapshotCopyIns += bs.SnapshotCopyIns
					row.Mutations += inst.MutatorStats().Total()
				})
				return nil
			}
		}
		p, _ := paired(cfg.Schedules, run(0), run(1))
		rows[0].Wall, rows[1].Wall = p.A, p.B
		rows[1].OverheadPct = 100 * (p.Ratio - 1)
		for i := 2; i < len(rows); i++ {
			seed = 0
			rows[i].Wall, _ = measure(cfg.Schedules, run(i))
		}
		for i := range rows {
			rows[i].Workload = wl.name
		}
		rep.Rows = append(rep.Rows, rows...)
	}
	return rep, nil
}

// Gates requires the hardened rows to stay free of silent corruption and
// the undefended relaxed control to detect nothing.
func (r *IagoReport) Gates() []Gate {
	var silent, detections int64
	for _, row := range r.Rows {
		if row.defense {
			silent += int64(row.Wrong + row.Untyped)
		} else {
			detections += int64(row.Iago) + row.PointerRejected + row.PayloadRejected
		}
	}
	return []Gate{
		atMost("iago hardened wrong or untyped runs", float64(silent), 0, ""),
		atMost("iago relaxed detections", float64(detections), 0, ""),
	}
}

// String renders the ablation table.
func (r *IagoReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Iago boundary-defense ablation — %d runs/row, window %v\n",
		r.Config.Schedules, r.Config.WaitTimeout)
	fmt.Fprintf(&b, "%-10s %-22s %s %6s %8s %8s %8s %8s %9s\n",
		"workload", "scenario", tallyHeader, "muts", "ptr-rej", "pay-rej", "copy-in", "min-us", "overhead")
	for _, row := range r.Rows {
		over := ""
		if row.OverheadPct != 0 {
			over = fmt.Sprintf("%+.1f%%", row.OverheadPct)
		}
		fmt.Fprintf(&b, "%-10s %-22s %s %6d %8d %8d %8d %8.0f %9s\n",
			row.Workload, row.Scenario, row.Tally, row.Mutations, row.PointerRejected,
			row.PayloadRejected, row.SnapshotCopyIns, row.Wall.MinMicros(), over)
	}
	return b.String()
}
