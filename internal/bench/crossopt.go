package bench

import (
	"fmt"
	"strings"

	"privagic"
)

// The crossing-optimizer experiment compiles one loop-heavy workload
// twice — reference pipeline vs. OptimizeCrossings — runs both on the
// simulated SGX machine, and reports the measured crossings/op beside
// the analyzer's static prediction. The workload is built so each of
// the optimizer's three rewrites has exactly one firing opportunity per
// iteration:
//
//   - step's red chunk feeds three straight-line cont transports to its
//     U sibling (coalesced into one vectored message),
//   - step writes two U globals from the enclave, producing two
//     adjacent visible-effect barriers (merged into one),
//   - enc_update spawns the message-free U chunk note every iteration
//     (fused into a direct call, killing the spawn/done pair).
//
// The two runs must agree exactly — any divergence is a correctness bug
// in the optimizer and fails the experiment rather than skewing it.

// crossOptSrc is the workload; %d is the loop trip count.
const crossOptSrc = `
ignore long reveal(long color(red) v);

long color(red) s1;
long color(red) s2;
long color(red) s3;
long color(red) audit_key;

long acc[8];
long acc2[8];
long audit_count;

void note(long v) { audit_count = audit_count + v; }

void enc_update(long i) {
    audit_key = audit_key + i;
    note(i);
}

void step(long i) {
    long a = reveal(s1 + i);
    long b = reveal(s2 + i);
    long c = reveal(s3 + i);
    long t = a + b + c;
    acc[i & 7] = t;
    acc2[i & 7] = t + 1;
}

entry long run_loop() {
    long sum = 0;
    for (long i = 0; i < %d; i++) {
        step(i);
        enc_update(i);
        sum = sum + 1;
    }
    return sum + audit_count;
}
`

// CrossOptConfig parameterizes the experiment.
type CrossOptConfig struct {
	// Iters is the workload loop trip count (= operations per run).
	Iters int
}

// DefaultCrossOpt returns the full-scale setup.
func DefaultCrossOpt() CrossOptConfig { return CrossOptConfig{Iters: 600} }

// CrossOptReport holds both runs' evidence.
type CrossOptReport struct {
	Config CrossOptConfig

	// What the optimizer did to the plan.
	Fused     int
	Coalesced int
	Merged    int
	Rejected  int

	// Static predictions (crossings/op) from the analyzer over each plan.
	StaticRefPerOp float64
	StaticOptPerOp float64

	// Measured message totals from the cost-model meter.
	RefMessages int64
	OptMessages int64
	RefPerOp    float64
	OptPerOp    float64
	// ReductionPct is the measured crossings/op saved by the optimizer,
	// in percent of the reference figure.
	ReductionPct float64

	// Differential check: both runs returned this value and produced
	// byte-identical output.
	Ret int64
}

// CrossOpt runs the experiment. It returns an error if the optimized run
// diverges from the reference in return value or output, or if the
// strict re-audit of the optimized plan fails (Compile reports that);
// the 25% reduction bar is a gate.
func CrossOpt(cfg CrossOptConfig) (*CrossOptReport, error) {
	if cfg.Iters < 1 {
		cfg.Iters = 1
	}
	src := fmt.Sprintf(crossOptSrc, cfg.Iters)
	base := privagic.Options{
		Mode:    privagic.Relaxed,
		Entries: []string{"run_loop"},
		Audit:   privagic.AuditStrict,
	}

	ref, err := privagic.Compile("crossopt.c", src, base)
	if err != nil {
		return nil, fmt.Errorf("crossopt: reference compile: %w", err)
	}
	optOpts := base
	optOpts.OptimizeCrossings = true
	opt, err := privagic.Compile("crossopt.c", src, optOpts)
	if err != nil {
		return nil, fmt.Errorf("crossopt: optimized compile: %w", err)
	}

	rep := &CrossOptReport{Config: cfg}
	if o := opt.CrossingOpt; o != nil {
		rep.Fused = len(o.Fused)
		rep.Coalesced = len(o.Coalesced)
		rep.Merged = len(o.Merged)
		rep.Rejected = len(o.Rejected)
	}
	if r := ref.CrossingReports(nil)["run_loop"]; r != nil {
		rep.StaticRefPerOp = r.TotalPerOp
	}
	if r := opt.CrossingReports(nil)["run_loop"]; r != nil {
		rep.StaticOptPerOp = r.TotalPerOp
	}

	run := func(p *privagic.Program) (int64, string, int64, error) {
		inst := p.Instantiate(nil)
		defer inst.Close()
		ret, err := inst.Call("run_loop")
		if err != nil {
			return 0, "", 0, err
		}
		_, msgs, _, _ := inst.Meter().Counts()
		return ret, inst.Output(), msgs, nil
	}
	rret, rout, rmsgs, err := run(ref)
	if err != nil {
		return nil, fmt.Errorf("crossopt: reference run: %w", err)
	}
	oret, oout, omsgs, err := run(opt)
	if err != nil {
		return nil, fmt.Errorf("crossopt: optimized run: %w", err)
	}
	if rret != oret || rout != oout {
		return nil, fmt.Errorf("crossopt: optimized run diverged: ret %d vs %d, output %q vs %q",
			rret, oret, rout, oout)
	}

	ops := float64(cfg.Iters)
	rep.RefMessages, rep.OptMessages = rmsgs, omsgs
	rep.RefPerOp = float64(rmsgs) / ops
	rep.OptPerOp = float64(omsgs) / ops
	if rmsgs > 0 {
		rep.ReductionPct = 100 * float64(rmsgs-omsgs) / float64(rmsgs)
	}
	rep.Ret = rret
	return rep, nil
}

// Gates holds the optimizer to a 25% measured crossings/op reduction on
// its own showcase workload (message counts are deterministic, so this
// is a correctness gate).
func (r *CrossOptReport) Gates() []Gate {
	return []Gate{atLeast("crossings/op reduction", r.ReductionPct, 25, "%")}
}

// String renders the report.
func (r *CrossOptReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "crossing optimizer — loop-heavy workload (%d iterations)\n", r.Config.Iters)
	fmt.Fprintf(&b, "  rewrites: %d spawn sites fused, %d transport groups coalesced, %d barriers merged (%d candidates rejected)\n",
		r.Fused, r.Coalesced, r.Merged, r.Rejected)
	fmt.Fprintf(&b, "  %-28s %12s %12s\n", "", "reference", "optimized")
	fmt.Fprintf(&b, "  %-28s %12.3f %12.3f\n", "static crossings/op", r.StaticRefPerOp, r.StaticOptPerOp)
	fmt.Fprintf(&b, "  %-28s %12.3f %12.3f\n", "measured crossings/op", r.RefPerOp, r.OptPerOp)
	fmt.Fprintf(&b, "  %-28s %12d %12d\n", "messages total", r.RefMessages, r.OptMessages)
	fmt.Fprintf(&b, "  measured reduction: %.1f%%   (differential: both runs returned %d, outputs identical)\n",
		r.ReductionPct, r.Ret)
	return b.String()
}
