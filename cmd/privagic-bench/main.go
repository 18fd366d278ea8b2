// Command privagic-bench regenerates the paper's evaluation (§9): every
// table and figure, at full scale. Each experiment's acceptance bars are
// gates: the command prints a verdict for each and exits 1 when one
// fails. Timing gates are evaluated only at full config; -quick reports
// them as not evaluated.
//
// Usage:
//
//	privagic-bench [-exp all|fig3|fig8|fig9|fig10|table4|effort|supervision|recovery|iago|audit|obs|cluster|replication|grayfail|crossopt|compile] [-quick] [-csv] [-json] [-trace-out trace.json]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strings"

	"privagic/internal/bench"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// report is what every experiment returns.
type report interface{ String() string }

// options are the flags an experiment's runner may read.
type options struct {
	quick    bool
	traceOut string
}

// An experiment is one -exp entry: its runner builds the config (full, or
// shrunk under -quick) and runs it.
type experiment struct {
	name string
	run  func(o options) (report, error)
}

// entry builds a table entry from an experiment's default config, the
// shrink -quick applies to it, and its runner.
func entry[C any, R report](name string, def func() C, quick func(*C), run func(C) (R, error)) experiment {
	return experiment{name, func(o options) (report, error) {
		cfg := def()
		if o.quick {
			quick(&cfg)
		}
		return run(cfg)
	}}
}

// infallible adapts a runner that cannot fail.
func infallible[C, R any](run func(C) R) func(C) (R, error) {
	return func(cfg C) (R, error) { return run(cfg), nil }
}

// experiments lists every experiment in the order -exp all runs them.
var experiments = []experiment{
	{"fig3", func(options) (report, error) { return bench.Fig3() }},
	{"table4", func(options) (report, error) { return bench.Table4() }},
	{"effort", func(options) (report, error) { return bench.Effort(), nil }},
	entry("fig9", bench.DefaultFig9, func(c *bench.Fig9Config) { c.Ops, c.ListOps = 4000, 100 }, infallible(bench.Fig9)),
	entry("fig10", bench.DefaultFig10, func(c *bench.Fig10Config) { c.Ops = 4000 }, infallible(bench.Fig10)),
	entry("fig8", bench.DefaultFig8, func(c *bench.Fig8Config) { c.Ops = 8000 }, infallible(bench.Fig8)),
	entry("supervision", bench.DefaultSupervision, func(c *bench.SupervisionConfig) { c.Schedules = 3 }, bench.Supervision),
	entry("recovery", bench.DefaultRecovery, func(c *bench.RecoveryConfig) { c.Schedules = 5 }, bench.Recovery),
	entry("iago", bench.DefaultIago, func(c *bench.IagoConfig) { c.Schedules = 5 }, bench.Iago),
	entry("audit", bench.DefaultAudit, func(c *bench.AuditConfig) { c.Reps = 2 }, bench.Audit),
	{"obs", runObs},
	entry("cluster", bench.DefaultCluster, func(c *bench.ClusterConfig) {
		c.Ops, c.Shards, c.Kills = 6000, []int{1, 2, 4}, 3
	}, bench.Cluster),
	entry("replication", bench.DefaultReplication, func(c *bench.ReplicationConfig) {
		c.Ops, c.Reps, c.Outages, c.KeysPerOutage = 4000, 5, 2, 20
	}, bench.Replication),
	entry("grayfail", bench.DefaultGrayFail, func(c *bench.GrayFailConfig) { c.Cycles, c.Ops = 3, 800 }, bench.GrayFail),
	entry("crossopt", bench.DefaultCrossOpt, func(c *bench.CrossOptConfig) { c.Iters = 200 }, bench.CrossOpt),
	entry("compile", bench.DefaultCompile, func(c *bench.CompileConfig) {
		c.Iters, c.Sweeps, c.DiffIters = 200_000, 2, 20_000
	}, bench.CompileBench),
}

// runObs runs the observability ablation, writing the -trace-out capture
// when asked.
func runObs(o options) (report, error) {
	cfg := bench.DefaultObs()
	if o.quick {
		cfg.Schedules = 5
	}
	if o.traceOut == "" {
		return bench.Obs(cfg)
	}
	f, err := os.Create(o.traceOut)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	cfg.TraceOut = f
	return bench.Obs(cfg)
}

// envelope is the -json record of one experiment.
type envelope struct {
	Experiment  string
	Config      string // "full" or "quick"
	GOMAXPROCS  int
	NumCPU      int
	GoVersion   string
	VCSRevision string `json:",omitempty"`
	VCSModified string `json:",omitempty"`
	Gates       []verdict
	Report      report
}

type verdict struct {
	bench.Gate
	Verdict string
}

// gatesOf returns the report's gates, if it has any.
func gatesOf(rep report) []bench.Gate {
	if g, ok := rep.(interface{ Gates() []bench.Gate }); ok {
		return g.Gates()
	}
	return nil
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("privagic-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	names := make([]string, len(experiments))
	for i, e := range experiments {
		names[i] = e.name
	}
	which := fs.String("exp", "all", "experiment: all, "+strings.Join(names, ", "))
	quick := fs.Bool("quick", false, "smaller sweeps for a fast smoke run (timing gates are not evaluated)")
	csv := fs.Bool("csv", false, "emit figure data as CSV instead of tables (fig8/fig9/fig10)")
	jsonOut := fs.Bool("json", false, "emit each experiment as a JSON envelope (host, commit, gate verdicts, report) instead of a table")
	traceOut := fs.String("trace-out", "", "with -exp obs: write a Chrome trace_event JSON of one instrumented run (open in chrome://tracing or Perfetto)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	var selected []experiment
	for _, e := range experiments {
		if *which == "all" || *which == e.name {
			selected = append(selected, e)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(stderr, "privagic-bench: unknown experiment %q\n", *which)
		return 2
	}

	rc := 0
	for _, e := range selected {
		rep, err := e.run(options{quick: *quick, traceOut: *traceOut})
		if err != nil {
			fmt.Fprintf(stderr, "privagic-bench: %s: %v\n", e.name, err)
			return 1
		}
		verdicts := []verdict{}
		for _, g := range gatesOf(rep) {
			v := verdict{g, g.Verdict(!*quick)}
			if v.Verdict == "FAIL" {
				rc = 1
			}
			verdicts = append(verdicts, v)
		}
		if err := emit(stdout, e.name, rep, verdicts, *quick, *csv, *jsonOut); err != nil {
			fmt.Fprintf(stderr, "privagic-bench: %s: %v\n", e.name, err)
			return 1
		}
		if e.name == "obs" && *traceOut != "" && !*jsonOut {
			fmt.Fprintf(stdout, "trace written to %s (open in chrome://tracing or https://ui.perfetto.dev)\n", *traceOut)
		}
	}
	return rc
}

// emit writes one experiment's result: CSV rows when asked and the report
// has them, a JSON envelope under -json, else the table and its verdicts.
func emit(w io.Writer, name string, rep report, verdicts []verdict, quick, csv, jsonOut bool) error {
	if c, ok := rep.(interface{ WriteCSV(io.Writer) error }); ok && csv {
		return c.WriteCSV(w)
	}
	if jsonOut {
		env := envelope{
			Experiment: name,
			Config:     "full",
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			NumCPU:     runtime.NumCPU(),
			GoVersion:  runtime.Version(),
			Gates:      verdicts,
			Report:     rep,
		}
		if quick {
			env.Config = "quick"
		}
		if info, ok := debug.ReadBuildInfo(); ok {
			for _, s := range info.Settings {
				switch s.Key {
				case "vcs.revision":
					env.VCSRevision = s.Value
				case "vcs.modified":
					env.VCSModified = s.Value
				}
			}
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.SetEscapeHTML(false)
		return enc.Encode(env)
	}
	fmt.Fprintln(w, rep.String())
	for _, v := range verdicts {
		fmt.Fprintf(w, "gate %s: %s\n", v.Gate, v.Verdict)
	}
	if len(verdicts) > 0 {
		fmt.Fprintln(w)
	}
	return nil
}
