// Command privagic-e2e runs the repository benchmark (internal/e2e): four
// YCSB workloads timed from source to result, every answer checked
// against a Go reference model.
//
//	go run ./cmd/privagic-e2e -seed 1 [-workload NAME] [-json FILE] [-trace-out DIR]
//
// It prints a provenance header, then one "workload metric value unit"
// line per metric. With one workload selected the last line is a JSON
// summary: {"correct", "attempted", "failed", "metrics"}. The exit status
// is non-zero when any answer was wrong.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"

	"privagic/internal/e2e"
)

func main() {
	seed := flag.Int64("seed", 1, "seed every input derives from")
	workload := flag.String("workload", "", "run only this workload (default: all)")
	seconds := flag.Float64("seconds", 15, "run length: each workload sends rate x seconds requests, about this many seconds on a 2-CPU host")
	trace := flag.Int("trace", -1, "0: end-to-end metrics only, 1: per-layer metrics only, -1: both")
	jsonOut := flag.String("json", "", "also write the full report to this file")
	traceOut := flag.String("trace-out", "", "write the per-layer run's traces (Chrome JSON) to this directory")
	flag.Parse()

	names := e2e.Workloads()
	if *workload != "" {
		names = []string{*workload}
	}
	if *trace < -1 || *trace > 1 || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "privagic-e2e: -trace must be -1, 0 or 1 and -seconds positive")
		os.Exit(2)
	}
	opts := e2e.Options{
		Seed: *seed, Seconds: *seconds, TraceOut: *traceOut, Log: os.Stderr,
		EndToEnd: *trace != 1, PerLayer: *trace != 0,
	}

	rev := commit()
	fmt.Printf("# commit %s, %s, NumCPU %d, GOMAXPROCS %d, seed %d\n",
		rev, runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), *seed)
	var results []*e2e.Result
	correct := true
	for _, name := range names {
		res, err := e2e.Run(name, opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "privagic-e2e:", err)
			os.Exit(1)
		}
		for _, m := range append(res.Metrics, res.Notes...) {
			fmt.Printf("%s %s %.6g %s\n", name, m.Name, m.Value, m.Unit)
		}
		correct = correct && res.Correct()
		results = append(results, res)
	}
	if *jsonOut != "" {
		if err := writeReport(*jsonOut, rev, results); err != nil {
			fmt.Fprintln(os.Stderr, "privagic-e2e:", err)
			os.Exit(1)
		}
	}
	if len(results) == 1 {
		printSummary(results[0])
	}
	if !correct {
		os.Exit(1)
	}
}

// commit is the VCS revision the binary was built from ("unknown" when
// built outside a git checkout).
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricMap renders a result's declared metrics for JSON.
func metricMap(res *e2e.Result) map[string]value {
	out := map[string]value{}
	for _, m := range res.Metrics {
		out[m.Name] = value{m.Value, m.Unit}
	}
	return out
}

// printSummary prints the one-line JSON summary of a single workload.
func printSummary(res *e2e.Result) {
	line, err := json.Marshal(map[string]any{
		"correct":   res.Correct(),
		"attempted": res.Attempted,
		"failed":    res.Failed,
		"metrics":   metricMap(res),
	})
	if err != nil {
		panic(err) // plain maps of numbers and strings always marshal
	}
	fmt.Println(string(line))
}

// writeReport writes every workload's full result with the provenance.
func writeReport(path, rev string, results []*e2e.Result) error {
	type workloadReport struct {
		Workload  string           `json:"workload"`
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
		Notes     map[string]value `json:"notes"`
	}
	rep := struct {
		Provenance map[string]any   `json:"provenance"`
		Workloads  []workloadReport `json:"workloads"`
	}{Provenance: map[string]any{
		"commit": rev, "go": runtime.Version(),
		"num_cpu": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
	}}
	for _, res := range results {
		notes := map[string]value{}
		for _, m := range res.Notes {
			notes[m.Name] = value{m.Value, m.Unit}
		}
		rep.Workloads = append(rep.Workloads, workloadReport{
			Workload: res.Workload, Correct: res.Correct(),
			Attempted: res.Attempted, Failed: res.Failed,
			Metrics: metricMap(res), Notes: notes,
		})
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
