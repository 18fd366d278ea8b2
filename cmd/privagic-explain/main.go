// Command privagic-explain shows what the secure type system deduced about
// a program: the colors of every specialized function's instructions, the
// color sets, the call plans, and any diagnostics — the view a developer
// uses to understand why a line was placed in (or rejected from) an
// enclave. Every load in the listing carries its boundary classification
// (trusted S-load vs U-load the runtime defense snapshots and sanitizes).
//
// Every diagnostic is rendered with its provenance leak trace: the
// backward def-use path from the sink to the source annotation that
// colored the offending value. When the program type-checks, the static
// leak auditor re-verifies the partitioned output and prints the
// whole-program boundary crossing table (every U<->S crossing with its
// justification). -audit additionally runs the entries under the full
// runtime boundary defense to report which crossings the defense covered
// dynamically.
//
// -metrics runs the entries with the observability registry armed and
// prints the metric snapshot (every name is catalogued in
// OBSERVABILITY.md) — the quickest way to see what the runtime actually
// did for a program: chunks executed, waits blocked, messages rejected.
//
// Usage:
//
//	privagic-explain [-mode hardened|relaxed] [-entries main] [-audit] [-metrics] file.c
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"

	"privagic"
	"privagic/internal/audit"
	"privagic/internal/ir"
	"privagic/internal/obs"
	"privagic/internal/passes/crossing"
)

func main() {
	os.Exit(run())
}

func run() int {
	mode := flag.String("mode", "hardened", "compiler mode")
	entries := flag.String("entries", "", "comma-separated entry points")
	runtimeAudit := flag.Bool("audit", false, "run the entries under the full boundary defense and report per-load classification")
	metrics := flag.Bool("metrics", false, "run the entries with the metrics registry armed and print the snapshot (see OBSERVABILITY.md)")
	crossings := flag.Bool("crossings", false, "print the static crossing-cost report per entry (every spawn/cont/barrier edge weighted by loop depth and trip count); with -entries, also run each entry under the tracer and print the measured crossings/op next to the prediction")
	optimize := flag.Bool("optimize", false, "apply the crossing optimizer's four rewrites (fuse/coalesce/merge/sink) before reporting; implies strict re-validation of the rewritten plan")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: privagic-explain [flags] file.c")
		return 2
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	opts := privagic.Options{Mode: privagic.Hardened}
	if *mode == "relaxed" {
		opts.Mode = privagic.Relaxed
	}
	if *entries != "" {
		opts.Entries = strings.Split(*entries, ",")
	}
	an, err := privagic.Check(flag.Arg(0), string(src), opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}

	fmt.Printf("mode: %s   enclave colors: %v   stabilizing passes: %d\n\n",
		an.Mode, an.Colors, an.Passes())

	keys := make([]string, 0, len(an.Specs))
	for k := range an.Specs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		spec := an.Specs[k]
		fmt.Printf("function %s   color set %v   returns %s\n", k, spec.ColorSet(), spec.RetColor)
		for _, b := range spec.Fn.Blocks {
			bc := ""
			if c, ok := spec.BlockColor[b]; ok && !c.IsFree() {
				bc = fmt.Sprintf("   ; block colored %s (Rule 4)", c)
			}
			fmt.Printf("  %s:%s\n", b.BName, bc)
			for _, in := range b.Instrs {
				c := spec.InstrColor[in]
				label := c.String()
				if c.IsFree() || c == ir.None {
					label = "F (replicated)"
				}
				fmt.Printf("    [%-14s] %s%s\n", label, in, loadClass(in))
			}
		}
		fmt.Println()
	}

	if err := an.Err(); err != nil {
		fmt.Println("diagnostics (with provenance leak traces):")
		for _, e := range an.Errors {
			fmt.Printf("  %s\n", e)
			if tr := audit.TraceTypeError(an.Mode, e); tr != nil {
				fmt.Println(indent(tr.String(), "  "))
			}
		}
		return 1
	}
	fmt.Println("no secure-typing violations")

	if rc := staticAudit(flag.Arg(0), string(src), opts); rc != 0 {
		return rc
	}

	if *runtimeAudit {
		if len(opts.Entries) == 0 {
			fmt.Fprintln(os.Stderr, "privagic-explain: -audit needs -entries to know what to run")
			return 2
		}
		if rc := runAudit(flag.Arg(0), string(src), opts); rc != 0 {
			return rc
		}
	}
	if *metrics {
		if len(opts.Entries) == 0 {
			fmt.Fprintln(os.Stderr, "privagic-explain: -metrics needs -entries to know what to run")
			return 2
		}
		if rc := runMetrics(flag.Arg(0), string(src), opts); rc != 0 {
			return rc
		}
	}
	if *crossings {
		if rc := runCrossings(flag.Arg(0), string(src), opts, *optimize); rc != 0 {
			return rc
		}
	}
	return 0
}

// runCrossings prints the interprocedural crossing-cost report: every
// boundary edge of every entry with its static predicted crossings/op,
// and — when entries are runnable — the tracer-measured figure beside it.
func runCrossings(file, src string, opts privagic.Options, optimize bool) int {
	opts.OptimizeCrossings = optimize
	prog, err := privagic.Compile(file, src, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if optimize {
		fmt.Printf("\ncrossing optimizer: %s\n", prog.CrossingOpt.Summary())
	}
	reports := prog.CrossingReports(nil)
	names := make([]string, 0, len(reports))
	for n := range reports {
		names = append(names, n)
	}
	sort.Strings(names)
	runnable := map[string]bool{}
	for _, e := range opts.Entries {
		runnable[e] = true
	}
	for _, n := range names {
		rep := reports[n]
		var measured map[crossing.EdgeKey]float64
		if runnable[n] {
			inst := prog.Instantiate(nil)
			inst.EnableObservability(privagic.ObservabilityOptions{Trace: true, TraceBuffer: 1 << 14})
			_, callErr := inst.Call(n)
			if callErr == nil {
				var sends []crossing.TraceSend
				for _, ev := range inst.TraceEvents() {
					if ev.Kind == obs.EvSend {
						sends = append(sends, crossing.TraceSend{Chunk: int(ev.Chunk), Tag: int(ev.Tag), Dst: int(ev.Worker)})
					}
				}
				measured = crossing.MeasuredEdges(sends, rep.OpsPerCall)
			}
			inst.Close()
		}
		fmt.Printf("\ncrossing report — entry %s (%.0f ops/call modeled)\n", n, rep.OpsPerCall)
		fmt.Print(indent(rep.Table(measured), "  "))
		fmt.Println()
	}
	return 0
}

// runMetrics executes every entry with the metrics registry armed and
// prints the snapshot — each name's semantics are one lookup away in
// OBSERVABILITY.md's metric catalogue.
func runMetrics(file, src string, opts privagic.Options) int {
	prog, err := privagic.Compile(file, src, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	for _, entry := range opts.Entries {
		inst := prog.Instantiate(nil)
		inst.EnableObservability(privagic.ObservabilityOptions{Metrics: true})
		ret, err := inst.Call(entry)
		snap := inst.MetricsSnapshot()
		inst.Close()
		fmt.Printf("\nmetrics — entry %s", entry)
		if err != nil {
			fmt.Printf(" (failed: %v)\n", err)
		} else {
			fmt.Printf(" (ret %s)\n", formatRet(prog, entry, ret))
		}
		fmt.Println(indent(obs.Render(snap), "  "))
	}
	return 0
}

// staticAudit partitions the program, re-proves the boundary invariants
// over the partitioner's output, and prints the whole-program crossing
// table. Violations (partitioner bugs) are rendered with their traces.
func staticAudit(file, src string, opts privagic.Options) int {
	opts.Audit = privagic.AuditWarn
	prog, err := privagic.Compile(file, src, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	res := prog.Audit
	fmt.Printf("\nstatic audit: %d chunks / %d instructions re-verified\n",
		res.Stats.Chunks, res.Stats.Instrs)
	if len(res.Errors) > 0 {
		fmt.Println("audit violations (with provenance leak traces):")
		for _, e := range res.Errors {
			fmt.Printf("  %s\n", e)
			fmt.Println(indent(e.Trace.String(), "  "))
		}
		return 1
	}
	fmt.Print(res.Report.Table())
	return 0
}

func indent(s, pre string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i, l := range lines {
		lines[i] = pre + l
	}
	return strings.Join(lines, "\n")
}

// loadClass annotates a load instruction with its boundary classification:
// a load through an enclave-colored pointer is served from that enclave's
// private memory (trusted, no defense needed), while a load through a
// Free/U pointer is the crossing the runtime boundary defense snapshots
// and sanitizes when it executes inside an enclave chunk.
func loadClass(in ir.Instr) string {
	ld, ok := in.(*ir.Load)
	if !ok {
		return ""
	}
	pt, ok := ld.Ptr.Type().(ir.PointerType)
	if !ok {
		return ""
	}
	if pt.Color.IsFree() || pt.Color == ir.None {
		return "   ; U-load: snapshotted+sanitized at the boundary"
	}
	return fmt.Sprintf("   ; S-load: trusted (%s-private)", pt.Color)
}

// runAudit executes every entry under the full boundary defense and
// prints what the defense saw: how each load was classified and how many
// crossings each layer covered.
func runAudit(file, src string, opts privagic.Options) int {
	prog, err := privagic.Compile(file, src, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	for _, entry := range opts.Entries {
		inst := prog.Instantiate(nil)
		inst.EnableBoundaryDefense(privagic.FullBoundaryDefense())
		ret, err := inst.Call(entry)
		bs := inst.BoundaryStats()
		inst.Close()
		fmt.Printf("\nboundary audit — entry %s under the full defense", entry)
		if err != nil {
			fmt.Printf(" (failed: %v)\n", err)
		} else {
			fmt.Printf(" (ret %s)\n", formatRet(prog, entry, ret))
		}
		fmt.Println("  per-load classification:")
		fmt.Printf("    %-20s %8d   %s\n", "trusted S-loads", bs.TrustedLoads, "enclave-private memory; no defense needed")
		fmt.Printf("    %-20s %8d   %s\n", "snapshot copy-ins", bs.SnapshotCopyIns, "U words copied into the enclave at first read")
		fmt.Printf("    %-20s %8d   %s\n", "snapshot-served", bs.SnapshotServed, "repeated U reads served from the private copy")
		fmt.Printf("    %-20s %8d   %s\n", "unsafe U loads", bs.UnsafeLoads, "U loads outside snapshot coverage")
		fmt.Printf("    %-20s %8d   %s\n", "pointer checks", bs.SanitizeChecks, "U-sourced addresses validated against the map")
		fmt.Printf("    %-20s %8d   %s\n", "rejected", bs.Violations, "typed ErrIagoViolation raised")
		fmt.Printf("  payload-tag rejections: %d\n", bs.PayloadTampered)
	}
	return 0
}

// formatRet renders an entry's result word: Call returns a double as its
// IEEE-754 bits.
func formatRet(prog *privagic.Program, entry string, ret int64) string {
	if fn := prog.Module.Func(entry); fn != nil && ir.IsFloat(fn.RetTyp) {
		return strconv.FormatFloat(math.Float64frombits(uint64(ret)), 'g', -1, 64)
	}
	return strconv.FormatInt(ret, 10)
}
