// Command privagic is the compiler driver: it compiles a MiniC source file
// with secure-type annotations, runs the secure type system, partitions the
// application, and optionally executes an entry point on the simulated SGX
// machine (the "zero to partitioned binary" path of paper Figure 5).
//
// Usage:
//
//	privagic [-mode hardened|relaxed] [-audit strict|warn|off] [-entries main,get] \
//	         [-emit] [-report] [-run entry [args...]] file.c
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
	"privagic/internal/partition"
)

func main() {
	os.Exit(run())
}

func run() int {
	mode := flag.String("mode", "hardened", "compiler mode: hardened or relaxed (paper §5)")
	auditLevel := flag.String("audit", "strict", "static leak auditor: strict (violations fail the build), warn, or off")
	entries := flag.String("entries", "", "comma-separated entry points (default: 'entry'-marked functions)")
	emit := flag.Bool("emit", false, "print the generated chunks")
	report := flag.Bool("report", false, "print the TCB report (Table 4 metrics)")
	runEntry := flag.String("run", "", "execute this entry point after compiling")
	machine := flag.String("machine", "B", "simulated machine preset: A (SGXv1) or B (SGXv2)")
	flag.Parse()

	if flag.NArg() < 1 {
		fmt.Fprintln(os.Stderr, "usage: privagic [flags] file.c [run-args...]")
		flag.PrintDefaults()
		return 2
	}
	file := flag.Arg(0)
	src, err := os.ReadFile(file)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}

	opts := privagic.Options{}
	switch *mode {
	case "hardened":
		opts.Mode = privagic.Hardened
	case "relaxed":
		opts.Mode = privagic.Relaxed
	default:
		fmt.Fprintf(os.Stderr, "privagic: unknown mode %q\n", *mode)
		return 2
	}
	if *entries != "" {
		opts.Entries = strings.Split(*entries, ",")
	}
	opts.Audit, err = audit.ParseLevel(*auditLevel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "privagic: %v\n", err)
		return 2
	}

	var prog *privagic.Program
	if strings.HasSuffix(file, ".pir") {
		prog, err = privagic.CompileIR(file, string(src), opts)
	} else {
		prog, err = privagic.Compile(file, string(src), opts)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Printf("compiled %s (%s mode): enclaves %v, %d stabilizing passes\n",
		file, *mode, prog.Colors(), prog.Analysis.Passes())
	if res := prog.Audit; res != nil {
		fmt.Printf("audit (%s): %d chunks / %d instructions re-verified, %d boundary crossings, %d violations\n",
			*auditLevel, res.Stats.Chunks, res.Stats.Instrs, res.Stats.Crossings, len(res.Errors))
		for _, e := range res.Errors {
			fmt.Fprintf(os.Stderr, "%v\n%s\n", e, e.Trace)
		}
	}

	if *emit {
		for _, pf := range sortedParts(prog) {
			fmt.Printf("; %s  colorset=%v\n", pf.Spec.Key, pf.ColorSet)
			for _, ch := range sortedChunks(pf) {
				fmt.Print(ch.Fn.String2())
			}
		}
	}
	if *report {
		fmt.Print(prog.TCBReport().String())
	}
	if *runEntry != "" {
		m := privagic.MachineB()
		if *machine == "A" {
			m = privagic.MachineA()
		}
		inst := prog.Instantiate(m)
		defer inst.Close()
		// Call takes and returns raw words: a double parameter is passed
		// as its IEEE-754 bits, and a double result is printed as one.
		fn := prog.Module.Func(*runEntry)
		var args []int64
		for i, a := range flag.Args()[1:] {
			v, err := strconv.ParseInt(a, 0, 64)
			if fn != nil && i < len(fn.Params) && ir.IsFloat(fn.Params[i].Typ) {
				var f float64
				f, err = strconv.ParseFloat(a, 64)
				v = int64(math.Float64bits(f))
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "privagic: bad argument %q\n", a)
				return 2
			}
			args = append(args, v)
		}
		ret, err := inst.Call(*runEntry, args...)
		if out := inst.Output(); out != "" {
			fmt.Print(out)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		result := strconv.FormatInt(ret, 10)
		if fn != nil && ir.IsFloat(fn.RetTyp) {
			result = strconv.FormatFloat(math.Float64frombits(uint64(ret)), 'g', -1, 64)
		}
		fmt.Printf("%s(%s) = %s\n", *runEntry, strings.Join(flag.Args()[1:], " "), result)
		tr, msg, sys, pf := inst.Meter().Counts()
		fmt.Printf("simulated: %d transitions, %d queue messages, %d syscalls, %d page faults\n", tr, msg, sys, pf)
	}
	return 0
}

func sortedParts(prog *privagic.Program) []*partition.PartFunc {
	var out []*partition.PartFunc
	for _, pf := range prog.Partitioned.Funcs {
		out = append(out, pf)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Spec.Key < out[j].Spec.Key })
	return out
}

func sortedChunks(pf *partition.PartFunc) []*partition.Chunk {
	var out []*partition.Chunk
	for _, ch := range pf.Chunks {
		out = append(out, ch)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Color.String() < out[j].Color.String() })
	return out
}
