package e2e

import (
	"fmt"
	"regexp"
	"runtime"
	"strings"
	"time"

	"privagic"
	"privagic/internal/audit"
	"privagic/internal/minic"
	"privagic/internal/partition"
	"privagic/internal/passes"
	"privagic/internal/passes/crossing"
	"privagic/internal/typing"
)

// compileReps is how many times each compile phase is timed; the median
// is reported.
const compileReps = 21

// compilePhases names the public compiler phases in pipeline order, as
// the per-layer metrics report them.
var compilePhases = []string{
	"minic.parse_us", "passes.ssa_us", "typing.analyze_us", "partition.partition_us",
	"crossing.optimize_us", "audit.validate_us", "interp.instantiate_us",
}

// phasedCompile runs privagic.Compile's pipeline one public phase at a
// time, timing each (µs, in compilePhases order), and instantiates the
// result. minic.parse_us covers the whole frontend (parse and lowering
// to IR). The caller closes the instance.
func phasedCompile(c *colored, sp *spans, parent int) (*privagic.Program, *privagic.Instance, []float64, error) {
	times := make([]float64, 0, len(compilePhases))
	timed := func(i int, f func() error) error {
		id := sp.begin(compilePhases[i], parent, 0)
		t0 := time.Now()
		err := f()
		times = append(times, float64(time.Since(t0).Nanoseconds())/1e3)
		sp.end(id)
		return err
	}
	p := &privagic.Program{Engine: c.opts.Engine}
	err := timed(0, func() (err error) {
		p.Module, err = minic.Compile(c.file, c.src)
		return err
	})
	if err == nil {
		err = timed(1, func() error { passes.RunAll(p.Module); return nil })
	}
	if err == nil {
		err = timed(2, func() error {
			p.Analysis = typing.Analyze(p.Module, typing.Options{Mode: c.opts.Mode, Entries: c.opts.Entries})
			return p.Analysis.Err()
		})
	}
	if err == nil {
		err = timed(3, func() (err error) {
			p.Partitioned, err = partition.Partition(p.Analysis)
			return err
		})
	}
	// Every partitioned workload compiles with the crossing optimizer and
	// the strict audit, so both phases always run and a violation fails.
	if err == nil {
		err = timed(4, func() error { p.CrossingOpt = crossing.Optimize(p.Partitioned); return nil })
	}
	if err == nil {
		err = timed(5, func() error {
			p.Audit = audit.Run(p.Partitioned)
			return p.Audit.Err()
		})
	}
	if err != nil {
		return nil, nil, nil, fmt.Errorf("e2e: phased compile of %s: %w", c.file, err)
	}
	var inst *privagic.Instance
	_ = timed(6, func() error { inst = p.Instantiate(nil); return nil })
	return p, inst, times, nil
}

// irTemp matches an SSA temporary's name.
var irTemp = regexp.MustCompile(`%t[0-9]+`)

// canonicalIR is a program's IR text with each function's temporaries
// renumbered in order of first appearance. privagic.Compile numbers phi
// temporaries in map-iteration order, so two builds of one source can
// differ in those names alone.
func canonicalIR(p *privagic.Program) string {
	var ids map[string]string
	lines := strings.Split(p.EmitIR(), "\n")
	for i, line := range lines {
		if strings.HasPrefix(line, "define ") {
			ids = map[string]string{}
		}
		lines[i] = irTemp.ReplaceAllStringFunc(line, func(name string) string {
			id, ok := ids[name]
			if !ok {
				id = fmt.Sprintf("%%t%d", len(ids))
				ids[name] = id
			}
			return id
		})
	}
	return strings.Join(lines, "\n")
}

// irInstrs counts the instructions of a compiled program's module.
func irInstrs(p *privagic.Program) int {
	n := 0
	for _, fn := range p.Module.Funcs {
		for _, b := range fn.Blocks {
			n += len(b.Instrs)
		}
	}
	return n
}

// compileLayers times each compile phase alone and the one-shot
// Compile+Instantiate, compileReps times each, interleaved so host drift
// lands on both, and checks that both build the same plan. Every timed
// build starts from a fresh collection, so both sides meet the same
// collector work at the same allocation points. setup.phase_sum_frac is
// the median over the reps of one rep's phase sum over the one-shot wall
// that follows it: whole builds, because a sum of per-phase medians would
// drop the collector cycles that land in a different phase each time, and
// paired, so drift between reps cancels.
func compileLayers(r *run, sp *spans) error {
	c := r.c
	phases := make([][]float64, len(compilePhases))
	var fracs, lower []float64
	var plan *privagic.Program
	for i := 0; i < compileReps; i++ {
		runtime.GC()
		rep := sp.begin("compile.phased", 0, 0)
		p, inst, times, err := phasedCompile(c, sp, rep)
		sp.end(rep)
		if err != nil {
			return err
		}
		lower = append(lower, float64(inst.ExecStats().CompileTime.Nanoseconds())/1e3)
		inst.Close()
		sum := 0.0
		for j, t := range times {
			phases[j] = append(phases[j], t)
			sum += t
		}

		runtime.GC()
		rep = sp.begin("compile.oneshot", 0, 0)
		t0 := time.Now()
		q, err := c.compile("")
		if err != nil {
			return err
		}
		inst = q.Instantiate(nil)
		fracs = append(fracs, sum/(float64(time.Since(t0).Nanoseconds())/1e3))
		sp.end(rep)
		inst.Close()
		if i == 0 {
			plan = q
			if canonicalIR(p) != canonicalIR(q) || len(p.Partitioned.ChunkByID) != len(q.Partitioned.ChunkByID) {
				r.log.record(outcome{wrong: "phase-by-phase compile built a different plan than privagic.Compile"})
			}
		}
	}
	for j, name := range compilePhases {
		r.set(name, median(phases[j]))
	}
	r.set("compile.lower_us", median(lower))
	r.set("setup.phase_sum_frac", median(fracs))
	r.set("ir.instrs", float64(irInstrs(plan)))
	r.set("partition.chunks", float64(len(plan.Partitioned.ChunkByID)))
	return nil
}
