package bench

import (
	"fmt"
	"strings"
	"time"

	"privagic"
)

// The compile experiment measures what the closure-compiled execution
// tier buys on an interpreter-bound workload: a pure-compute integer
// loop whose locals mem2reg promotes to SSA registers, so the reference
// interpreter spends its time in the per-instruction dispatch loop and
// the value map — exactly the overhead the compiled tier removes by
// fusing each instruction into a pre-resolved step closure. The same
// workload then runs once under the differential oracle, which
// re-executes every chunk on both engines in lockstep and hard-errors on
// any divergence — the run that makes the speedup trustworthy.

// compileSrc is the workload; the trip count arrives as the entry
// argument so every engine executes the identical program.
const compileSrc = `
entry long hot(long n) {
	long a = 1;
	long b = 2;
	long s = 0;
	for (long i = 0; i < n; i++) {
		a = a * 31 + i;
		b = b ^ (a >> 3);
		s = s + (a & 1023) - (b % 7);
		if (s > 1000000) {
			s = s - 1000000;
		}
	}
	return s;
}
`

// CompileConfig parameterizes the experiment.
type CompileConfig struct {
	// Iters is the workload loop trip count per call.
	Iters int64
	// Sweeps is the paired repetition count of the two engines.
	Sweeps int
	// DiffIters is the loop trip count of the differential-oracle run
	// (the oracle interprets and shadow-executes, so it costs more than
	// either engine alone).
	DiffIters int64
}

// DefaultCompile returns the full-scale setup.
func DefaultCompile() CompileConfig {
	return CompileConfig{Iters: 2_000_000, Sweeps: 5, DiffIters: 200_000}
}

// CompileReport holds the measured evidence.
type CompileReport struct {
	Config CompileConfig

	// Ret is the workload result every engine must return.
	Ret int64
	// InterpNS/CompiledNS are the fastest wall times of one call, in
	// nanoseconds.
	InterpNS   int64
	CompiledNS int64
	// Speedup is the interpreter's time over the compiled tier's, as the
	// median of paired ratios.
	Speedup float64
	// CompileUS is the one-time unit lowering cost, in microseconds.
	CompileUS int64
	// CompiledDispatches counts bodies the compiled tier executed across
	// the compiled-engine sweeps.
	CompiledDispatches int64
	// DiffRet is the differential run's result (must equal an
	// interpreter run at the same trip count); Divergences must be zero.
	DiffRet     int64
	Divergences int64
}

// compileInstance is one engine's instance of the workload with the
// answer of its first (untimed) call.
type compileInstance struct {
	engine privagic.Engine
	inst   *privagic.Instance
	iters  int64
	ret    int64
}

func newCompileInstance(engine privagic.Engine, iters int64) (*compileInstance, error) {
	prog, err := privagic.Compile("compile.c", compileSrc, privagic.Options{
		Mode:    privagic.Relaxed,
		Entries: []string{"hot"},
		Engine:  engine,
	})
	if err != nil {
		return nil, fmt.Errorf("compile bench: %s compile: %w", engine, err)
	}
	c := &compileInstance{engine: engine, inst: prog.Instantiate(nil), iters: iters}
	if c.ret, err = c.inst.Call("hot", iters); err != nil {
		c.inst.Close()
		return nil, fmt.Errorf("compile bench: %s run: %w", engine, err)
	}
	return c, nil
}

// call is one timed sweep; it must reproduce the first call's answer.
func (c *compileInstance) call(*span) error {
	r, err := c.inst.Call("hot", c.iters)
	if err != nil {
		return fmt.Errorf("compile bench: %s sweep: %w", c.engine, err)
	}
	if r != c.ret {
		return fmt.Errorf("compile bench: %s sweep returned %d, first call returned %d", c.engine, r, c.ret)
	}
	return nil
}

// CompileBench runs the experiment. It returns an error if any engine
// disagrees on the result or if the differential oracle reports a
// divergence; the 5x speedup bar is a gate.
func CompileBench(cfg CompileConfig) (*CompileReport, error) {
	if cfg.Iters < 1 {
		cfg.Iters = 1
	}
	if cfg.Sweeps < 1 {
		cfg.Sweeps = 1
	}
	if cfg.DiffIters < 1 {
		cfg.DiffIters = max(cfg.Iters/10, 1)
	}
	rep := &CompileReport{Config: cfg}

	var engines [4]*compileInstance
	for i, e := range []struct {
		engine privagic.Engine
		iters  int64
	}{
		{privagic.EngineInterp, cfg.Iters},
		{privagic.EngineCompiled, cfg.Iters},
		// The differential run: both engines lockstep per chunk,
		// hard-error on any divergence. Reduced trip count (the oracle
		// runs everything twice), checked against an interpreter run at
		// the same count.
		{privagic.EngineDifferential, cfg.DiffIters},
		{privagic.EngineInterp, cfg.DiffIters},
	} {
		c, err := newCompileInstance(e.engine, e.iters)
		if err != nil {
			return nil, err
		}
		defer c.inst.Close()
		engines[i] = c
	}
	interp, compiled, diff, diffRef := engines[0], engines[1], engines[2], engines[3]
	if compiled.ret != interp.ret {
		return nil, fmt.Errorf("compile bench: engines disagree: interp %d, compiled %d", interp.ret, compiled.ret)
	}
	rep.Divergences = diff.inst.ExecStats().OracleDivergences
	if rep.Divergences != 0 {
		return nil, fmt.Errorf("compile bench: differential oracle reported %d divergence(s)", rep.Divergences)
	}
	if diff.ret != diffRef.ret {
		return nil, fmt.Errorf("compile bench: differential run returned %d, interpreter reference %d", diff.ret, diffRef.ret)
	}

	p, err := paired(cfg.Sweeps, interp.call, compiled.call)
	if err != nil {
		return nil, err
	}
	st := compiled.inst.ExecStats()
	if st.CompiledDispatches == 0 {
		return nil, fmt.Errorf("compile bench: compiled engine never dispatched a compiled body")
	}
	rep.Ret = interp.ret
	rep.InterpNS = p.A.Min.Nanoseconds()
	rep.CompiledNS = p.B.Min.Nanoseconds()
	if p.Ratio > 0 {
		rep.Speedup = 1 / p.Ratio
	}
	rep.CompileUS = st.CompileTime.Microseconds()
	rep.CompiledDispatches = st.CompiledDispatches
	rep.DiffRet = diff.ret
	return rep, nil
}

// Gates holds the compiled tier to a 5x speedup on the workload built to
// be interpreter-bound.
func (r *CompileReport) Gates() []Gate {
	return []Gate{timing(atLeast("compiled-tier speedup", r.Speedup, 5, "x"))}
}

// String renders the report.
func (r *CompileReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "closure-compiled execution — pure-compute workload (%d iterations/call, %d paired sweeps)\n",
		r.Config.Iters, r.Config.Sweeps)
	fmt.Fprintf(&b, "  %-28s %14s\n", "", "fastest call")
	fmt.Fprintf(&b, "  %-28s %14s\n", "interpreter", time.Duration(r.InterpNS))
	fmt.Fprintf(&b, "  %-28s %14s\n", "compiled", time.Duration(r.CompiledNS))
	fmt.Fprintf(&b, "  speedup: %.2fx median of paired ratios   (unit lowering %dus, %d compiled dispatches)\n",
		r.Speedup, r.CompileUS, r.CompiledDispatches)
	fmt.Fprintf(&b, "  differential oracle: %d iterations, %d divergences, result %d matches the interpreter\n",
		r.Config.DiffIters, r.Divergences, r.DiffRet)
	return b.String()
}
