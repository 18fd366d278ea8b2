package interp

// Engine selection and the live exec.Env implementation.
//
// The interpreter owns every execution seam (memory checks, boundary
// snapshots, effect transactions, the replay journal, call dispatch);
// the compiled tier reaches them through exec.Env. liveEnv is that
// adapter: each method delegates to the same helper the interpreter's
// own instruction loop uses, so a compiled chunk crosses exactly the
// defenses an interpreted chunk crosses — the seam-preservation claim of
// DESIGN.md §18 is this file being one-line delegations.

import (
	"fmt"
	"time"

	"privagic/internal/exec"
	"privagic/internal/ir"
	"privagic/internal/passes/compile"
	"privagic/internal/prt"
)

// Engine selects the chunk execution tier every body of an Interp runs
// on. The zero value is the interpreter.
type Engine uint8

const (
	// EngineInterp runs chunk bodies on the reference interpreter.
	EngineInterp Engine = iota
	// EngineCompiled runs chunk bodies as closure-compiled step arrays
	// (internal/passes/compile).
	EngineCompiled
	// EngineDifferential runs the interpreter live, then replays the
	// compiled tier against the recorded trace and hard-errors on any
	// divergence (the differential oracle, DESIGN.md §18).
	EngineDifferential
)

// String names the engine for diagnostics.
func (e Engine) String() string {
	switch e {
	case EngineCompiled:
		return "compiled"
	case EngineDifferential:
		return "differential"
	default:
		return "interp"
	}
}

// SetEngine selects the execution tier every chunk body of the instance
// runs on. Call it before the first Call: the workers read it without a
// lock. The compiled and differential tiers lower every chunk body
// through internal/passes/compile on first selection; the returned error
// reports a compile-time failure (which leaves the engine as it was).
func (ip *Interp) SetEngine(e Engine) (err error) {
	if e != EngineInterp && ip.unit == nil {
		defer func() {
			if r := recover(); r != nil {
				if re, ok := r.(runtimeErr); ok {
					err = fmt.Errorf("interp: compiling unit: %w", re.Err)
					return
				}
				panic(r)
			}
		}()
		start := time.Now()
		unit := compile.New(ip.Prog.CompileSet(), ip.live, compile.Options{})
		ip.es.compileUS.Store(time.Since(start).Microseconds())
		ip.unit = unit
	}
	ip.engine = e
	return nil
}

// OverrideUnit replaces the compiled unit — a test lever (the negative
// differential-oracle test compiles a deliberately seam-skipping unit).
func (ip *Interp) OverrideUnit(opts compile.Options) {
	ip.unit = compile.New(ip.Prog.CompileSet(), ip.live, opts)
}

// ExecStats reports the engine-selection counters backing the exec.*
// metric gauges.
func (ip *Interp) ExecStats() ExecStats {
	return ExecStats{
		CompileTime:        time.Duration(ip.es.compileUS.Load()) * time.Microsecond,
		CompiledDispatches: ip.es.compiledRuns.Load(),
		OracleDivergences:  ip.es.divergences.Load(),
	}
}

// ExecStats is the engine-selection counter snapshot.
type ExecStats struct {
	// CompileTime is the wall time SetEngine spent lowering the unit.
	CompileTime time.Duration
	// CompiledDispatches counts chunk/helper bodies run on the compiled
	// tier.
	CompiledDispatches int64
	// OracleDivergences counts differential-oracle failures (zero on a
	// healthy build; any nonzero value is a compiler bug).
	OracleDivergences int64
}

// compiledFn resolves a function's compiled form (nil when the unit does
// not exist or skipped the body).
func (ip *Interp) compiledFn(fn *ir.Function) *compile.Fn {
	if ip.unit == nil {
		return nil
	}
	return ip.unit.Fn(fn)
}

// runCompiled executes a compiled body: a dense register frame replaces
// the interpreter's value map, and the step array drives itself to a
// return. Runtime errors surface as the same runtimeErr panics the
// interpreter raises.
//
// The frame comes from the worker's free list and goes back once the
// body returns; a panicking body drops its frame. args may alias the
// caller's frame (the call step's argument area), so they are copied in
// before the body runs and never kept. The activation gives its stack
// frames back, and publishes its boundary counts, when it returns, like
// runFn; the differential shadow pass replays the live pass's alloca
// addresses, so it has no frames to give back.
func (ip *Interp) runCompiled(cf *compile.Fn, w *prt.Worker, args []val, env exec.Env) val {
	ws := stateOf(w)
	fl := &ws.frames
	fr := fl.get(cf.NumSlots)
	fr.W, fr.Env = w, env
	n := cf.NumParams
	if n > len(args) {
		n = len(args)
	}
	copy(fr.Regs[:n], args[:n])
	m := ws.stack.mark()
	ret := exec.Run(cf.Code, fr)
	ws.stack.release(m)
	ip.publishCounts(ws)
	fl.put(fr)
	return ret
}

// maxFreeFrames bounds a worker's free list, so one deep recursion does
// not pin its whole stack of frames for the worker's lifetime.
const maxFreeFrames = 256

// frameList is a worker's LIFO free list of compiled activation frames
// (part of the worker's state). Nested activations pop in call order and
// push back in return order, so the most recently used frame, with the
// warmest register file, is the next one handed out.
type frameList struct{ free []*exec.Frame }

// get returns a frame with n cleared registers and a reset activation
// state.
func (fl *frameList) get(n int) *exec.Frame {
	var fr *exec.Frame
	if k := len(fl.free); k > 0 {
		fr = fl.free[k-1]
		fl.free = fl.free[:k-1]
	} else {
		fr = &exec.Frame{}
	}
	if cap(fr.Regs) < n {
		fr.Regs = make([]exec.Val, n)
	} else {
		fr.Regs = fr.Regs[:n]
		clear(fr.Regs)
	}
	fr.Ret, fr.Steps = exec.Val{}, 0
	return fr
}

// put returns a finished activation's frame to the list. The env is
// dropped so a pooled frame does not keep a differential trace alive.
func (fl *frameList) put(fr *exec.Frame) {
	if len(fl.free) < maxFreeFrames {
		fr.Env = nil
		fl.free = append(fl.free, fr)
	}
}

// liveEnv adapts the interpreter's seams to exec.Env for the compiled
// tier. Every method is a delegation to the helper the interpreter's own
// loop uses. An Interp has exactly one (Interp.live, set in New).
type liveEnv struct{ ip *Interp }

// GlobalAddr resolves a global's encoded address (compile time).
func (e *liveEnv) GlobalAddr(g *ir.Global) exec.Val {
	addr, ok := e.ip.globals[g]
	if !ok {
		errf("interp: global %s not allocated", g.Name())
	}
	return iv(int64(addr))
}

// FuncValue resolves a function-pointer value (compile time).
func (e *liveEnv) FuncValue(fn *ir.Function) exec.Val {
	return iv(int64(e.ip.internFunc(fn.FName)))
}

// Alloca services a stack allocation.
func (e *liveEnv) Alloca(w *prt.Worker, t *ir.Alloca) exec.Val {
	return e.ip.doAlloca(w, t)
}

// Malloc services a heap allocation.
func (e *liveEnv) Malloc(w *prt.Worker, t *ir.Malloc, count exec.Val) exec.Val {
	return e.ip.doMalloc(w, t, count.I)
}

// Load performs the mode-checked load.
func (e *liveEnv) Load(w *prt.Worker, t *ir.Load, addr uint64) exec.Val {
	return e.ip.memLoad(w, addr, t.Type())
}

// Store performs the mode-checked store.
func (e *liveEnv) Store(w *prt.Worker, t *ir.Store, addr uint64, v exec.Val) {
	e.ip.memStore(w, addr, v, wordType(t.Val))
}

// FieldAddr computes a field address with the split-structure
// indirection.
func (e *liveEnv) FieldAddr(w *prt.Worker, t *ir.FieldAddr, base exec.Val) exec.Val {
	return e.ip.fieldAddrAt(w, t, uint64(base.I))
}

// FieldOffset reports a field's offset and whether it is plain (compile
// time).
func (e *liveEnv) FieldOffset(t *ir.FieldAddr) (int64, bool) {
	return e.ip.fieldOffset(t)
}

// ElemStride reports an element type's in-memory stride (compile time).
func (e *liveEnv) ElemStride(elem ir.Type) int64 {
	size := elem.Size()
	if ly := e.ip.layoutOf(elem); ly != nil {
		size = ly.size
	}
	return size
}

// Call dispatches a call instruction.
func (e *liveEnv) Call(w *prt.Worker, t *ir.Call, callee exec.Val, args []exec.Val) exec.Val {
	return e.ip.dispatchCall(w, t, callee, args)
}

// SeamlessLoad reads backing memory with the mode check only, bypassing
// the snapshot/transaction/journal seams — reachable only from a unit
// compiled with the test-only SkipLoadSeam option.
func (e *liveEnv) SeamlessLoad(w *prt.Worker, t *ir.Load, addr uint64) exec.Val {
	return e.ip.rawLoad(w, addr, t.Type())
}

// rawLoad is the seamless backing read behind SeamlessLoad.
func (ip *Interp) rawLoad(w *prt.Worker, addr uint64, typ ir.Type) val {
	size := typ.Size()
	if size > 8 {
		errf("interp: aggregate load of %s", typ)
	}
	ref := ip.RT.Space.Resolve(addr)
	if err := ref.Check(w.Mode, int(size), false); err != nil {
		panic(runtimeErr{Err: err})
	}
	var buf [8]byte
	ref.Region.Load(ref.Off, buf[:size])
	return iv(getInt(buf[:size]))
}
