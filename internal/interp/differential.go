package interp

// The differential oracle (prt.EngineDifferential): every chunk
// activation runs twice. The live pass is the reference interpreter with
// a recorder installed — each operation with an effect or an
// environment-supplied result (loads, stores, allocations, spawns,
// waits, sends, builtins, indirect invocations) appends one diffOp to a
// trace. The shadow pass then re-executes the same activation on the
// compiled tier against diffEnv, a second exec.Env implementation that
// consumes the trace: outbound operands (store values, spawn payloads,
// builtin arguments) are checked against what the live pass computed,
// inbound results (loaded values, wait payloads, builtin returns) are
// replayed from the trace so the shadow stays lockstep with the live
// schedule instead of re-running effects. Any disagreement — a different
// operation kind, a different operand, a leftover or exhausted trace, a
// different result, or a different error — raises a DivergenceError.
//
// The comparison is per-activation and total over the recorded surface:
// if the compiled tier computes any address, operand, branch path
// (branches decide which ops run), or result differently from the
// interpreter, the trace cannot match. Builtin outputs are implied by
// builtin-argument equality (the builtin itself runs only once, in the
// live pass), which is the oracle's one documented abstraction.

import (
	"errors"
	"fmt"

	"privagic/internal/exec"
	"privagic/internal/ir"
	"privagic/internal/obs"
	"privagic/internal/partition"
	"privagic/internal/passes/compile"
	"privagic/internal/prt"
)

// ErrDivergence is the sentinel wrapped by every DivergenceError: the
// two engines disagreed, which is always a compiler (or oracle) bug,
// never a program bug.
var ErrDivergence = errors.New("interp: differential engines diverged")

// DivergenceError reports a differential-oracle failure.
type DivergenceError struct {
	// Chunk names the chunk body whose engines disagreed.
	Chunk string
	// Detail describes the first point of disagreement.
	Detail string
}

// Error renders the divergence report.
func (e *DivergenceError) Error() string {
	return fmt.Sprintf("interp: differential divergence in chunk @%s: %s", e.Chunk, e.Detail)
}

// Unwrap ties every divergence to the ErrDivergence sentinel.
func (e *DivergenceError) Unwrap() error { return ErrDivergence }

// diffOpKind classifies one recorded operation.
type diffOpKind uint8

const (
	opLoad   diffOpKind = iota // a=addr, v=loaded value
	opStore                    // a=addr, v=stored value
	opAlloca                   // v=address
	opMalloc                   // a=count, v=address
	opCall                     // name=builtin, vec=args, v=result
	opInvoke                   // a=fnptr index, vec=args, v=result
	opSpawn                    // a=chunkID, b=needReply, vec=payload
	opWait                     // a=tag, v=payload
	opJoin                     // a=tag, v=payload
	opSend                     // a=colorIdx, b=tag, v=value
	opSendV                    // a=colorIdx, b=tag, vec=values
	opWaitV                    // b=tag, vec=values, v=first value
	opElem                     // a=tag, b=index, v=value
	opError                    // name=error text (always the final op)
)

var diffOpNames = [...]string{
	opLoad: "load", opStore: "store", opAlloca: "alloca", opMalloc: "malloc",
	opCall: "call", opInvoke: "invoke", opSpawn: "spawn", opWait: "wait",
	opJoin: "join", opSend: "send", opSendV: "sendv", opWaitV: "waitv",
	opElem: "elem", opError: "error",
}

func (k diffOpKind) String() string {
	if int(k) < len(diffOpNames) {
		return diffOpNames[k]
	}
	return fmt.Sprintf("diffOpKind(%d)", int(k))
}

// diffOp is one recorded operation of the live pass.
type diffOp struct {
	kind diffOpKind
	a, b int64
	v    val
	name string
	vec  []val
}

// diffRecorder accumulates the live pass's trace. It hangs off the
// worker's state; the seam helpers (memLoad, memStore, doAlloca,
// doMalloc, dispatchCall) append to it when present.
type diffRecorder struct{ ops []diffOp }

func (r *diffRecorder) add(op diffOp) { r.ops = append(r.ops, op) }

// recOf returns the worker's active recorder, or nil.
func recOf(w *prt.Worker) *diffRecorder { return stateOf(w).rec }

// valEq compares two machine values bitwise (a float by its bits, so
// NaN compares equal to itself and -0 differs from +0 — the engines must
// agree on bits, not on IEEE equality).
func valEq(a, b val) bool { return a == b }

func vecEq(a, b []val) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !valEq(a[i], b[i]) {
			return false
		}
	}
	return true
}

// divergence is the shadow's internal "engines disagree" panic; runShadow
// recovers it into a verdict.
type divergence struct{ detail string }

// shadowStop is the shadow's internal "reached the live pass's error
// position" panic: the next trace op is opError, meaning the live pass
// aborted exactly here, so the shadow agrees by arriving at the same
// operation.
type shadowStop struct{}

// runDifferential runs one chunk activation under the oracle: live
// interpretation with recording, then the compiled shadow over the
// trace, then the verdict. The live pass's result (or error) is what the
// caller observes — unless the engines diverged, in which case a
// DivergenceError replaces it.
func (ip *Interp) runDifferential(w *prt.Worker, ch *partition.Chunk, args []val) val {
	cf := ip.compiledFn(ch.Fn)
	if cf == nil {
		// The compiler skipped this body (empty); nothing to compare.
		return ip.runFn(w, ch.Fn, args)
	}
	rec := &diffRecorder{}
	ws := stateOf(w)
	prev := ws.rec
	ws.rec = rec
	var liveRet val
	var liveErr error
	m := ws.stack.mark()
	func() {
		defer func() {
			ws.rec = prev
			// A live pass that panicked gives its frames back here.
			ws.stack.release(m)
			r := recover()
			if r == nil {
				return
			}
			if _, injected := r.(interface{ InjectedFault() }); injected {
				// An injected crash is schedule chaos, not program
				// semantics: the recovery layer replays the chunk (and the
				// replay runs under the oracle again), so skip the shadow.
				panic(r)
			}
			re, ok := r.(runtimeErr)
			if !ok {
				panic(r)
			}
			rec.add(diffOp{kind: opError, name: re.Err.Error()})
			liveErr = re.Err
		}()
		liveRet = ip.runFn(w, ch.Fn, args)
	}()
	env := &diffEnv{ip: ip, w: w, rec: rec}
	shadowRet, shadowErr, div, stopped := ip.runShadow(cf, w, args, env)
	detail := ""
	switch {
	case div != nil:
		detail = div.detail
	case stopped:
		// The shadow reached the operation where the live pass aborted:
		// agreement (the recorder guarantees opError is only appended on a
		// live error, so liveErr is set here).
	case shadowErr != nil:
		// The shadow raised its own pure runtime error (arithmetic,
		// nil deref, budget): the live pass must have recorded the same
		// error text at the same trace position.
		next := env.peek()
		switch {
		case liveErr == nil:
			detail = fmt.Sprintf("compiled engine raised %q but the interpreter completed", shadowErr)
		case next == nil || next.kind != opError:
			detail = fmt.Sprintf("compiled engine raised %q before consuming the interpreter's trace", shadowErr)
		case next.name != shadowErr.Error():
			detail = fmt.Sprintf("compiled engine raised %q where the interpreter raised %q", shadowErr, next.name)
		}
	default:
		switch {
		case liveErr != nil:
			detail = fmt.Sprintf("compiled engine completed but the interpreter raised %q", liveErr)
		case env.cursor != len(rec.ops):
			next := rec.ops[env.cursor]
			detail = fmt.Sprintf("compiled engine skipped %d interpreter operation(s), first unconsumed: %s", len(rec.ops)-env.cursor, next.kind)
		case !valEq(shadowRet, liveRet):
			detail = fmt.Sprintf("result mismatch: interpreter %v, compiled %v", liveRet, shadowRet)
		}
	}
	if detail != "" {
		ip.es.divergences.Add(1)
		ip.RT.Tracer.Record(obs.EvDivergence, w.Index, ch.ID, 0, 0, int64(env.cursor))
		panic(runtimeErr{Err: &DivergenceError{Chunk: ch.Fn.FName, Detail: detail}})
	}
	if liveErr != nil {
		panic(runtimeErr{Err: liveErr})
	}
	return liveRet
}

// runShadow executes the compiled shadow pass, classifying its outcome:
// a clean return, a divergence, a pure runtime error, or a stop at the
// live pass's recorded error position.
func (ip *Interp) runShadow(cf *compile.Fn, w *prt.Worker, args []val, env *diffEnv) (ret val, serr error, div *divergence, stopped bool) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		switch t := r.(type) {
		case shadowStop:
			stopped = true
		case divergence:
			div = &t
		case runtimeErr:
			serr = t.Err
		default:
			panic(r)
		}
	}()
	ret = ip.runCompiled(cf, w, args, env)
	return
}

// diffEnv is the trace-checking exec.Env the shadow pass runs against.
// Outbound operands are compared against the live trace; inbound results
// are replayed from it. It never touches the runtime's memory, queues,
// or journal — the live pass already performed every effect.
type diffEnv struct {
	ip     *Interp
	w      *prt.Worker
	rec    *diffRecorder
	cursor int
}

// peek returns the next unconsumed op, or nil.
func (e *diffEnv) peek() *diffOp {
	if e.cursor >= len(e.rec.ops) {
		return nil
	}
	return &e.rec.ops[e.cursor]
}

// pop consumes the next op, requiring its kind. Hitting opError means
// the shadow reached the live pass's abort position (shadowStop); any
// other kind mismatch, or an exhausted trace, is a divergence.
func (e *diffEnv) pop(kind diffOpKind) *diffOp {
	op := e.peek()
	if op == nil {
		e.diverge("compiled engine performed a %s past the end of the interpreter's trace", kind)
	}
	if op.kind == opError {
		panic(shadowStop{})
	}
	if op.kind != kind {
		e.diverge("compiled engine performed a %s where the interpreter recorded a %s", kind, op.kind)
	}
	e.cursor++
	return op
}

func (e *diffEnv) diverge(format string, args ...any) {
	panic(divergence{fmt.Sprintf(format, args...)})
}

// GlobalAddr mirrors the live resolution (compile-time only; the shadow
// runs a unit compiled against liveEnv, so this exists to satisfy
// exec.Env).
func (e *diffEnv) GlobalAddr(g *ir.Global) exec.Val { return e.ip.live.GlobalAddr(g) }

// FuncValue mirrors the live resolution (compile-time only).
func (e *diffEnv) FuncValue(fn *ir.Function) exec.Val { return e.ip.live.FuncValue(fn) }

// FieldOffset mirrors the live field layout (compile-time only).
func (e *diffEnv) FieldOffset(t *ir.FieldAddr) (int64, bool) { return e.ip.live.FieldOffset(t) }

// ElemStride mirrors the live stride (compile-time only).
func (e *diffEnv) ElemStride(elem ir.Type) int64 { return e.ip.live.ElemStride(elem) }

// Alloca replays the live allocation's address.
func (e *diffEnv) Alloca(w *prt.Worker, t *ir.Alloca) exec.Val {
	return e.pop(opAlloca).v
}

// Malloc checks the element count and replays the live address.
func (e *diffEnv) Malloc(w *prt.Worker, t *ir.Malloc, count exec.Val) exec.Val {
	op := e.pop(opMalloc)
	if op.a != count.I {
		e.diverge("malloc count mismatch: interpreter %d, compiled %d", op.a, count.I)
	}
	return op.v
}

// Load checks the address and replays the loaded value (re-reading
// memory would race with effects the live pass already performed).
func (e *diffEnv) Load(w *prt.Worker, t *ir.Load, addr uint64) exec.Val {
	op := e.pop(opLoad)
	if op.a != int64(addr) {
		e.diverge("load address mismatch: interpreter %#x, compiled %#x", uint64(op.a), addr)
	}
	return op.v
}

// Store checks the address and the stored value.
func (e *diffEnv) Store(w *prt.Worker, t *ir.Store, addr uint64, v exec.Val) {
	op := e.pop(opStore)
	if op.a != int64(addr) {
		e.diverge("store address mismatch: interpreter %#x, compiled %#x", uint64(op.a), addr)
	}
	if !valEq(op.v, v) {
		e.diverge("store value mismatch at %#x: interpreter %v, compiled %v", addr, op.v, v)
	}
}

// FieldAddr mirrors fieldAddrAt: plain fields compute the offset; a
// colored field of a split structure consumes the slot load the live
// pass recorded and replays the out-of-line pointer.
func (e *diffEnv) FieldAddr(w *prt.Worker, t *ir.FieldAddr, base exec.Val) exec.Val {
	off, plain := e.ip.fieldOffset(t)
	if plain {
		return iv(base.I + off)
	}
	if base.I == 0 {
		exec.Errf("interp: nil dereference: %q (split-field slot load)", t.String())
	}
	slotAddr := uint64(base.I) + uint64(off)
	op := e.pop(opLoad)
	if op.a != int64(slotAddr) {
		e.diverge("split-field slot address mismatch: interpreter %#x, compiled %#x", uint64(op.a), slotAddr)
	}
	return op.v
}

// Call mirrors dispatchCall against the trace: intrinsics check their
// outbound operands and replay inbound payloads; direct calls recurse
// into the callee's compiled body under the same trace (the live pass
// recorded the callee's operations inline); builtins and indirect
// invocations check arguments and replay the recorded result.
func (e *diffEnv) Call(w *prt.Worker, t *ir.Call, callee exec.Val, args []exec.Val) exec.Val {
	fn, direct := t.Callee.(*ir.Function)
	if !direct {
		idx := callee.I
		if idx <= 0 || int(idx) > len(e.ip.ifaceTable) {
			exec.Errf("interp: indirect call through invalid function pointer %d", idx)
		}
		op := e.pop(opInvoke)
		if op.a != idx {
			e.diverge("indirect callee mismatch: interpreter %d, compiled %d", op.a, idx)
		}
		if !vecEq(op.vec, args) {
			e.diverge("indirect call arguments mismatch for function pointer %d", idx)
		}
		return op.v
	}
	switch fn.FName {
	case partition.IntrSpawn:
		chunkID := int(args[0].I)
		needReply := args[1].I != 0
		payload := spawnArgs(e.ip.Prog.ChunkByID[chunkID], args[2:])
		op := e.pop(opSpawn)
		nr := int64(0)
		if needReply {
			nr = 1
		}
		if op.a != int64(chunkID) || op.b != nr {
			e.diverge("spawn mismatch: interpreter chunk %d reply %d, compiled chunk %d reply %d", op.a, op.b, chunkID, nr)
		}
		if !vecEq(op.vec, payload) {
			e.diverge("spawn payload mismatch for chunk %d", chunkID)
		}
		return val{}
	case partition.IntrWait:
		op := e.pop(opWait)
		if op.a != args[0].I {
			e.diverge("wait tag mismatch: interpreter %d, compiled %d", op.a, args[0].I)
		}
		return op.v
	case partition.IntrJoin:
		op := e.pop(opJoin)
		if op.a != args[0].I {
			e.diverge("join tag mismatch: interpreter %d, compiled %d", op.a, args[0].I)
		}
		return op.v
	case partition.IntrSend:
		op := e.pop(opSend)
		if op.a != args[0].I || op.b != args[1].I {
			e.diverge("send target mismatch: interpreter (%d,%d), compiled (%d,%d)", op.a, op.b, args[0].I, args[1].I)
		}
		if !valEq(op.v, args[2]) {
			e.diverge("send value mismatch on tag %d: interpreter %v, compiled %v", op.b, op.v, args[2])
		}
		return val{}
	case partition.IntrSendV:
		op := e.pop(opSendV)
		if op.a != args[0].I || op.b != args[1].I {
			e.diverge("sendv target mismatch: interpreter (%d,%d), compiled (%d,%d)", op.a, op.b, args[0].I, args[1].I)
		}
		if !vecEq(op.vec, args[2:]) {
			e.diverge("sendv vector mismatch on tag %d", op.b)
		}
		return val{}
	case partition.IntrWaitV:
		op := e.pop(opWaitV)
		if op.b != args[0].I {
			e.diverge("waitv tag mismatch: interpreter %d, compiled %d", op.b, args[0].I)
		}
		return op.v
	case partition.IntrElem:
		op := e.pop(opElem)
		if op.a != args[0].I || op.b != args[1].I {
			e.diverge("elem mismatch: interpreter (%d,%d), compiled (%d,%d)", op.a, op.b, args[0].I, args[1].I)
		}
		return op.v
	}
	if !fn.External {
		// Direct call: the live pass interpreted the callee inline under
		// the same recorder, so the shadow recurses into the callee's
		// compiled body over the same trace.
		if cf := e.ip.compiledFn(fn); cf != nil {
			return e.ip.runCompiled(cf, w, args, e)
		}
		return val{}
	}
	op := e.pop(opCall)
	if op.name != fn.FName {
		e.diverge("builtin mismatch: interpreter @%s, compiled @%s", op.name, fn.FName)
	}
	if !vecEq(op.vec, args) {
		e.diverge("builtin @%s arguments mismatch", fn.FName)
	}
	return op.v
}

// SeamlessLoad reads backing memory directly WITHOUT consuming the
// live trace — it exists so a unit compiled with the test-only
// SkipLoadSeam option demonstrably diverges (the live pass recorded a
// load the shadow never consumes).
func (e *diffEnv) SeamlessLoad(w *prt.Worker, t *ir.Load, addr uint64) exec.Val {
	return e.ip.rawLoad(w, addr, t.Type())
}
