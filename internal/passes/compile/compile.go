// Package compile lowers partitioned chunk bodies to closure-compiled
// Go: a flat per-function array of exec.Steps, one position per SSA
// instruction, with operands pre-resolved to dense register slots (or
// baked-in immediates), block jump targets pre-resolved to step indices,
// and φ-nodes turned into parallel edge copies executed by the incoming
// branch step.
//
// Each step's closure is picked at compile time by its operands' kinds
// (slot or immediate), so a step never tests what an operand is; exec's
// BinOp, Cmp and Cast remain the fallback for floats and rare operators.
// Three hot patterns compile into superinstructions, one step at the
// position of the pattern's first instruction:
//
//   - compare-and-branch: an integer cmp, optionally the cast and
//     `cmp ne …, 0` of minic's truth idiom, and the condbr that ends the
//     block on it. The step writes every slot of the pattern before the
//     branch runs its φ copies, which may read them;
//   - field access: a plain fieldaddr and the load or store through it.
//     The step writes the fieldaddr's slot and makes the same nil check
//     and Env call as the unfused pair;
//   - a br without φ copies skips the copy loop.
//
// The positions of absorbed instructions hold one shared step that no
// jump reaches (absorbed instructions are never the first of a block), so
// Fn.BlockPC and the step count are those of the unfused layout. Error
// texts (nil dereference, step budget, fall-through) are rendered only
// when the error happens.
//
// The security and robustness seams are not re-implemented: memory,
// allocation, field indirection, and call dispatch compile into calls on
// exec.Env — the same interface the interpreter's own loop uses — so the
// sanitizer, boundary snapshot, effect transaction, replay journal, and
// observability hooks fire identically in both tiers (DESIGN.md §18).
//
// A Unit is compiled per interpreter instance: global addresses,
// function-pointer values, plain field offsets and element strides are
// resolved through the Env at compile time and baked into the closures
// as immediates. Only a colored field of a split structure still reaches
// Env.FieldAddr at run time (its address is loaded from memory).
//
// Call steps allocate nothing: each function reserves its largest call
// arity as trailing register slots, and a call evaluates its arguments
// there and passes that window of the frame to Env.Call.
package compile

import (
	"time"

	"privagic/internal/exec"
	"privagic/internal/ir"
	"privagic/internal/value"
)

// Options tunes a compilation unit.
type Options struct {
	// SkipLoadSeam compiles every load into a raw backing-memory read
	// through exec.SeamlessLoader, bypassing the boundary-snapshot /
	// effect-transaction / journal seams. It exists solely so the
	// negative differential-oracle test can prove a seam-skipping
	// compile is caught rather than silently faster-and-wrong; it must
	// never be set in production.
	SkipLoadSeam bool
}

// Unit is the compiled form of a program's chunk bodies.
type Unit struct {
	fns map[*ir.Function]*Fn

	// CompileTime is the wall time spent lowering the unit.
	CompileTime time.Duration
	// Steps is the total number of compiled steps across all functions.
	Steps int
}

// New compiles every function in fns (functions without bodies are
// skipped; duplicates are compiled once). The env is consulted at
// compile time for global addresses, function-pointer values, field
// offsets and element strides, so the unit is bound to the interpreter
// instance that provided it.
func New(fns []*ir.Function, env exec.Env, opts Options) *Unit {
	start := time.Now()
	u := &Unit{fns: make(map[*ir.Function]*Fn, len(fns))}
	for _, fn := range fns {
		if fn == nil || len(fn.Blocks) == 0 {
			continue
		}
		if _, dup := u.fns[fn]; dup {
			continue
		}
		cf := compileFn(fn, env, opts)
		u.fns[fn] = cf
		u.Steps += len(cf.Code)
	}
	u.CompileTime = time.Since(start)
	return u
}

// Fn returns the compiled form of fn, or nil if fn was not in the unit
// (callers fall back to the interpreter).
func (u *Unit) Fn(fn *ir.Function) *Fn { return u.fns[fn] }

// Len returns the number of compiled functions.
func (u *Unit) Len() int { return len(u.fns) }

// Fn is one compiled function body.
type Fn struct {
	// IR is the source function.
	IR *ir.Function
	// Code is the flat step array; execution starts at index 0.
	Code []exec.Step
	// NumSlots is the register-file size an activation frame needs:
	// parameters, instruction results, then the call-argument area.
	NumSlots int
	// NumParams is how many leading slots receive arguments.
	NumParams int

	slots   map[ir.Value]int
	blockPC map[*ir.Block]int
}

// SlotOf reports the register slot assigned to a value (a parameter or
// an instruction result), for tests and debugging.
func (f *Fn) SlotOf(v ir.Value) (int, bool) {
	s, ok := f.slots[v]
	return s, ok
}

// BlockPC reports the step index a jump to block b lands on (its first
// non-φ instruction), for tests and debugging.
func (f *Fn) BlockPC(b *ir.Block) (int, bool) {
	c, ok := f.blockPC[b]
	return c, ok
}

// operand is a pre-resolved instruction input: a register slot, or an
// immediate baked at compile time (constants, globals, function values).
type operand struct {
	slot int // -1 for immediates
	imm  exec.Val
}

// get reads the operand, testing its kind at run time. The specialized
// steps never call it; it serves call arguments, φ copies, the seam
// arguments of allocation and split-field steps, and the exec fallbacks.
func (o operand) get(fr *exec.Frame) exec.Val {
	if o.slot >= 0 {
		return fr.Regs[o.slot]
	}
	return o.imm
}

// edgeCopy is one φ assignment performed by an incoming branch.
type edgeCopy struct {
	dst int
	src operand
}

// edge is one block exit: the φ copies it performs and the step it
// lands on.
type edge struct {
	copies []edgeCopy
	pc     int
}

// apply performs the edge's φ copies with parallel-assignment semantics:
// all sources are read before any destination is written.
func (e *edge) apply(fr *exec.Frame) {
	switch len(e.copies) {
	case 0:
	case 1:
		fr.Regs[e.copies[0].dst] = e.copies[0].src.get(fr)
	default:
		var buf [8]exec.Val
		vals := buf[:0]
		for i := range e.copies {
			vals = append(vals, e.copies[i].src.get(fr))
		}
		for i := range e.copies {
			fr.Regs[e.copies[i].dst] = vals[i]
		}
	}
}

type fnCompiler struct {
	fn      *ir.Function
	env     exec.Env
	opts    Options
	slots   map[ir.Value]int
	nslots  int
	argBase int // first slot of the call-argument area
	blockPC map[*ir.Block]int
	code    []exec.Step
}

func compileFn(fn *ir.Function, env exec.Env, opts Options) *Fn {
	c := &fnCompiler{
		fn:      fn,
		env:     env,
		opts:    opts,
		slots:   make(map[ir.Value]int, 16),
		blockPC: make(map[*ir.Block]int, len(fn.Blocks)),
	}
	// Slot assignment: parameters first (the frame builder copies
	// arguments into the leading slots), then every value-producing
	// instruction in block order, then the call-argument area, sized
	// for the widest call.
	for _, p := range fn.Params {
		c.slot(p)
	}
	nparams := c.nslots
	maxArgs := 0
	for _, b := range fn.Blocks {
		for _, in := range b.Instrs {
			if v, ok := in.(ir.Value); ok {
				c.slot(v)
			}
			if call, ok := in.(*ir.Call); ok && len(call.Args) > maxArgs {
				maxArgs = len(call.Args)
			}
		}
	}
	c.argBase = c.nslots
	c.nslots += maxArgs
	// Layout: a jump to a block lands on its first non-φ step (φs
	// compile into the incoming edges, not into steps). A block missing
	// its terminator gets a synthesized fall-through-error step so the
	// count stays exact.
	pc := 0
	for _, b := range fn.Blocks {
		c.blockPC[b] = pc
		pc += len(b.Instrs) - countPhis(b)
		if b.Terminator() == nil {
			pc++
		}
	}
	c.code = make([]exec.Step, 0, pc)
	for _, b := range fn.Blocks {
		c.emitBlock(b)
	}
	return &Fn{
		IR:        fn,
		Code:      c.code,
		NumSlots:  c.nslots,
		NumParams: nparams,
		slots:     c.slots,
		blockPC:   c.blockPC,
	}
}

func countPhis(b *ir.Block) int {
	n := 0
	for _, in := range b.Instrs {
		if _, ok := in.(*ir.Phi); !ok {
			break
		}
		n++
	}
	return n
}

func (c *fnCompiler) slot(v ir.Value) int {
	if s, ok := c.slots[v]; ok {
		return s
	}
	s := c.nslots
	c.slots[v] = s
	c.nslots++
	return s
}

// operand resolves an instruction input. Constants, globals, and
// function values become immediates (globals and functions through the
// env, binding the unit to its interpreter instance); everything else
// reads its producer's slot. Unknown values resolve to a zero immediate,
// matching the interpreter's eval fallback.
func (c *fnCompiler) operand(v ir.Value) operand {
	switch t := v.(type) {
	case *ir.ConstInt:
		return operand{slot: -1, imm: value.IV(t.V)}
	case *ir.ConstFloat:
		return operand{slot: -1, imm: value.FV(t.V)}
	case *ir.Null:
		return operand{slot: -1, imm: value.IV(0)}
	case *ir.Global:
		return operand{slot: -1, imm: c.env.GlobalAddr(t)}
	case *ir.Function:
		return operand{slot: -1, imm: c.env.FuncValue(t)}
	}
	if s, ok := c.slots[v]; ok {
		return operand{slot: s}
	}
	return operand{slot: -1}
}

// edge resolves the exit from block `from` into `to`: its target pc and
// the φ copies it performs. A φ without an edge for the predecessor
// receives the zero value, matching the interpreter.
func (c *fnCompiler) edge(from, to *ir.Block) edge {
	e := edge{pc: c.blockPC[to]}
	for _, in := range to.Instrs {
		phi, ok := in.(*ir.Phi)
		if !ok {
			break
		}
		src := operand{slot: -1}
		for _, pe := range phi.Edges {
			if pe.Pred == from {
				src = c.operand(pe.Val)
				break
			}
		}
		e.copies = append(e.copies, edgeCopy{dst: c.slots[phi], src: src})
	}
	return e
}

func (c *fnCompiler) emitBlock(b *ir.Block) {
	body := b.Instrs[countPhis(b):]
	for i := 0; i < len(body); {
		step, n := c.lower(b, body[i:])
		c.code = append(c.code, step)
		for k := 1; k < n; k++ {
			c.code = append(c.code, absorbed)
		}
		i += n
	}
	if b.Terminator() == nil {
		fn := c.fn
		c.code = append(c.code, func(fr *exec.Frame) int {
			exec.Errf("interp: block %%%s of @%s falls through", b.BName, fn.FName)
			return -1
		})
	}
}

// lower compiles the instruction body[0] of block b into a step and
// reports how many instructions of body the step executes: more than one
// for a superinstruction, whose step returns the pc after the last of
// them (or its branch target).
func (c *fnCompiler) lower(b *ir.Block, body []ir.Instr) (exec.Step, int) {
	next := len(c.code) + 1
	fn := c.fn
	switch t := body[0].(type) {
	case *ir.Ret:
		if t.Val == nil {
			return func(fr *exec.Frame) int { fr.Ret = exec.Val{}; return -1 }, 1
		}
		v := c.operand(t.Val)
		if v.slot < 0 {
			k := v.imm
			return func(fr *exec.Frame) int { fr.Ret = k; return -1 }, 1
		}
		s := v.slot
		return func(fr *exec.Frame) int { fr.Ret = fr.Regs[s]; return -1 }, 1

	case *ir.Br:
		e := c.edge(b, t.Target)
		if len(e.copies) != 0 {
			return func(fr *exec.Frame) int {
				tick(fr, fn)
				e.apply(fr)
				return e.pc
			}, 1
		}
		target := e.pc
		return func(fr *exec.Frame) int { tick(fr, fn); return target }, 1

	case *ir.CondBr:
		br := c.branch(b, t)
		co := c.operand(t.Cond)
		if co.slot < 0 {
			k := co.imm.I != 0
			return func(fr *exec.Frame) int { return br.take(fr, k) }, 1
		}
		s := co.slot
		return func(fr *exec.Frame) int { return br.take(fr, fr.Regs[s].I != 0) }, 1

	case *ir.Alloca:
		dst := c.slots[t]
		return func(fr *exec.Frame) int {
			fr.Regs[dst] = fr.Env.Alloca(fr.W, t)
			return next
		}, 1

	case *ir.Malloc:
		dst := c.slots[t]
		co := operand{slot: -1, imm: value.IV(1)}
		if t.Count != nil {
			co = c.operand(t.Count)
		}
		return func(fr *exec.Frame) int {
			fr.Regs[dst] = fr.Env.Malloc(fr.W, t, co.get(fr))
			return next
		}, 1

	case *ir.Free:
		// The bump allocator does not reclaim; free is a no-op step.
		return func(fr *exec.Frame) int { return next }, 1

	case *ir.Load:
		return c.load(t, next), 1

	case *ir.Store:
		return c.store(t, next), 1

	case *ir.BinOp:
		dst, x, y := c.slots[t], c.operand(t.X), c.operand(t.Y)
		op, typ := t.Op, t.Type()
		if !ir.IsFloat(typ) {
			if step := intBinOp(op, dst, x, y, next); step != nil {
				return step, 1
			}
		}
		return func(fr *exec.Frame) int {
			fr.Regs[dst] = exec.BinOp(op, typ, x.get(fr), y.get(fr))
			return next
		}, 1

	case *ir.Cmp:
		dst, x, y := c.slots[t], c.operand(t.X), c.operand(t.Y)
		pred, typ := t.Pred, t.X.Type()
		if ir.IsFloat(typ) {
			return func(fr *exec.Frame) int {
				fr.Regs[dst] = exec.Cmp(pred, typ, x.get(fr), y.get(fr))
				return next
			}, 1
		}
		tl, n := c.cmpBranch(b, body, next)
		return intCmp(pred, typ, x, y, tl), n

	case *ir.Cast:
		dst, v := c.slots[t], c.operand(t.Val)
		from, to := t.Val.Type(), t.Type()
		switch {
		case v.slot < 0:
			return set(dst, exec.Cast(v.imm, from, to), next), 1
		case preservesWord(from, to):
			return move(dst, v.slot, next), 1
		}
		s := v.slot
		return func(fr *exec.Frame) int {
			fr.Regs[dst] = exec.Cast(fr.Regs[s], from, to)
			return next
		}, 1

	case *ir.FieldAddr:
		dst, x := c.slots[t], c.operand(t.X)
		off, plain := c.env.FieldOffset(t)
		switch {
		case !plain:
			return func(fr *exec.Frame) int {
				fr.Regs[dst] = fr.Env.FieldAddr(fr.W, t, x.get(fr))
				return next
			}, 1
		case x.slot < 0:
			return set(dst, exec.Val{I: x.imm.I + off}, next), 1
		}
		if len(body) > 1 {
			if step := c.fieldAccess(t, x.slot, off, body[1], next+1); step != nil {
				return step, 2
			}
		}
		return offset(dst, x.slot, off, next), 1

	case *ir.IndexAddr:
		dst, x, i := c.slots[t], c.operand(t.X), c.operand(t.Index)
		stride := c.env.ElemStride(t.Type().(ir.PointerType).Elem)
		xs, is, kx, ki := x.slot, i.slot, x.imm.I, i.imm.I
		switch kindsOf(x, i) {
		case ss:
			return func(fr *exec.Frame) int {
				fr.Regs[dst].I = fr.Regs[xs].I + fr.Regs[is].I*stride
				return next
			}, 1
		case sk:
			return offset(dst, xs, ki*stride, next), 1
		case ks:
			return func(fr *exec.Frame) int { fr.Regs[dst].I = kx + fr.Regs[is].I*stride; return next }, 1
		}
		return set(dst, exec.Val{I: kx + ki*stride}, next), 1

	case *ir.Call:
		dst := c.slots[t]
		co := c.operand(t.Callee)
		argOps := make([]operand, len(t.Args))
		for i, a := range t.Args {
			argOps[i] = c.operand(a)
		}
		lo := c.argBase
		hi := lo + len(argOps)
		return func(fr *exec.Frame) int {
			// The argument area is scratch owned by this frame: Env.Call
			// copies whatever it keeps, so the window is reused by the
			// next call step.
			args := fr.Regs[lo:hi:hi]
			for i := range argOps {
				args[i] = argOps[i].get(fr)
			}
			fr.Regs[dst] = fr.Env.Call(fr.W, t, co.get(fr), args)
			return next
		}, 1
	}
	// Totality guard: an instruction kind the compiler does not know
	// lowers to a step that raises the interpreter's error at runtime,
	// so compiling a unit can never fail.
	in := body[0]
	return func(fr *exec.Frame) int {
		exec.Errf("interp: unknown instruction %T", in)
		return -1
	}, 1
}

// branch resolves a condbr's two edges.
func (c *fnCompiler) branch(b *ir.Block, t *ir.CondBr) *branch {
	return &branch{
		then: c.edge(b, t.Then),
		els:  c.edge(b, t.Else),
		fn:   c.fn,
	}
}

// cmpBranch matches a compare-and-branch at body[0], an integer
// comparison: the comparison, optionally the cast and `cmp ne …, 0` that
// re-test its result (minic's truth idiom), then the condbr on the last
// of them that ends the block. It returns where the comparison's step
// puts its result and how many instructions the step executes.
func (c *fnCompiler) cmpBranch(b *ir.Block, body []ir.Instr, next int) (*cmpTail, int) {
	cmp := body[0].(*ir.Cmp)
	dst := c.slots[cmp]
	tl := &cmpTail{dsts: [3]int{dst, dst, dst}, next: next}
	switch len(body) {
	case 2:
		if br, ok := body[1].(*ir.CondBr); ok && br.Cond == cmp {
			tl.br = c.branch(b, br)
			return tl, 2
		}
	case 4:
		cast, ok1 := body[1].(*ir.Cast)
		ne, ok2 := body[2].(*ir.Cmp)
		br, ok3 := body[3].(*ir.CondBr)
		if ok1 && ok2 && ok3 && cast.Val == cmp && !ir.IsFloat(cast.Type()) &&
			ne.Pred == ir.CmpNe && ne.X == cast && isZero(ne.Y) && br.Cond == ne {
			tl.dsts[1], tl.dsts[2] = c.slots[cast], c.slots[ne]
			tl.br = c.branch(b, br)
			return tl, 4
		}
	}
	return tl, 1
}

func isZero(v ir.Value) bool {
	k, ok := v.(*ir.ConstInt)
	return ok && k.V == 0
}

// load lowers a load by its pointer's kind.
func (c *fnCompiler) load(t *ir.Load, next int) exec.Step {
	dst, p, fn := c.slots[t], c.operand(t.Ptr), c.fn
	switch {
	case c.opts.SkipLoadSeam:
		return func(fr *exec.Frame) int {
			addr := uint64(p.get(fr).I)
			if addr == 0 {
				nilDeref(t, fn)
			}
			fr.Regs[dst] = seamlessLoad(fr, t, addr)
			return next
		}
	case p.slot < 0:
		addr := uint64(p.imm.I)
		return func(fr *exec.Frame) int {
			if addr == 0 {
				nilDeref(t, fn)
			}
			fr.Regs[dst] = fr.Env.Load(fr.W, t, addr)
			return next
		}
	}
	ps := p.slot
	return func(fr *exec.Frame) int {
		addr := uint64(fr.Regs[ps].I)
		if addr == 0 {
			nilDeref(t, fn)
		}
		fr.Regs[dst] = fr.Env.Load(fr.W, t, addr)
		return next
	}
}

// store lowers a store by its pointer's and its value's kinds.
func (c *fnCompiler) store(t *ir.Store, next int) exec.Step {
	p, v, fn := c.operand(t.Ptr), c.operand(t.Val), c.fn
	ps, vs, addr, k := p.slot, v.slot, uint64(p.imm.I), v.imm
	switch kindsOf(p, v) {
	case ss:
		return func(fr *exec.Frame) int {
			addr := uint64(fr.Regs[ps].I)
			if addr == 0 {
				nilDeref(t, fn)
			}
			fr.Env.Store(fr.W, t, addr, fr.Regs[vs])
			return next
		}
	case sk:
		return func(fr *exec.Frame) int {
			addr := uint64(fr.Regs[ps].I)
			if addr == 0 {
				nilDeref(t, fn)
			}
			fr.Env.Store(fr.W, t, addr, k)
			return next
		}
	case ks:
		return func(fr *exec.Frame) int {
			if addr == 0 {
				nilDeref(t, fn)
			}
			fr.Env.Store(fr.W, t, addr, fr.Regs[vs])
			return next
		}
	}
	return func(fr *exec.Frame) int {
		if addr == 0 {
			nilDeref(t, fn)
		}
		fr.Env.Store(fr.W, t, addr, k)
		return next
	}
}

// fieldAccess fuses a plain fieldaddr (base slot b, field offset off)
// with the load or store through it that follows, or returns nil when
// use is neither. The step writes the fieldaddr's slot, then makes the
// load's or store's nil check and Env call.
func (c *fnCompiler) fieldAccess(fa *ir.FieldAddr, b int, off int64, use ir.Instr, next int) exec.Step {
	fs, fn := c.slots[fa], c.fn
	switch t := use.(type) {
	case *ir.Load:
		if t.Ptr != fa {
			return nil
		}
		dst := c.slots[t]
		if c.opts.SkipLoadSeam {
			return func(fr *exec.Frame) int {
				addr := fr.Regs[b].I + off
				fr.Regs[fs].I = addr
				if addr == 0 {
					nilDeref(t, fn)
				}
				fr.Regs[dst] = seamlessLoad(fr, t, uint64(addr))
				return next
			}
		}
		return func(fr *exec.Frame) int {
			addr := fr.Regs[b].I + off
			fr.Regs[fs].I = addr
			if addr == 0 {
				nilDeref(t, fn)
			}
			fr.Regs[dst] = fr.Env.Load(fr.W, t, uint64(addr))
			return next
		}
	case *ir.Store:
		if t.Ptr != fa {
			return nil
		}
		v := c.operand(t.Val)
		if v.slot < 0 {
			k := v.imm
			return func(fr *exec.Frame) int {
				addr := fr.Regs[b].I + off
				fr.Regs[fs].I = addr
				if addr == 0 {
					nilDeref(t, fn)
				}
				fr.Env.Store(fr.W, t, uint64(addr), k)
				return next
			}
		}
		vs := v.slot
		return func(fr *exec.Frame) int {
			addr := fr.Regs[b].I + off
			fr.Regs[fs].I = addr
			if addr == 0 {
				nilDeref(t, fn)
			}
			fr.Env.Store(fr.W, t, uint64(addr), fr.Regs[vs])
			return next
		}
	}
	return nil
}
