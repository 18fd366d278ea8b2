// Package compile lowers partitioned chunk bodies to closure-compiled
// Go: every SSA instruction becomes one fused exec.Step in a flat
// per-function array, with operands pre-resolved to dense register slots
// (or baked-in immediates), block jump targets pre-resolved to step
// indices, and φ-nodes turned into parallel edge copies executed by the
// incoming branch step.
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
	"fmt"
	"time"

	"privagic/internal/exec"
	"privagic/internal/ir"
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

// applyCopies performs a branch edge's φ copies with parallel-assignment
// semantics: all sources are read before any destination is written.
func applyCopies(fr *exec.Frame, copies []edgeCopy) {
	switch len(copies) {
	case 0:
	case 1:
		fr.Regs[copies[0].dst] = copies[0].src.get(fr)
	default:
		var buf [8]exec.Val
		vals := buf[:0]
		for i := range copies {
			vals = append(vals, copies[i].src.get(fr))
		}
		for i := range copies {
			fr.Regs[copies[i].dst] = vals[i]
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
		return operand{slot: -1, imm: exec.IV(t.V)}
	case *ir.ConstFloat:
		return operand{slot: -1, imm: exec.FV(t.V)}
	case *ir.Null:
		return operand{slot: -1, imm: exec.IV(0)}
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

// edgePlan collects the φ copies a jump from `from` into `to` performs.
// A φ without an edge for the predecessor receives the zero value,
// matching the interpreter.
func (c *fnCompiler) edgePlan(from, to *ir.Block) []edgeCopy {
	var out []edgeCopy
	for _, in := range to.Instrs {
		phi, ok := in.(*ir.Phi)
		if !ok {
			break
		}
		src := operand{slot: -1}
		for _, e := range phi.Edges {
			if e.Pred == from {
				src = c.operand(e.Val)
				break
			}
		}
		out = append(out, edgeCopy{dst: c.slots[phi], src: src})
	}
	return out
}

func (c *fnCompiler) emitBlock(b *ir.Block) {
	nphi := countPhis(b)
	for _, in := range b.Instrs[nphi:] {
		c.emitInstr(b, in)
	}
	if b.Terminator() == nil {
		msg := fmt.Sprintf("interp: block %%%s of @%s falls through", b.BName, c.fn.FName)
		c.code = append(c.code, func(fr *exec.Frame) int {
			exec.Errs(msg)
			return -1
		})
	}
}

// budget enforces the shared step budget; branch steps call it so a
// livelocked compiled chunk fails with the interpreter's error.
func (c *fnCompiler) budgetMsg() string {
	return fmt.Sprintf("interp: instruction budget exceeded in @%s (livelock?)", c.fn.FName)
}

func (c *fnCompiler) emitInstr(b *ir.Block, in ir.Instr) {
	next := len(c.code) + 1
	switch t := in.(type) {
	case *ir.Ret:
		if t.Val == nil {
			c.code = append(c.code, func(fr *exec.Frame) int {
				fr.Ret = exec.Val{}
				return -1
			})
			return
		}
		vo := c.operand(t.Val)
		c.code = append(c.code, func(fr *exec.Frame) int {
			fr.Ret = vo.get(fr)
			return -1
		})

	case *ir.Br:
		target := c.blockPC[t.Target]
		copies := c.edgePlan(b, t.Target)
		over := c.budgetMsg()
		c.code = append(c.code, func(fr *exec.Frame) int {
			if fr.Steps++; fr.Steps > exec.StepBudget {
				exec.Errs(over)
			}
			applyCopies(fr, copies)
			return target
		})

	case *ir.CondBr:
		co := c.operand(t.Cond)
		thenPC, elsePC := c.blockPC[t.Then], c.blockPC[t.Else]
		thenCopies := c.edgePlan(b, t.Then)
		elseCopies := c.edgePlan(b, t.Else)
		over := c.budgetMsg()
		c.code = append(c.code, func(fr *exec.Frame) int {
			if fr.Steps++; fr.Steps > exec.StepBudget {
				exec.Errs(over)
			}
			if co.get(fr).I != 0 {
				applyCopies(fr, thenCopies)
				return thenPC
			}
			applyCopies(fr, elseCopies)
			return elsePC
		})

	case *ir.Alloca:
		dst := c.slots[t]
		c.code = append(c.code, func(fr *exec.Frame) int {
			fr.Regs[dst] = fr.Env.Alloca(fr.W, t)
			return next
		})

	case *ir.Malloc:
		dst := c.slots[t]
		co := operand{slot: -1, imm: exec.IV(1)}
		if t.Count != nil {
			co = c.operand(t.Count)
		}
		c.code = append(c.code, func(fr *exec.Frame) int {
			fr.Regs[dst] = fr.Env.Malloc(fr.W, t, co.get(fr))
			return next
		})

	case *ir.Free:
		// The bump allocator does not reclaim; free is a no-op step.
		c.code = append(c.code, func(fr *exec.Frame) int { return next })

	case *ir.Load:
		dst := c.slots[t]
		po := c.operand(t.Ptr)
		nilMsg := fmt.Sprintf("interp: nil dereference: %q in @%s", t.String(), c.fn.FName)
		if c.opts.SkipLoadSeam {
			c.code = append(c.code, func(fr *exec.Frame) int {
				addr := uint64(po.get(fr).I)
				if addr == 0 {
					exec.Errs(nilMsg)
				}
				if sl, ok := fr.Env.(exec.SeamlessLoader); ok {
					fr.Regs[dst] = sl.SeamlessLoad(fr.W, t, addr)
				} else {
					fr.Regs[dst] = fr.Env.Load(fr.W, t, addr)
				}
				return next
			})
			return
		}
		c.code = append(c.code, func(fr *exec.Frame) int {
			addr := uint64(po.get(fr).I)
			if addr == 0 {
				exec.Errs(nilMsg)
			}
			fr.Regs[dst] = fr.Env.Load(fr.W, t, addr)
			return next
		})

	case *ir.Store:
		po := c.operand(t.Ptr)
		vo := c.operand(t.Val)
		nilMsg := fmt.Sprintf("interp: nil dereference: %q in @%s", t.String(), c.fn.FName)
		c.code = append(c.code, func(fr *exec.Frame) int {
			addr := uint64(po.get(fr).I)
			if addr == 0 {
				exec.Errs(nilMsg)
			}
			fr.Env.Store(fr.W, t, addr, vo.get(fr))
			return next
		})

	case *ir.BinOp:
		c.emitBinOp(t, next)

	case *ir.Cmp:
		c.emitCmp(t, next)

	case *ir.Cast:
		dst := c.slots[t]
		vo := c.operand(t.Val)
		to := t.Type()
		c.code = append(c.code, func(fr *exec.Frame) int {
			fr.Regs[dst] = exec.Cast(vo.get(fr), to)
			return next
		})

	case *ir.FieldAddr:
		dst := c.slots[t]
		bo := c.operand(t.X)
		if off, plain := c.env.FieldOffset(t); plain {
			c.code = append(c.code, func(fr *exec.Frame) int {
				fr.Regs[dst] = exec.Val{I: bo.get(fr).I + off}
				return next
			})
			return
		}
		c.code = append(c.code, func(fr *exec.Frame) int {
			fr.Regs[dst] = fr.Env.FieldAddr(fr.W, t, bo.get(fr))
			return next
		})

	case *ir.IndexAddr:
		dst := c.slots[t]
		bo := c.operand(t.X)
		io := c.operand(t.Index)
		stride := c.env.ElemStride(t.Type().(ir.PointerType).Elem)
		c.code = append(c.code, func(fr *exec.Frame) int {
			fr.Regs[dst] = exec.Val{I: bo.get(fr).I + io.get(fr).I*stride}
			return next
		})

	case *ir.Call:
		dst := c.slots[t]
		co := c.operand(t.Callee)
		argOps := make([]operand, len(t.Args))
		for i, a := range t.Args {
			argOps[i] = c.operand(a)
		}
		lo := c.argBase
		hi := lo + len(argOps)
		c.code = append(c.code, func(fr *exec.Frame) int {
			// The argument area is scratch owned by this frame: Env.Call
			// copies whatever it keeps, so the window is reused by the
			// next call step.
			args := fr.Regs[lo:hi:hi]
			for i := range argOps {
				args[i] = argOps[i].get(fr)
			}
			fr.Regs[dst] = fr.Env.Call(fr.W, t, co.get(fr), args)
			return next
		})

	default:
		// Totality guard: an instruction kind the compiler does not
		// know lowers to a step that raises the interpreter's error at
		// runtime, so compiling a unit can never fail.
		msg := fmt.Sprintf("interp: unknown instruction %T", in)
		c.code = append(c.code, func(fr *exec.Frame) int {
			exec.Errs(msg)
			return -1
		})
	}
}

// emitBinOp specializes the hot integer operators into fused steps (the
// float and error paths fall back to the shared exec.BinOp semantics).
func (c *fnCompiler) emitBinOp(t *ir.BinOp, next int) {
	dst := c.slots[t]
	xo, yo := c.operand(t.X), c.operand(t.Y)
	switch t.Op {
	case ir.OpAdd:
		c.code = append(c.code, func(fr *exec.Frame) int {
			x, y := xo.get(fr), yo.get(fr)
			if x.Fl || y.Fl {
				fr.Regs[dst] = exec.BinOp(ir.OpAdd, x, y)
			} else {
				fr.Regs[dst] = exec.Val{I: x.I + y.I}
			}
			return next
		})
	case ir.OpSub:
		c.code = append(c.code, func(fr *exec.Frame) int {
			x, y := xo.get(fr), yo.get(fr)
			if x.Fl || y.Fl {
				fr.Regs[dst] = exec.BinOp(ir.OpSub, x, y)
			} else {
				fr.Regs[dst] = exec.Val{I: x.I - y.I}
			}
			return next
		})
	case ir.OpMul:
		c.code = append(c.code, func(fr *exec.Frame) int {
			x, y := xo.get(fr), yo.get(fr)
			if x.Fl || y.Fl {
				fr.Regs[dst] = exec.BinOp(ir.OpMul, x, y)
			} else {
				fr.Regs[dst] = exec.Val{I: x.I * y.I}
			}
			return next
		})
	case ir.OpAnd:
		c.code = append(c.code, func(fr *exec.Frame) int {
			x, y := xo.get(fr), yo.get(fr)
			if x.Fl || y.Fl {
				fr.Regs[dst] = exec.BinOp(ir.OpAnd, x, y)
			} else {
				fr.Regs[dst] = exec.Val{I: x.I & y.I}
			}
			return next
		})
	case ir.OpOr:
		c.code = append(c.code, func(fr *exec.Frame) int {
			x, y := xo.get(fr), yo.get(fr)
			if x.Fl || y.Fl {
				fr.Regs[dst] = exec.BinOp(ir.OpOr, x, y)
			} else {
				fr.Regs[dst] = exec.Val{I: x.I | y.I}
			}
			return next
		})
	case ir.OpXor:
		c.code = append(c.code, func(fr *exec.Frame) int {
			x, y := xo.get(fr), yo.get(fr)
			if x.Fl || y.Fl {
				fr.Regs[dst] = exec.BinOp(ir.OpXor, x, y)
			} else {
				fr.Regs[dst] = exec.Val{I: x.I ^ y.I}
			}
			return next
		})
	default:
		op := t.Op
		c.code = append(c.code, func(fr *exec.Frame) int {
			fr.Regs[dst] = exec.BinOp(op, xo.get(fr), yo.get(fr))
			return next
		})
	}
}

// emitCmp specializes the integer comparisons (float operands fall back
// to the shared exec.Cmp semantics).
func (c *fnCompiler) emitCmp(t *ir.Cmp, next int) {
	dst := c.slots[t]
	xo, yo := c.operand(t.X), c.operand(t.Y)
	intCmp := func(test func(a, b int64) bool, pred ir.CmpPred) exec.Step {
		return func(fr *exec.Frame) int {
			x, y := xo.get(fr), yo.get(fr)
			if x.Fl || y.Fl {
				fr.Regs[dst] = exec.Cmp(pred, x, y)
			} else if test(x.I, y.I) {
				fr.Regs[dst] = exec.Val{I: 1}
			} else {
				fr.Regs[dst] = exec.Val{}
			}
			return next
		}
	}
	switch t.Pred {
	case ir.CmpEq:
		c.code = append(c.code, intCmp(func(a, b int64) bool { return a == b }, t.Pred))
	case ir.CmpNe:
		c.code = append(c.code, intCmp(func(a, b int64) bool { return a != b }, t.Pred))
	case ir.CmpLt:
		c.code = append(c.code, intCmp(func(a, b int64) bool { return a < b }, t.Pred))
	case ir.CmpLe:
		c.code = append(c.code, intCmp(func(a, b int64) bool { return a <= b }, t.Pred))
	case ir.CmpGt:
		c.code = append(c.code, intCmp(func(a, b int64) bool { return a > b }, t.Pred))
	case ir.CmpGe:
		c.code = append(c.code, intCmp(func(a, b int64) bool { return a >= b }, t.Pred))
	default:
		pred := t.Pred
		c.code = append(c.code, func(fr *exec.Frame) int {
			fr.Regs[dst] = exec.Cmp(pred, xo.get(fr), yo.get(fr))
			return next
		})
	}
}
