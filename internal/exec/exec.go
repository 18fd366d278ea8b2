// Package exec is the execution contract shared by the two chunk
// execution tiers: the reference interpreter (internal/interp) and the
// closure compiler (internal/passes/compile).
//
// It owns the pieces both tiers must agree on bit-for-bit:
//
//   - Val, the machine value (one 64-bit word: an integer, an encoded
//     pointer, or a float's bits), an alias of value.Val, which prt
//     messages carry as typed payloads;
//   - the arithmetic/comparison/cast semantics (BinOp, Cmp, Cast) — one
//     implementation, so a divergence between engines can never hide in
//     a re-implemented operator. They are the only code that reads a
//     word as a float, and the instruction's IR type, passed in, says
//     when;
//   - RuntimeErr, the panic envelope every execution error travels in;
//   - Frame/Step/Run, the compiled tier's register machine; and
//   - Env, the seam interface through which compiled code reaches the
//     interpreter's memory system, boundary defense, effect
//     transactions, replay journal, and call dispatcher. The compiled
//     tier never re-implements a seam: it calls the same methods the
//     interpreter's own instruction loop uses, which is what keeps
//     recovery, Iago defense, and observability identical across tiers
//     (DESIGN.md §18).
package exec

import (
	"errors"
	"fmt"

	"privagic/internal/ir"
	"privagic/internal/prt"
	"privagic/internal/value"
)

// Val is the machine value (see internal/value, where it lives so the
// runtime's messages can carry it without importing this package).
type Val = value.Val

// RuntimeErr carries an execution error through panics; both engines
// panic with it and the interpreter's chunk harness recovers it.
type RuntimeErr struct {
	// Err is the underlying error.
	Err error
}

// Errf panics with a formatted RuntimeErr.
func Errf(format string, args ...any) {
	panic(RuntimeErr{fmt.Errorf(format, args...)})
}

// Errs panics with a RuntimeErr wrapping a fixed message (used by
// compiled steps whose message was pre-rendered at compile time).
func Errs(msg string) {
	panic(RuntimeErr{errors.New(msg)})
}

// StepBudget bounds a single activation's block transfers, matching the
// interpreter's livelock guard.
const StepBudget = 100_000_000

// Frame is one compiled activation: a dense register file indexed by the
// compiler's slot assignment. Parameters occupy the first slots, then
// every value-producing instruction, then the argument area that call
// steps fill and pass to Env.Call in place.
//
// Frames are reused: the embedder keeps a per-worker free list and hands
// an activation a frame with Regs cleared and Ret and Steps reset. A
// frame goes back on the list only when its activation returns, so a
// panicking activation simply drops it.
type Frame struct {
	// Regs is the register file; slot indices are assigned at compile
	// time (compile.Fn.SlotOf).
	Regs []Val
	// Ret receives the activation's result when a return step runs.
	Ret Val
	// W is the prt worker the activation runs on; seams receive it so
	// mode checks, journaling, and metering attribute correctly.
	W *prt.Worker
	// Env is the seam interface the compiled steps call into.
	Env Env
	// Steps counts block transfers against StepBudget.
	Steps int
}

// Step is one fused instruction: it mutates the frame and returns the
// next program counter, or a negative value to finish the activation.
type Step func(fr *Frame) int

// Run drives a compiled activation to completion and returns its result.
// Execution errors surface as RuntimeErr panics, exactly like the
// interpreter's.
func Run(code []Step, fr *Frame) Val {
	for pc := 0; pc >= 0 && pc < len(code); {
		pc = code[pc](fr)
	}
	return fr.Ret
}

// Env is the seam interface compiled code executes against. The
// interpreter implements it with the very helpers its own instruction
// loop uses — one checked load and one checked store, each decoding its
// address once. A load runs the sanitizer, the boundary stats, the
// machine's access check, the snapshot or observer (unsafe memory) or
// the backing read, the effect-transaction overlay, the replay journal
// and the OnAccess hook, in that order; a store runs the sanitizer, the
// access check, then the transaction buffer or the write-back, and the
// hook. So a compiled chunk crosses every defense layer the interpreted
// chunk crosses. The differential oracle
// implements it a second time as a trace checker (internal/interp's
// shadow environment).
//
// GlobalAddr, FuncValue, FieldOffset and ElemStride are resolved at
// compile time (a unit is compiled per interpreter instance, so global
// addresses, function-pointer indices, plain field offsets and element
// strides bake into the closures as constants); the remaining methods run
// per instruction.
type Env interface {
	// GlobalAddr returns the encoded address of a global.
	GlobalAddr(g *ir.Global) Val
	// FuncValue returns the function-pointer value of a function.
	FuncValue(fn *ir.Function) Val
	// Alloca services a stack allocation.
	Alloca(w *prt.Worker, t *ir.Alloca) Val
	// Malloc services a heap allocation of count elements.
	Malloc(w *prt.Worker, t *ir.Malloc, count Val) Val
	// Load performs the mode-checked load of t's type at addr: the
	// embedder's checked access, one pass of its word core when the
	// value lies inside one aligned 8-byte word, the byte path when it
	// straddles two.
	Load(w *prt.Worker, t *ir.Load, addr uint64) Val
	// Store performs the mode-checked store of v at addr, through the
	// same word core as Load.
	Store(w *prt.Worker, t *ir.Store, addr uint64, v Val)
	// FieldAddr computes a field address, following the split-structure
	// indirection for colored fields. Compiled code calls it only for
	// the fields FieldOffset reports as not plain.
	FieldAddr(w *prt.Worker, t *ir.FieldAddr, base Val) Val
	// FieldOffset returns the byte offset of t's field and whether the
	// field is plain, i.e. its address is the base plus that offset. A
	// colored field of a split structure is not plain: its address is
	// loaded from the slot at that offset. Called at compile time.
	FieldOffset(t *ir.FieldAddr) (off int64, plain bool)
	// ElemStride returns the in-memory stride of an element type
	// (split-structure layouts override the nominal size). Called at
	// compile time.
	ElemStride(elem ir.Type) int64
	// Call dispatches a call instruction with its evaluated callee value
	// (meaningful for indirect calls) and arguments: runtime intrinsics,
	// direct chunk calls, builtins, and indirect calls through interface
	// versions. args aliases the caller's frame: an implementation may
	// read it during the call but must copy whatever it keeps.
	Call(w *prt.Worker, t *ir.Call, callee Val, args []Val) Val
}

// SeamlessLoader is an optional Env extension used ONLY by the negative
// differential-oracle test: a load compiled with
// compile.Options.SkipLoadSeam calls it to read backing memory directly,
// bypassing the snapshot/transaction/journal seams, proving the oracle
// catches a compiled chunk that skips a seam. Production compiles never
// emit calls to it.
type SeamlessLoader interface {
	// SeamlessLoad reads t's type at addr straight from backing memory.
	SeamlessLoad(w *prt.Worker, t *ir.Load, addr uint64) Val
}

// BinOp applies a binary operator with the engines' shared semantics:
// typ is the operator's IR type (the verifier proves both operands and
// the result share it), so a float type computes on the words' IEEE-754
// bits and any other type on 64-bit integers, shifts masked to 6 bits,
// and division/remainder by zero raising a RuntimeErr. The error strings
// keep the historical "interp:" prefix — the differential oracle
// compares them textually across engines.
func BinOp(op ir.BinOpKind, typ ir.Type, x, y Val) Val {
	if ir.IsFloat(typ) {
		a, b := value.F(x), value.F(y)
		switch op {
		case ir.OpAdd:
			return value.FV(a + b)
		case ir.OpSub:
			return value.FV(a - b)
		case ir.OpMul:
			return value.FV(a * b)
		case ir.OpDiv:
			return value.FV(a / b)
		}
		Errf("interp: float %s unsupported", op)
	}
	a, b := x.I, y.I
	switch op {
	case ir.OpAdd:
		return value.IV(a + b)
	case ir.OpSub:
		return value.IV(a - b)
	case ir.OpMul:
		return value.IV(a * b)
	case ir.OpDiv:
		if b == 0 {
			Errf("interp: integer division by zero")
		}
		return value.IV(a / b)
	case ir.OpRem:
		if b == 0 {
			Errf("interp: integer remainder by zero")
		}
		return value.IV(a % b)
	case ir.OpAnd:
		return value.IV(a & b)
	case ir.OpOr:
		return value.IV(a | b)
	case ir.OpXor:
		return value.IV(a ^ b)
	case ir.OpShl:
		return value.IV(a << uint64(b&63))
	case ir.OpShr:
		return value.IV(a >> uint64(b&63))
	}
	Errf("interp: unknown binop %v", op)
	return Val{}
}

// Cmp applies a comparison with the engines' shared semantics, returning
// integer 1 or 0. typ is the operands' IR type: floats compare as
// IEEE-754 values, everything else as signed 64-bit words.
func Cmp(pred ir.CmpPred, typ ir.Type, x, y Val) Val {
	var r bool
	if ir.IsFloat(typ) {
		r = compare(pred, value.F(x), value.F(y))
	} else {
		r = compare(pred, x.I, y.I)
	}
	if r {
		return value.IV(1)
	}
	return value.IV(0)
}

// compare applies a predicate to two integers or two floats.
func compare[T int64 | float64](pred ir.CmpPred, a, b T) bool {
	switch pred {
	case ir.CmpEq:
		return a == b
	case ir.CmpNe:
		return a != b
	case ir.CmpLt:
		return a < b
	case ir.CmpLe:
		return a <= b
	case ir.CmpGt:
		return a > b
	case ir.CmpGe:
		return a >= b
	}
	return false
}

// Cast converts a value of IR type from to type to with the engines'
// shared semantics: integer narrowing sign-extends back to 64 bits,
// float↔int converts, pointer and function casts preserve the word.
func Cast(v Val, from, to ir.Type) Val {
	switch tt := to.(type) {
	case ir.IntType:
		x := v.I
		if ir.IsFloat(from) {
			x = int64(value.F(v))
		}
		switch tt.Bits {
		case 1:
			return value.IV(x & 1)
		case 8:
			return value.IV(int64(int8(x)))
		case 32:
			return value.IV(int64(int32(x)))
		default:
			return value.IV(x)
		}
	case ir.FloatType:
		if ir.IsFloat(from) {
			return v
		}
		return value.FV(float64(v.I))
	default:
		// Pointer and function casts preserve the word.
		return v
	}
}
