package ir

import (
	"fmt"
	"strings"
)

// Instr is the interface implemented by all IR instructions. Instructions
// that produce a result also implement Value.
type Instr interface {
	// Ops returns pointers to the operand slots so passes can rewrite
	// uses in place (the go/ssa idiom).
	Ops() []*Value
	// Parent returns the containing basic block.
	Parent() *Block
	// setParent is used by Block when appending.
	setParent(*Block)
	// InstrPos returns the source position for diagnostics.
	InstrPos() Pos
	// String returns the printed form.
	String() string
}

// register is the common embedded state of value-producing instructions.
type register struct {
	name   string
	typ    Type
	pos    Pos
	parent *Block
}

// Name returns "%name".
func (r *register) Name() string { return "%" + r.name }

// Type returns the result type.
func (r *register) Type() Type { return r.typ }

// Parent returns the containing block.
func (r *register) Parent() *Block { return r.parent }

func (r *register) setParent(b *Block) { r.parent = b }

// InstrPos returns the source position.
func (r *register) InstrPos() Pos { return r.pos }

// noResult is the common embedded state of instructions without a result.
type noResult struct {
	pos    Pos
	parent *Block
}

// Parent returns the containing block.
func (n *noResult) Parent() *Block { return n.parent }

func (n *noResult) setParent(b *Block) { n.parent = b }

// InstrPos returns the source position.
func (n *noResult) InstrPos() Pos { return n.pos }

// BinOpKind enumerates the arithmetic and bitwise operations.
type BinOpKind int

// Binary operation kinds.
const (
	OpAdd BinOpKind = iota + 1
	OpSub
	OpMul
	OpDiv
	OpRem
	OpAnd
	OpOr
	OpXor
	OpShl
	OpShr
)

var binOpNames = map[BinOpKind]string{
	OpAdd: "add", OpSub: "sub", OpMul: "mul", OpDiv: "div", OpRem: "rem",
	OpAnd: "and", OpOr: "or", OpXor: "xor", OpShl: "shl", OpShr: "shr",
}

// String returns the mnemonic.
func (k BinOpKind) String() string { return binOpNames[k] }

// CmpPred enumerates comparison predicates (signed semantics).
type CmpPred int

// Comparison predicates.
const (
	CmpEq CmpPred = iota + 1
	CmpNe
	CmpLt
	CmpLe
	CmpGt
	CmpGe
)

var cmpNames = map[CmpPred]string{
	CmpEq: "eq", CmpNe: "ne", CmpLt: "lt", CmpLe: "le", CmpGt: "gt", CmpGe: "ge",
}

// String returns the mnemonic.
func (p CmpPred) String() string { return cmpNames[p] }

// Alloca allocates a local variable on the (simulated) stack and yields its
// address. Color is the explicit annotation; uncolored allocas whose address
// is never taken are promoted to registers by mem2reg and then inferred.
type Alloca struct {
	register
	Elem  Type
	Color Color
}

// Ops returns no operands.
func (a *Alloca) Ops() []*Value { return nil }

// String prints the instruction.
func (a *Alloca) String() string {
	c := ""
	if !a.Color.IsNone() {
		c = fmt.Sprintf(" color(%s)", a.Color)
	}
	return fmt.Sprintf("%s = alloca %s%s", a.Name(), a.Elem, c)
}

// Malloc allocates heap memory for Count elements of Elem (Count may be nil
// for a single element) and yields the address. The partitioner retargets
// allocation sites of multi-color structs (paper §7.2).
type Malloc struct {
	register
	Elem  Type
	Color Color
	Count Value // may be nil
}

// Ops returns the optional count operand.
func (m *Malloc) Ops() []*Value {
	if m.Count == nil {
		return nil
	}
	return []*Value{&m.Count}
}

// String prints the instruction.
func (m *Malloc) String() string {
	c := ""
	if !m.Color.IsNone() {
		c = fmt.Sprintf(" color(%s)", m.Color)
	}
	n := ""
	if m.Count != nil {
		n = ", " + m.Count.Name()
	}
	return fmt.Sprintf("%s = malloc %s%s%s", m.Name(), m.Elem, c, n)
}

// Free releases heap memory.
type Free struct {
	noResult
	Ptr Value
}

// Ops returns the pointer operand.
func (f *Free) Ops() []*Value { return []*Value{&f.Ptr} }

// String prints the instruction.
func (f *Free) String() string { return fmt.Sprintf("free %s", f.Ptr.Name()) }

// Load reads the value at Ptr.
type Load struct {
	register
	Ptr Value
}

// Ops returns the pointer operand.
func (l *Load) Ops() []*Value { return []*Value{&l.Ptr} }

// String prints the instruction.
func (l *Load) String() string {
	return fmt.Sprintf("%s = load %s, %s", l.Name(), l.typ, l.Ptr.Name())
}

// Store writes Val to the location Ptr.
type Store struct {
	noResult
	Val Value
	Ptr Value
}

// Ops returns the value and pointer operands.
func (s *Store) Ops() []*Value { return []*Value{&s.Val, &s.Ptr} }

// String prints the instruction.
func (s *Store) String() string {
	return fmt.Sprintf("store %s, %s", s.Val.Name(), s.Ptr.Name())
}

// BinOp computes X op Y.
type BinOp struct {
	register
	Op BinOpKind
	X  Value
	Y  Value
}

// Ops returns both operands.
func (b *BinOp) Ops() []*Value { return []*Value{&b.X, &b.Y} }

// String prints the instruction.
func (b *BinOp) String() string {
	return fmt.Sprintf("%s = %s %s, %s", b.Name(), b.Op, b.X.Name(), b.Y.Name())
}

// Cmp compares X and Y, producing an i1.
type Cmp struct {
	register
	Pred CmpPred
	X    Value
	Y    Value
}

// Ops returns both operands.
func (c *Cmp) Ops() []*Value { return []*Value{&c.X, &c.Y} }

// String prints the instruction.
func (c *Cmp) String() string {
	return fmt.Sprintf("%s = cmp %s %s, %s", c.Name(), c.Pred, c.X.Name(), c.Y.Name())
}

// Cast converts Val to the result type (int width changes, int<->float,
// pointer casts). The typing rules guarantee casts cannot change a color
// (paper §4, fourth rule).
type Cast struct {
	register
	Val Value
}

// Ops returns the operand.
func (c *Cast) Ops() []*Value { return []*Value{&c.Val} }

// String prints the instruction.
func (c *Cast) String() string {
	return fmt.Sprintf("%s = cast %s to %s", c.Name(), c.Val.Name(), c.typ)
}

// FieldAddr computes the address of field Index of the struct pointed to by
// X (a struct-typed GEP). Its result type carries the field's color.
type FieldAddr struct {
	register
	X     Value
	Index int
}

// Ops returns the base pointer operand.
func (f *FieldAddr) Ops() []*Value { return []*Value{&f.X} }

// Struct returns the struct type being addressed.
func (f *FieldAddr) Struct() *StructType {
	pt := f.X.Type().(PointerType)
	return pt.Elem.(*StructType)
}

// String prints the instruction.
func (f *FieldAddr) String() string {
	return fmt.Sprintf("%s = fieldaddr %s, %d (%s)", f.Name(), f.X.Name(), f.Index, f.Struct().Fields[f.Index].Name)
}

// IndexAddr computes the address of element Index of the array (or the
// pointed-to buffer) at X.
type IndexAddr struct {
	register
	X     Value
	Index Value
}

// Ops returns the base pointer and index operands.
func (i *IndexAddr) Ops() []*Value { return []*Value{&i.X, &i.Index} }

// String prints the instruction.
func (i *IndexAddr) String() string {
	return fmt.Sprintf("%s = indexaddr %s, %s", i.Name(), i.X.Name(), i.Index.Name())
}

// Call invokes Callee (a *Function for direct calls, any pointer-typed
// register for indirect calls) with Args.
type Call struct {
	register
	Callee Value
	Args   []Value
}

// Ops returns the callee followed by the arguments.
func (c *Call) Ops() []*Value {
	out := make([]*Value, 0, len(c.Args)+1)
	out = append(out, &c.Callee)
	for i := range c.Args {
		out = append(out, &c.Args[i])
	}
	return out
}

// IsIndirect reports whether the callee is not a direct function reference.
func (c *Call) IsIndirect() bool {
	_, ok := c.Callee.(*Function)
	return !ok
}

// String prints the instruction.
func (c *Call) String() string {
	args := make([]string, len(c.Args))
	for i, a := range c.Args {
		args[i] = a.Name()
	}
	lhs := ""
	if _, isVoid := c.typ.(VoidType); !isVoid {
		lhs = c.Name() + " = "
	}
	return fmt.Sprintf("%scall %s(%s)", lhs, c.Callee.Name(), strings.Join(args, ", "))
}

// Ret returns from the function with an optional value.
type Ret struct {
	noResult
	Val Value // nil for void returns
}

// Ops returns the optional result operand.
func (r *Ret) Ops() []*Value {
	if r.Val == nil {
		return nil
	}
	return []*Value{&r.Val}
}

// String prints the instruction.
func (r *Ret) String() string {
	if r.Val == nil {
		return "ret void"
	}
	return fmt.Sprintf("ret %s", r.Val.Name())
}

// Br jumps unconditionally to Target.
type Br struct {
	noResult
	Target *Block
}

// Ops returns no value operands.
func (b *Br) Ops() []*Value { return nil }

// String prints the instruction.
func (b *Br) String() string { return fmt.Sprintf("br %%%s", b.Target.BName) }

// CondBr jumps to Then when Cond is non-zero, otherwise to Else. A CondBr
// on a colored register colors the dominated region (paper Rule 4).
type CondBr struct {
	noResult
	Cond Value
	Then *Block
	Else *Block
}

// Ops returns the condition operand.
func (b *CondBr) Ops() []*Value { return []*Value{&b.Cond} }

// String prints the instruction.
func (b *CondBr) String() string {
	return fmt.Sprintf("condbr %s, %%%s, %%%s", b.Cond.Name(), b.Then.BName, b.Else.BName)
}

// PhiEdge is one incoming (predecessor, value) pair of a Phi.
type PhiEdge struct {
	Pred *Block
	Val  Value
}

// Phi merges values flowing in from predecessor blocks (SSA φ-node;
// introduced by mem2reg).
type Phi struct {
	register
	Edges []PhiEdge
}

// Ops returns the incoming value slots.
func (p *Phi) Ops() []*Value {
	out := make([]*Value, len(p.Edges))
	for i := range p.Edges {
		out[i] = &p.Edges[i].Val
	}
	return out
}

// String prints the instruction.
func (p *Phi) String() string {
	parts := make([]string, len(p.Edges))
	for i, e := range p.Edges {
		parts[i] = fmt.Sprintf("[%s, %%%s]", e.Val.Name(), e.Pred.BName)
	}
	return fmt.Sprintf("%s = phi %s", p.Name(), strings.Join(parts, ", "))
}

// IsTerminator reports whether the instruction ends a basic block.
func IsTerminator(in Instr) bool {
	switch in.(type) {
	case *Ret, *Br, *CondBr:
		return true
	}
	return false
}
