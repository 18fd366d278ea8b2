package ir

import (
	"fmt"
	"sort"
)

// Module is a whole-program unit: the analogue of the single LLVM bitcode
// file Privagic consumes (paper §5, Figure 5).
type Module struct {
	Name    string
	Globals []*Global
	Funcs   []*Function
	Structs []*StructType

	nextGlobalID int
}

// NewModule creates an empty module.
func NewModule(name string) *Module { return &Module{Name: name} }

// Func returns the function with the given name, or nil.
func (m *Module) Func(name string) *Function {
	for _, f := range m.Funcs {
		if f.FName == name {
			return f
		}
	}
	return nil
}

// Global returns the global with the given name, or nil.
func (m *Module) Global(name string) *Global {
	for _, g := range m.Globals {
		if g.GName == name {
			return g
		}
	}
	return nil
}

// Struct returns the named struct type, or nil.
func (m *Module) Struct(name string) *StructType {
	for _, s := range m.Structs {
		if s.Name == name {
			return s
		}
	}
	return nil
}

// AddGlobal registers a global variable definition.
func (m *Module) AddGlobal(g *Global) *Global {
	m.Globals = append(m.Globals, g)
	return g
}

// AddStruct registers a named struct type.
func (m *Module) AddStruct(s *StructType) *StructType {
	m.Structs = append(m.Structs, s)
	return s
}

// AddFunc registers a function.
func (m *Module) AddFunc(f *Function) *Function {
	f.Module = m
	m.Funcs = append(m.Funcs, f)
	return f
}

// InternString interns a string literal as a byte-array global in unsafe
// memory and returns the global.
func (m *Module) InternString(s string) *Global {
	for _, g := range m.Globals {
		if g.InitBytes != nil && string(g.InitBytes) == s+"\x00" {
			return g
		}
	}
	m.nextGlobalID++
	g := &Global{
		GName:     fmt.Sprintf(".str%d", m.nextGlobalID),
		Elem:      ArrayType{Elem: I8, Len: int64(len(s) + 1)},
		InitBytes: append([]byte(s), 0),
	}
	return m.AddGlobal(g)
}

// EntryPoints returns the functions that may be called from outside the
// analyzed program (paper §6.2): functions explicitly marked Entry, or, if
// none is marked, every defined non-static function.
func (m *Module) EntryPoints() []*Function {
	var marked, all []*Function
	for _, f := range m.Funcs {
		if f.External || f.Static {
			continue
		}
		all = append(all, f)
		if f.Entry {
			marked = append(marked, f)
		}
	}
	if len(marked) > 0 {
		return marked
	}
	return all
}

// SortedFuncs returns the functions ordered by name, for deterministic
// iteration in analyses and printing.
func (m *Module) SortedFuncs() []*Function {
	out := make([]*Function, len(m.Funcs))
	copy(out, m.Funcs)
	sort.Slice(out, func(i, j int) bool { return out[i].FName < out[j].FName })
	return out
}

// Function is a definition (with Blocks) or an external declaration
// (External == true, no Blocks).
type Function struct {
	FName  string
	Params []*Param
	RetTyp Type
	Blocks []*Block
	Module *Module
	Pos    Pos

	// External marks a declaration whose body is not in the module; the
	// analysis treats calls to it as calls into the untrusted part
	// (paper §6.3) unless Within or Ignore is set.
	External bool
	// Within marks an external function also available inside enclaves
	// (the mini-libc of the Intel SDK, paper §6.3).
	Within bool
	// Ignore marks a communication function whose incompatible arguments
	// are deliberately ignored, enabling classify/declassify (paper §6.4).
	Ignore bool
	// Entry marks an explicit entry point (paper §6.2).
	Entry bool
	// Static excludes the function from the default entry-point set (a
	// C static function is not callable from another project).
	Static bool
	// RetColor is an optional annotation on the return value's color.
	RetColor Color
	// Variadic marks printf-style declarations.
	Variadic bool

	nextReg   int
	nextBlock int
}

// NewFunction creates a function definition or declaration.
func NewFunction(name string, ret Type, params []*Param) *Function {
	for i, p := range params {
		p.Index = i
	}
	return &Function{FName: name, Params: params, RetTyp: ret}
}

// Name returns "@name"; a Function is a Value usable as a call target or a
// function pointer.
func (f *Function) Name() string { return "@" + f.FName }

// Type returns the function's type.
func (f *Function) Type() Type { return f.Signature() }

// Signature returns the FuncType of the function.
func (f *Function) Signature() FuncType {
	ps := make([]Type, len(f.Params))
	for i, p := range f.Params {
		ps[i] = p.Typ
	}
	return FuncType{Params: ps, Ret: f.RetTyp, Variadic: f.Variadic}
}

// NewBlock appends a new basic block with a unique name derived from hint.
func (f *Function) NewBlock(hint string) *Block {
	f.nextBlock++
	b := &Block{BName: fmt.Sprintf("%s%d", hint, f.nextBlock), Func: f}
	f.Blocks = append(f.Blocks, b)
	return b
}

// regName allocates a fresh register name.
func (f *Function) regName() string {
	f.nextReg++
	return fmt.Sprintf("t%d", f.nextReg)
}

// Instrs calls fn for every instruction in the function in block order.
func (f *Function) Instrs(fn func(*Block, Instr)) {
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			fn(b, in)
		}
	}
}

// Block is a basic block: a straight-line instruction sequence ended by a
// terminator (paper footnote 4).
type Block struct {
	BName  string
	Func   *Function
	Instrs []Instr

	// preds/succs are computed by ComputeCFG.
	preds []*Block
	succs []*Block
}

// Append adds an instruction at the end of the block.
func (b *Block) Append(in Instr) {
	in.setParent(b)
	b.Instrs = append(b.Instrs, in)
}

// Terminator returns the block's final instruction if it is a terminator,
// else nil.
func (b *Block) Terminator() Instr {
	if len(b.Instrs) == 0 {
		return nil
	}
	last := b.Instrs[len(b.Instrs)-1]
	if IsTerminator(last) {
		return last
	}
	return nil
}

// Preds returns the predecessor blocks (valid after ComputeCFG).
func (b *Block) Preds() []*Block { return b.preds }

// Succs returns the successor blocks (valid after ComputeCFG).
func (b *Block) Succs() []*Block { return b.succs }

// ComputeCFG (re)computes predecessor/successor edges for every block.
func (f *Function) ComputeCFG() {
	for _, b := range f.Blocks {
		b.preds = b.preds[:0]
		b.succs = b.succs[:0]
	}
	for _, b := range f.Blocks {
		switch t := b.Terminator().(type) {
		case *Br:
			b.succs = append(b.succs, t.Target)
			t.Target.preds = append(t.Target.preds, b)
		case *CondBr:
			b.succs = append(b.succs, t.Then, t.Else)
			t.Then.preds = append(t.Then.preds, b)
			if t.Else != t.Then {
				t.Else.preds = append(t.Else.preds, b)
			}
		}
	}
}

// RemoveUnreachable drops blocks not reachable from the entry and fixes up
// phi edges referring to removed predecessors. It returns the number of
// blocks removed.
func (f *Function) RemoveUnreachable() int {
	if len(f.Blocks) == 0 {
		return 0
	}
	f.ComputeCFG()
	live := map[*Block]bool{}
	stack := []*Block{f.Blocks[0]}
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if live[b] {
			continue
		}
		live[b] = true
		stack = append(stack, b.succs...)
	}
	var kept []*Block
	removed := 0
	for _, b := range f.Blocks {
		if live[b] {
			kept = append(kept, b)
		} else {
			removed++
		}
	}
	if removed == 0 {
		return 0
	}
	f.Blocks = kept
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			phi, ok := in.(*Phi)
			if !ok {
				continue
			}
			var edges []PhiEdge
			for _, e := range phi.Edges {
				if live[e.Pred] {
					edges = append(edges, e)
				}
			}
			phi.Edges = edges
		}
	}
	f.ComputeCFG()
	return removed
}
