package ir

import (
	"fmt"
	"strconv"
	"strings"
)

// Pos is a source position threaded from the MiniC frontend through the IR
// so that typing errors point at the developer's code.
type Pos struct {
	File string
	Line int
	Col  int
}

// IsValid reports whether the position carries real source information.
func (p Pos) IsValid() bool { return p.Line > 0 }

// String formats the position as file:line:col.
func (p Pos) String() string {
	if !p.IsValid() {
		return "<unknown>"
	}
	return fmt.Sprintf("%s:%d:%d", p.File, p.Line, p.Col)
}

// Value is anything an instruction can consume: constants, globals,
// parameters, functions, and the registers produced by instructions.
type Value interface {
	// Name returns the SSA name used in the printed form ("%t3", "@g",
	// or a literal for constants).
	Name() string
	// Type returns the static type of the value.
	Type() Type
}

// ConstInt is an integer literal.
type ConstInt struct {
	Typ IntType
	V   int64
}

// NewConstInt builds an integer constant of the given width.
func NewConstInt(t IntType, v int64) *ConstInt { return &ConstInt{Typ: t, V: v} }

// I64Const builds an i64 constant.
func I64Const(v int64) *ConstInt { return &ConstInt{Typ: I64, V: v} }

// Name returns the literal text.
func (c *ConstInt) Name() string { return strconv.FormatInt(c.V, 10) }

// Type returns the integer type.
func (c *ConstInt) Type() Type { return c.Typ }

// ConstFloat is a floating-point literal.
type ConstFloat struct {
	Typ FloatType
	V   float64
}

// Name returns the literal text, always in a form that parses back as a
// float: 2.0, not 2 (exponents, Inf and NaN already do).
func (c *ConstFloat) Name() string {
	s := strconv.FormatFloat(c.V, 'g', -1, 64)
	if !strings.ContainsAny(s, ".eIN") {
		s += ".0"
	}
	return s
}

// Type returns the float type.
func (c *ConstFloat) Type() Type { return c.Typ }

// Null is the null pointer constant of a given pointer type.
type Null struct {
	Typ PointerType
}

// Name returns "null".
func (c *Null) Name() string { return "null" }

// Type returns the pointer type.
func (c *Null) Type() Type { return c.Typ }

// Global is a module-level variable definition. Its value is the address
// of the variable, so its Type is a pointer to Elem with the declared color
// (paper Figure 6: "int color(blue) blue = 10;").
type Global struct {
	GName string
	Elem  Type
	Color Color
	// Init is the optional initial contents: an int64/float64 constant
	// or, for string literals, the raw bytes.
	InitInt   int64
	InitFloat float64
	InitBytes []byte
	Pos       Pos
}

// Name returns "@name".
func (g *Global) Name() string { return "@" + g.GName }

// Type returns a pointer to the element type carrying the global's color.
func (g *Global) Type() Type { return PtrToColored(g.Elem, g.Color) }

// Param is a function parameter. Color is the annotation from the source;
// specialization (paper §6.2) may assign the actual color per call site.
type Param struct {
	PName string
	Typ   Type
	Color Color
	Index int
	Pos   Pos
}

// Name returns "%name".
func (p *Param) Name() string { return "%" + p.PName }

// Type returns the parameter's static type.
func (p *Param) Type() Type { return p.Typ }
