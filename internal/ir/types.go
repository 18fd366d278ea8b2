package ir

import (
	"fmt"
	"strings"
)

// Type is the interface implemented by all IR types. Types are structural
// except for named struct types, which compare by name.
type Type interface {
	// String returns the IR syntax of the type.
	String() string
	// Size returns the size in bytes of a value of this type in the
	// simulated memory.
	Size() int64
	// Align returns the alignment in bytes.
	Align() int64
}

// VoidType is the type of functions that return nothing.
type VoidType struct{}

// IntType is a fixed-width two's-complement integer type (i8 … i64).
type IntType struct {
	Bits int
}

// FloatType is an IEEE-754 floating point type. The machine holds only
// f64: a value is one 64-bit word, so the IR parser rejects other widths.
type FloatType struct {
	Bits int
}

// IsFloat reports whether t is a floating-point type: the engines read a
// value of such a type as IEEE-754 bits, every other value as an integer
// word.
func IsFloat(t Type) bool {
	_, ok := t.(FloatType)
	return ok
}

// PointerType is a pointer to an element type. Color is the color of the
// pointed-to memory location: a pointer to a blue int ("int color(blue)*"
// in MiniC) has Elem I32 and Color blue. The paper's fourth confidentiality
// rule — a pointer to a C location is itself C — is checked against this
// declared pointee color.
type PointerType struct {
	Elem  Type
	Color Color
}

// ArrayType is a fixed-length inline array.
type ArrayType struct {
	Elem Type
	Len  int64
}

// Field is a struct member. Its Color is the explicit secure-type
// annotation from the source program (paper Figure 1): fields with
// different colors make the struct a multi-color structure (paper §7.2).
type Field struct {
	Name   string
	Type   Type
	Color  Color
	Offset int64 // byte offset, computed by NewStruct
}

// StructType is a nominal aggregate type.
type StructType struct {
	Name   string
	Fields []Field

	size  int64
	align int64
}

// FuncType is the type of functions and function pointers.
type FuncType struct {
	Params   []Type
	Ret      Type // VoidType for no result
	Variadic bool // extra arguments allowed after Params (printf-style)
}

// Common pre-built types.
var (
	Void = VoidType{}
	I1   = IntType{Bits: 1}
	I8   = IntType{Bits: 8}
	I32  = IntType{Bits: 32}
	I64  = IntType{Bits: 64}
	F64  = FloatType{Bits: 64}
)

// PtrTo returns a pointer type to an uncolored elem.
func PtrTo(elem Type) PointerType { return PointerType{Elem: elem} }

// PtrToColored returns a pointer type to elem values living in enclave c.
func PtrToColored(elem Type, c Color) PointerType {
	return PointerType{Elem: elem, Color: c}
}

// String returns "void".
func (VoidType) String() string { return "void" }

// Size returns 0: void values do not exist in memory.
func (VoidType) Size() int64 { return 0 }

// Align returns 1.
func (VoidType) Align() int64 { return 1 }

// String returns the LLVM-style spelling, e.g. "i64".
func (t IntType) String() string { return fmt.Sprintf("i%d", t.Bits) }

// Size returns the byte size (i1 occupies one byte).
func (t IntType) Size() int64 {
	if t.Bits <= 8 {
		return 1
	}
	return int64(t.Bits) / 8
}

// Align returns the natural alignment.
func (t IntType) Align() int64 { return t.Size() }

// String returns "f32" or "f64".
func (t FloatType) String() string { return fmt.Sprintf("f%d", t.Bits) }

// Size returns the byte size.
func (t FloatType) Size() int64 { return int64(t.Bits) / 8 }

// Align returns the natural alignment.
func (t FloatType) Align() int64 { return t.Size() }

// String returns "elem*" or "elem color(c)*".
func (t PointerType) String() string {
	if t.Color.IsNone() {
		return t.Elem.String() + "*"
	}
	return t.Elem.String() + " color(" + t.Color.String() + ")*"
}

// Size returns 8: the simulated machine is 64-bit.
func (t PointerType) Size() int64 { return 8 }

// Align returns 8.
func (t PointerType) Align() int64 { return 8 }

// String returns "[n x elem]".
func (t ArrayType) String() string {
	return fmt.Sprintf("[%d x %s]", t.Len, t.Elem.String())
}

// Size returns Len * sizeof(Elem).
func (t ArrayType) Size() int64 { return t.Len * t.Elem.Size() }

// Align returns the element alignment.
func (t ArrayType) Align() int64 { return t.Elem.Align() }

// NewStruct builds a named struct type, computing field offsets with
// natural alignment (fields aligned to their own alignment, struct size
// rounded up to the max field alignment), like a C compiler would.
func NewStruct(name string, fields []Field) *StructType {
	s := &StructType{Name: name}
	s.SetFields(fields)
	return s
}

// SetFields installs the field list and computes the layout. It exists
// separately from NewStruct so the frontend can create a shell type first
// and fill it in later, which is what makes self-referential structs
// (struct node { struct node* next; }) resolvable.
func (s *StructType) SetFields(fields []Field) {
	s.Fields = fields
	s.align = 1
	var off int64
	for i := range s.Fields {
		f := &s.Fields[i]
		a := f.Type.Align()
		if a > s.align {
			s.align = a
		}
		off = alignUp(off, a)
		f.Offset = off
		off += f.Type.Size()
	}
	s.size = alignUp(off, s.align)
	if s.size == 0 {
		s.size = 1
	}
}

func alignUp(n, a int64) int64 {
	if a <= 1 {
		return n
	}
	return (n + a - 1) / a * a
}

// String returns "%name" for named structs.
func (t *StructType) String() string { return "%" + t.Name }

// Describe returns the full field list, for diagnostics.
func (t *StructType) Describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%%%s = { ", t.Name)
	for i, f := range t.Fields {
		if i > 0 {
			b.WriteString(", ")
		}
		if !f.Color.IsNone() {
			fmt.Fprintf(&b, "color(%s) ", f.Color)
		}
		fmt.Fprintf(&b, "%s %s", f.Type, f.Name)
	}
	b.WriteString(" }")
	return b.String()
}

// Size returns the padded struct size.
func (t *StructType) Size() int64 { return t.size }

// Align returns the struct alignment.
func (t *StructType) Align() int64 { return t.align }

// FieldIndex returns the index of the named field, or -1.
func (t *StructType) FieldIndex(name string) int {
	for i, f := range t.Fields {
		if f.Name == name {
			return i
		}
	}
	return -1
}

// Colors returns the set of distinct non-None field colors, used to decide
// whether the struct is multi-color (paper §7.2).
func (t *StructType) Colors() []Color {
	var out []Color
	for _, f := range t.Fields {
		if f.Color.IsNone() {
			continue
		}
		dup := false
		for _, c := range out {
			if c == f.Color {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, f.Color)
		}
	}
	return out
}

// String returns "ret(params)".
func (t FuncType) String() string {
	parts := make([]string, len(t.Params))
	for i, p := range t.Params {
		parts[i] = p.String()
	}
	if t.Variadic {
		parts = append(parts, "...")
	}
	return fmt.Sprintf("%s(%s)", t.Ret, strings.Join(parts, ", "))
}

// Size returns 8 (function pointers).
func (t FuncType) Size() int64 { return 8 }

// Align returns 8.
func (t FuncType) Align() int64 { return 8 }

// TypesEqual reports structural type equality (named structs by name).
func TypesEqual(a, b Type) bool {
	switch x := a.(type) {
	case VoidType:
		_, ok := b.(VoidType)
		return ok
	case IntType:
		y, ok := b.(IntType)
		return ok && x.Bits == y.Bits
	case FloatType:
		y, ok := b.(FloatType)
		return ok && x.Bits == y.Bits
	case PointerType:
		y, ok := b.(PointerType)
		return ok && x.Color == y.Color && TypesEqual(x.Elem, y.Elem)
	case ArrayType:
		y, ok := b.(ArrayType)
		return ok && x.Len == y.Len && TypesEqual(x.Elem, y.Elem)
	case *StructType:
		y, ok := b.(*StructType)
		return ok && x.Name == y.Name
	case FuncType:
		y, ok := b.(FuncType)
		if !ok || len(x.Params) != len(y.Params) || x.Variadic != y.Variadic || !TypesEqual(x.Ret, y.Ret) {
			return false
		}
		for i := range x.Params {
			if !TypesEqual(x.Params[i], y.Params[i]) {
				return false
			}
		}
		return true
	}
	return false
}
