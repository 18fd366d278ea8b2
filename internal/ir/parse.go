package ir

import (
	"fmt"
	"strconv"
	"strings"
)

// ParseModule reads the textual IR form produced by Module.String — the
// reproduction's analogue of the LLVM bitcode file the Privagic compiler
// consumes (paper Figure 5). Print and parse round-trip, so modules can be
// stored, inspected and hand-written at the IR level, bypassing MiniC.
func ParseModule(name, src string) (*Module, error) {
	p := &irParser{mod: NewModule(name)}
	lines := strings.Split(src, "\n")
	for i := 0; i < len(lines); i++ {
		line := strings.TrimSpace(lines[i])
		switch {
		case line == "" || strings.HasPrefix(line, ";"):
		case strings.HasPrefix(line, "%"): // struct type
			if err := p.parseStruct(line, i+1); err != nil {
				return nil, err
			}
		case strings.HasPrefix(line, "@"): // global
			if err := p.parseGlobal(line, i+1); err != nil {
				return nil, err
			}
		case strings.HasPrefix(line, "declare "):
			if err := p.parseDeclare(line, i+1); err != nil {
				return nil, err
			}
		case strings.HasPrefix(line, "define "):
			end, err := p.parseDefine(lines, i)
			if err != nil {
				return nil, err
			}
			i = end
		default:
			return nil, fmt.Errorf("ir: line %d: unexpected %q", i+1, line)
		}
	}
	if err := Verify(p.mod); err != nil {
		return nil, fmt.Errorf("ir: parsed module invalid: %w", err)
	}
	return p.mod, nil
}

type irParser struct {
	mod *Module
	// phiTypes carries φ result types between parsing attempts of one
	// function body; phiTypesGrew signals an attempt refined one.
	phiTypes     map[string]Type
	phiTypesGrew bool
}

func (p *irParser) errf(line int, format string, args ...any) error {
	return fmt.Errorf("ir: line %d: %s", line, fmt.Sprintf(format, args...))
}

// parseType parses a type spelling: void, iN, fN, [N x T], %struct, T*,
// T color(c)*, and ret(params) function types.
func (p *irParser) parseType(s string, line int) (Type, error) {
	s = strings.TrimSpace(s)
	// Pointer suffixes bind last.
	if strings.HasSuffix(s, "*") {
		body := strings.TrimSuffix(s, "*")
		color := None
		if idx := strings.LastIndex(body, " color("); idx >= 0 && strings.HasSuffix(body, ")") {
			color = parseColorName(body[idx+7 : len(body)-1])
			body = body[:idx]
		}
		elem, err := p.parseType(body, line)
		if err != nil {
			return nil, err
		}
		return PtrToColored(elem, color), nil
	}
	switch {
	case s == "void":
		return Void, nil
	case strings.HasPrefix(s, "["):
		// [N x T]
		inner := strings.TrimSuffix(strings.TrimPrefix(s, "["), "]")
		parts := strings.SplitN(inner, " x ", 2)
		if len(parts) != 2 {
			return nil, p.errf(line, "bad array type %q", s)
		}
		n, err := strconv.ParseInt(strings.TrimSpace(parts[0]), 10, 64)
		if err != nil {
			return nil, p.errf(line, "bad array length in %q", s)
		}
		elem, err := p.parseType(parts[1], line)
		if err != nil {
			return nil, err
		}
		return ArrayType{Elem: elem, Len: n}, nil
	case strings.HasPrefix(s, "%"):
		st := p.mod.Struct(s[1:])
		if st == nil {
			// Forward reference: create a shell.
			st = &StructType{Name: s[1:]}
			p.mod.AddStruct(st)
		}
		return st, nil
	case strings.HasPrefix(s, "i"):
		bits, err := strconv.Atoi(s[1:])
		if err != nil {
			return nil, p.errf(line, "bad int type %q", s)
		}
		return IntType{Bits: bits}, nil
	case strings.HasPrefix(s, "f"):
		bits, err := strconv.Atoi(s[1:])
		if err != nil {
			return nil, p.errf(line, "bad float type %q", s)
		}
		if bits != 64 {
			// A value is one 64-bit word and a float travels as its
			// f64 bits: a narrower float would be stored as 8 bytes
			// over its neighbours.
			return nil, p.errf(line, "unsupported float type %q (only f64)", s)
		}
		return F64, nil
	case strings.Contains(s, "("):
		// Function type ret(params).
		open := strings.Index(s, "(")
		ret, err := p.parseType(s[:open], line)
		if err != nil {
			return nil, err
		}
		ft := FuncType{Ret: ret}
		inner := strings.TrimSuffix(s[open+1:], ")")
		for _, part := range splitTop(inner) {
			part = strings.TrimSpace(part)
			if part == "" {
				continue
			}
			if part == "..." {
				ft.Variadic = true
				continue
			}
			pt, err := p.parseType(part, line)
			if err != nil {
				return nil, err
			}
			ft.Params = append(ft.Params, pt)
		}
		return ft, nil
	}
	return nil, p.errf(line, "unknown type %q", s)
}

func parseColorName(name string) Color {
	switch name {
	case "U":
		return U
	case "S":
		return S
	case "F":
		return F
	default:
		return Named(name)
	}
}

// splitTop splits on commas not nested in brackets or parentheses.
func splitTop(s string) []string {
	var out []string
	depth := 0
	last := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '[', '(':
			depth++
		case ']', ')':
			depth--
		case ',':
			if depth == 0 {
				out = append(out, s[last:i])
				last = i + 1
			}
		}
	}
	out = append(out, s[last:])
	return out
}

// parseStruct parses "%name = { color(c) T f, ... }".
func (p *irParser) parseStruct(line string, ln int) error {
	eq := strings.Index(line, "=")
	if eq < 0 {
		return p.errf(ln, "bad struct line %q", line)
	}
	name := strings.TrimSpace(line[1:eq])
	body := strings.TrimSpace(line[eq+1:])
	body = strings.TrimSuffix(strings.TrimPrefix(body, "{"), "}")
	st := p.mod.Struct(name)
	if st == nil {
		st = &StructType{Name: name}
		p.mod.AddStruct(st)
	}
	var fields []Field
	for _, part := range splitTop(body) {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		color := None
		if strings.HasPrefix(part, "color(") {
			end := strings.Index(part, ")")
			color = parseColorName(part[6:end])
			part = strings.TrimSpace(part[end+1:])
		}
		sp := strings.LastIndex(part, " ")
		if sp < 0 {
			return p.errf(ln, "bad field %q", part)
		}
		ft, err := p.parseType(part[:sp], ln)
		if err != nil {
			return err
		}
		fields = append(fields, Field{Name: part[sp+1:], Type: ft, Color: color})
	}
	st.SetFields(fields)
	return nil
}

// parseGlobal parses `@g = global T [color(c)] ["bytes"]`.
func (p *irParser) parseGlobal(line string, ln int) error {
	eq := strings.Index(line, "=")
	if eq < 0 {
		return p.errf(ln, "bad global %q", line)
	}
	name := strings.TrimSpace(line[1:eq])
	rest := strings.TrimSpace(line[eq+1:])
	if !strings.HasPrefix(rest, "global ") {
		return p.errf(ln, "bad global %q", line)
	}
	rest = strings.TrimPrefix(rest, "global ")
	g := &Global{GName: name}
	if q := strings.Index(rest, " \""); q >= 0 {
		lit, err := strconv.Unquote(strings.TrimSpace(rest[q+1:]))
		if err != nil {
			return p.errf(ln, "bad string initializer: %v", err)
		}
		g.InitBytes = []byte(lit)
		rest = rest[:q]
	}
	rest = strings.TrimSpace(rest)
	if idx := strings.LastIndex(rest, " color("); idx >= 0 && strings.HasSuffix(rest, ")") {
		g.Color = parseColorName(rest[idx+7 : len(rest)-1])
		rest = rest[:idx]
	}
	t, err := p.parseType(rest, ln)
	if err != nil {
		return err
	}
	g.Elem = t
	p.mod.AddGlobal(g)
	return nil
}

// parseHeader parses "RET @name(params) attrs" shared by declare/define.
func (p *irParser) parseHeader(s string, ln int) (*Function, error) {
	at := strings.Index(s, "@")
	open := strings.Index(s, "(")
	closeIdx := strings.LastIndex(s, ")")
	if at < 0 || open < at || closeIdx < open {
		return nil, p.errf(ln, "bad function header %q", s)
	}
	ret, err := p.parseType(s[:at], ln)
	if err != nil {
		return nil, err
	}
	name := strings.TrimSpace(s[at+1 : open])
	var params []*Param
	for _, part := range splitTop(s[open+1 : closeIdx]) {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		pct := strings.LastIndex(part, "%")
		if pct < 0 {
			return nil, p.errf(ln, "bad parameter %q", part)
		}
		typeAndColor := strings.TrimSpace(part[:pct])
		color := None
		if idx := strings.LastIndex(typeAndColor, " color("); idx >= 0 && strings.HasSuffix(typeAndColor, ")") {
			color = parseColorName(typeAndColor[idx+7 : len(typeAndColor)-1])
			typeAndColor = typeAndColor[:idx]
		}
		pt, err := p.parseType(typeAndColor, ln)
		if err != nil {
			return nil, err
		}
		params = append(params, &Param{PName: part[pct+1:], Typ: pt, Color: color})
	}
	fn := NewFunction(name, ret, params)
	attrs := strings.Fields(s[closeIdx+1:])
	for _, a := range attrs {
		switch a {
		case "within":
			fn.Within = true
		case "ignore":
			fn.Ignore = true
			fn.Within = true
		case "entry":
			fn.Entry = true
		case "variadic":
			fn.Variadic = true
		case "{":
		default:
			return nil, p.errf(ln, "unknown attribute %q", a)
		}
	}
	return fn, nil
}

func (p *irParser) parseDeclare(line string, ln int) error {
	fn, err := p.parseHeader(strings.TrimPrefix(line, "declare "), ln)
	if err != nil {
		return err
	}
	fn.External = true
	p.mod.AddFunc(fn)
	return nil
}
