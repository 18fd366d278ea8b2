package ir

import (
	"strconv"
	"strings"
)

// parseDefine parses a function definition starting at lines[start];
// returns the index of the closing "}" line. Because a φ's type is only
// known once its edges resolve, the body is parsed up to three times,
// carrying resolved φ types between attempts (loop-carried pointers whose
// first edge is null need the extra round).
func (p *irParser) parseDefine(lines []string, start int) (int, error) {
	end := start + 1
	for ; end < len(lines); end++ {
		if strings.TrimSpace(lines[end]) == "}" {
			break
		}
	}
	p.phiTypes = map[string]Type{}
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		fn, changed, err := p.parseDefineOnce(lines, start)
		if err != nil {
			lastErr = err
			if attempt == 2 || !p.phiTypesGrew {
				return 0, err
			}
			continue
		}
		if !changed {
			p.mod.AddFunc(fn)
			return end, nil
		}
		lastErr = nil
		if attempt == 2 {
			p.mod.AddFunc(fn)
			return end, nil
		}
	}
	return 0, lastErr
}

// parseDefineOnce runs one parsing attempt; changed reports whether φ
// types were refined (warranting a re-parse).
func (p *irParser) parseDefineOnce(lines []string, start int) (*Function, bool, error) {
	p.phiTypesGrew = false
	header := strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(lines[start]), "define "))
	fn, err := p.parseHeader(header, start+1)
	if err != nil {
		return nil, false, err
	}

	env := map[string]Value{}
	for _, pr := range fn.Params {
		env[pr.PName] = pr
	}
	blocks := map[string]*Block{}
	getBlock := func(name string) *Block {
		if b := blocks[name]; b != nil {
			return b
		}
		b := &Block{BName: name, Func: fn}
		blocks[name] = b
		return b
	}
	type phiFix struct {
		phi   *Phi
		edges []struct{ val, pred string }
		line  int
	}
	var fixups []phiFix
	var cur *Block

	i := start + 1
	for ; i < len(lines); i++ {
		line := strings.TrimSpace(lines[i])
		if line == "}" {
			break
		}
		if line == "" || strings.HasPrefix(line, ";") {
			continue
		}
		if strings.HasSuffix(line, ":") {
			cur = getBlock(strings.TrimSuffix(line, ":"))
			fn.Blocks = append(fn.Blocks, cur)
			continue
		}
		if cur == nil {
			return nil, false, p.errf(i+1, "instruction before first block label")
		}
		in, fix, err := p.parseInstr(fn, env, getBlock, line, i+1)
		if err != nil {
			return nil, false, err
		}
		if fix != nil {
			fixups = append(fixups, phiFix{phi: in.(*Phi), edges: fix, line: i + 1})
		}
		cur.Append(in)
		if v, ok := in.(Value); ok {
			name := strings.TrimPrefix(v.Name(), "%")
			env[name] = v
		}
	}
	// Resolve phi edges now that every register exists.
	changed := false
	for _, f := range fixups {
		for _, e := range f.edges {
			val, err := p.resolveValue(env, e.val, f.line, f.phi.typ)
			if err != nil {
				return nil, false, err
			}
			f.phi.Edges = append(f.phi.Edges, PhiEdge{Val: val, Pred: getBlock(e.pred)})
		}
		// The definitive φ type is the type of a register edge or of a
		// float literal (integer literals and null take their type from
		// the context).
		name := strings.TrimPrefix(f.phi.Name(), "%")
		for _, e := range f.phi.Edges {
			switch e.Val.(type) {
			case *ConstInt, *Null:
				continue
			}
			if !TypesEqual(f.phi.typ, e.Val.Type()) {
				f.phi.typ = e.Val.Type()
			}
			if prev, ok := p.phiTypes[name]; !ok || !TypesEqual(prev, f.phi.typ) {
				p.phiTypes[name] = f.phi.typ
				changed = true
				p.phiTypesGrew = true
			}
			break
		}
	}
	fn.ComputeCFG()
	return fn, changed, nil
}

// resolveValue parses an operand: %reg, @global/@function, integer, float,
// or null. want provides the type context for literals (may be nil).
func (p *irParser) resolveValue(env map[string]Value, s string, ln int, want Type) (Value, error) {
	s = strings.TrimSpace(s)
	switch {
	case s == "null":
		pt, ok := want.(PointerType)
		if !ok {
			pt = PtrTo(I8)
		}
		return &Null{Typ: pt}, nil
	case strings.HasPrefix(s, "%"):
		v, ok := env[s[1:]]
		if !ok {
			return nil, p.errf(ln, "undefined register %s", s)
		}
		return v, nil
	case strings.HasPrefix(s, "@"):
		if g := p.mod.Global(s[1:]); g != nil {
			return g, nil
		}
		if f := p.mod.Func(s[1:]); f != nil {
			return f, nil
		}
		return nil, p.errf(ln, "undefined global %s", s)
	case strings.ContainsAny(s, ".eE") && !strings.HasPrefix(s, "0x"):
		f, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return nil, p.errf(ln, "bad literal %q", s)
		}
		ft, ok := want.(FloatType)
		if !ok {
			ft = F64
		}
		return &ConstFloat{Typ: ft, V: f}, nil
	default:
		n, err := strconv.ParseInt(s, 0, 64)
		if err != nil {
			f, ferr := strconv.ParseFloat(s, 64)
			if ferr == nil {
				ft, ok := want.(FloatType)
				if !ok {
					ft = F64
				}
				return &ConstFloat{Typ: ft, V: f}, nil
			}
			return nil, p.errf(ln, "bad literal %q", s)
		}
		it, ok := want.(IntType)
		if !ok {
			if ft, isF := want.(FloatType); isF {
				return &ConstFloat{Typ: ft, V: float64(n)}, nil
			}
			it = I64
		}
		return &ConstInt{Typ: it, V: n}, nil
	}
}

// parseInstr parses one instruction line. For φ-nodes it returns the edge
// strings for later fixup (their operands may not be defined yet).
func (p *irParser) parseInstr(fn *Function, env map[string]Value, getBlock func(string) *Block, line string, ln int) (Instr, []struct{ val, pred string }, error) {
	resultName := ""
	body := line
	if strings.HasPrefix(line, "%") {
		eq := strings.Index(line, " = ")
		if eq < 0 {
			return nil, nil, p.errf(ln, "bad instruction %q", line)
		}
		resultName = line[1:eq]
		body = line[eq+3:]
	}
	op, rest, _ := strings.Cut(body, " ")
	setReg := func(r *register, typ Type) {
		r.name = resultName
		r.typ = typ
	}

	switch op {
	case "ret":
		if strings.TrimSpace(rest) == "void" {
			return &Ret{}, nil, nil
		}
		v, err := p.resolveValue(env, rest, ln, fn.RetTyp)
		if err != nil {
			return nil, nil, err
		}
		return &Ret{Val: v}, nil, nil

	case "br":
		return &Br{Target: getBlock(strings.TrimPrefix(strings.TrimSpace(rest), "%"))}, nil, nil

	case "condbr":
		parts := splitTop(rest)
		if len(parts) != 3 {
			return nil, nil, p.errf(ln, "bad condbr %q", line)
		}
		cond, err := p.resolveValue(env, parts[0], ln, I1)
		if err != nil {
			return nil, nil, err
		}
		return &CondBr{
			Cond: cond,
			Then: getBlock(strings.TrimPrefix(strings.TrimSpace(parts[1]), "%")),
			Else: getBlock(strings.TrimPrefix(strings.TrimSpace(parts[2]), "%")),
		}, nil, nil

	case "free":
		v, err := p.resolveValue(env, rest, ln, nil)
		if err != nil {
			return nil, nil, err
		}
		return &Free{Ptr: v}, nil, nil

	case "store":
		parts := splitTop(rest)
		if len(parts) != 2 {
			return nil, nil, p.errf(ln, "bad store %q", line)
		}
		ptr, err := p.resolveValue(env, parts[1], ln, nil)
		if err != nil {
			return nil, nil, err
		}
		var want Type
		if pt, ok := ptr.Type().(PointerType); ok {
			want = pt.Elem
		}
		v, err := p.resolveValue(env, parts[0], ln, want)
		if err != nil {
			return nil, nil, err
		}
		return &Store{Val: v, Ptr: ptr}, nil, nil

	case "load":
		// load TYPE, PTR
		parts := splitTop(rest)
		if len(parts) != 2 {
			return nil, nil, p.errf(ln, "bad load %q", line)
		}
		typ, err := p.parseType(parts[0], ln)
		if err != nil {
			return nil, nil, err
		}
		ptr, err := p.resolveValue(env, parts[1], ln, nil)
		if err != nil {
			return nil, nil, err
		}
		in := &Load{Ptr: ptr}
		setReg(&in.register, typ)
		return in, nil, nil

	case "alloca", "malloc":
		// alloca TYPE [color(c)] | malloc TYPE [color(c)][, count]
		parts := splitTop(rest)
		spec := strings.TrimSpace(parts[0])
		color := None
		if idx := strings.LastIndex(spec, " color("); idx >= 0 && strings.HasSuffix(spec, ")") {
			color = parseColorName(spec[idx+7 : len(spec)-1])
			spec = spec[:idx]
		}
		typ, err := p.parseType(spec, ln)
		if err != nil {
			return nil, nil, err
		}
		if op == "alloca" {
			in := &Alloca{Elem: typ, Color: color}
			setReg(&in.register, PtrToColored(typ, color))
			return in, nil, nil
		}
		in := &Malloc{Elem: typ, Color: color}
		if len(parts) == 2 {
			cnt, err := p.resolveValue(env, parts[1], ln, I64)
			if err != nil {
				return nil, nil, err
			}
			in.Count = cnt
		}
		setReg(&in.register, PtrToColored(typ, color))
		return in, nil, nil

	case "cast":
		// cast VAL to TYPE
		val, toStr, ok := strings.Cut(rest, " to ")
		if !ok {
			return nil, nil, p.errf(ln, "bad cast %q", line)
		}
		typ, err := p.parseType(toStr, ln)
		if err != nil {
			return nil, nil, err
		}
		v, err := p.resolveValue(env, val, ln, nil)
		if err != nil {
			return nil, nil, err
		}
		in := &Cast{Val: v}
		setReg(&in.register, typ)
		return in, nil, nil

	case "cmp":
		// cmp PRED X, Y
		predStr, operands, _ := strings.Cut(rest, " ")
		var pred CmpPred
		for k, v := range cmpNames {
			if v == predStr {
				pred = k
			}
		}
		if pred == 0 {
			return nil, nil, p.errf(ln, "bad predicate %q", predStr)
		}
		parts := splitTop(operands)
		x, err := p.resolveValue(env, parts[0], ln, nil)
		if err != nil {
			return nil, nil, err
		}
		y, err := p.resolveValue(env, parts[1], ln, x.Type())
		if err != nil {
			return nil, nil, err
		}
		in := &Cmp{Pred: pred, X: literalAs(x, y), Y: y}
		setReg(&in.register, I1)
		return in, nil, nil

	case "fieldaddr":
		// fieldaddr BASE, IDX (name)
		if par := strings.Index(rest, "("); par >= 0 {
			rest = strings.TrimSpace(rest[:par])
		}
		parts := splitTop(rest)
		base, err := p.resolveValue(env, parts[0], ln, nil)
		if err != nil {
			return nil, nil, err
		}
		idx, err := strconv.Atoi(strings.TrimSpace(parts[1]))
		if err != nil {
			return nil, nil, p.errf(ln, "bad field index %q", parts[1])
		}
		pt, ok := base.Type().(PointerType)
		if !ok {
			return nil, nil, p.errf(ln, "fieldaddr of non-pointer")
		}
		st, ok := pt.Elem.(*StructType)
		if !ok || idx >= len(st.Fields) {
			return nil, nil, p.errf(ln, "bad fieldaddr target")
		}
		color := st.Fields[idx].Color
		if color.IsNone() {
			color = pt.Color
		}
		in := &FieldAddr{X: base, Index: idx}
		setReg(&in.register, PtrToColored(st.Fields[idx].Type, color))
		return in, nil, nil

	case "indexaddr":
		parts := splitTop(rest)
		base, err := p.resolveValue(env, parts[0], ln, nil)
		if err != nil {
			return nil, nil, err
		}
		idx, err := p.resolveValue(env, parts[1], ln, I64)
		if err != nil {
			return nil, nil, err
		}
		pt, ok := base.Type().(PointerType)
		if !ok {
			return nil, nil, p.errf(ln, "indexaddr of non-pointer")
		}
		elem := pt.Elem
		if arr, isArr := elem.(ArrayType); isArr {
			elem = arr.Elem
		}
		in := &IndexAddr{X: base, Index: idx}
		setReg(&in.register, PtrToColored(elem, pt.Color))
		return in, nil, nil

	case "call":
		open := strings.Index(rest, "(")
		closeIdx := strings.LastIndex(rest, ")")
		if open < 0 || closeIdx < open {
			return nil, nil, p.errf(ln, "bad call %q", line)
		}
		callee, err := p.resolveValue(env, rest[:open], ln, nil)
		if err != nil {
			return nil, nil, err
		}
		var sig FuncType
		switch c := callee.(type) {
		case *Function:
			sig = c.Signature()
		default:
			ft, ok := callee.Type().(FuncType)
			if !ok {
				return nil, nil, p.errf(ln, "call of non-function")
			}
			sig = ft
		}
		var args []Value
		for ai, part := range splitTop(rest[open+1 : closeIdx]) {
			part = strings.TrimSpace(part)
			if part == "" {
				continue
			}
			var want Type
			if ai < len(sig.Params) {
				want = sig.Params[ai]
			}
			a, err := p.resolveValue(env, part, ln, want)
			if err != nil {
				return nil, nil, err
			}
			args = append(args, a)
		}
		in := &Call{Callee: callee, Args: args}
		name := resultName
		if name == "" {
			name = fn.regName()
		}
		in.register.name = name
		in.register.typ = sig.Ret
		return in, nil, nil

	case "phi":
		var edges []struct{ val, pred string }
		for _, part := range splitTop(rest) {
			part = strings.TrimSpace(part)
			part = strings.TrimSuffix(strings.TrimPrefix(part, "["), "]")
			val, pred, ok := strings.Cut(part, ",")
			if !ok {
				return nil, nil, p.errf(ln, "bad phi edge %q", part)
			}
			edges = append(edges, struct{ val, pred string }{
				strings.TrimSpace(val),
				strings.TrimPrefix(strings.TrimSpace(pred), "%"),
			})
		}
		in := &Phi{}
		setReg(&in.register, I64)
		// The φ's type comes from its edges. Prefer the type learned on
		// a previous parsing attempt; otherwise a float literal or any
		// register edge that is textually earlier resolves it now
		// (back-edges are fixed up after the body).
		if t, ok := p.phiTypes[resultName]; ok {
			in.register.typ = t
		} else {
			for _, e := range edges {
				v, err := p.resolveValue(env, e.val, ln, nil)
				if err != nil {
					continue
				}
				switch v.(type) {
				case *ConstInt, *Null:
					continue
				}
				in.register.typ = v.Type()
				break
			}
		}
		return in, edges, nil
	}

	// Binary operations.
	for k, name := range binOpNames {
		if name == op {
			parts := splitTop(rest)
			if len(parts) != 2 {
				return nil, nil, p.errf(ln, "bad %s %q", op, line)
			}
			x, err := p.resolveValue(env, parts[0], ln, nil)
			if err != nil {
				return nil, nil, err
			}
			y, err := p.resolveValue(env, parts[1], ln, x.Type())
			if err != nil {
				return nil, nil, err
			}
			x = literalAs(x, y)
			in := &BinOp{Op: k, X: x, Y: y}
			setReg(&in.register, x.Type())
			return in, nil, nil
		}
	}
	return nil, nil, p.errf(ln, "unknown instruction %q", line)
}

// literalAs gives an integer literal left operand the type of the right
// operand when that is an integer or float type: x was parsed without
// type context, and the operands of a binop or cmp share one type.
func literalAs(x, y Value) Value {
	c, ok := x.(*ConstInt)
	if !ok {
		return x
	}
	switch yt := y.Type().(type) {
	case IntType:
		return &ConstInt{Typ: yt, V: c.V}
	case FloatType:
		return &ConstFloat{Typ: yt, V: float64(c.V)}
	}
	return x
}
