package typing

import (
	"fmt"
	"sort"

	"privagic/internal/ir"
)

// Analyze runs the secure type system over a module and returns the
// analysis result, including any type errors. The module must already be in
// SSA form (run passes.RunAll first); Analyze itself does not mutate the
// input module — every specialized instance works on a private clone.
func Analyze(mod *ir.Module, opts Options) *Analysis {
	if opts.Mode == 0 {
		opts.Mode = Hardened
	}
	a := &Analysis{
		Mod:   mod,
		Mode:  opts.Mode,
		Specs: map[string]*FuncSpec{},
		softU: map[any]bool{},
	}
	a.collectColors()

	entries := a.entryFunctions(opts)

	// Stabilizing algorithm (paper §5.2): run full passes over the whole
	// IR until a pass infers no new color.
	for {
		a.changed = false
		a.Errors = a.Errors[:0]

		for _, fn := range entries {
			s := a.entrySpec(fn)
			if !containsSpec(a.Entries, s) {
				a.Entries = append(a.Entries, s)
			}
		}
		// Analyze every spec; the map can grow while we iterate, so
		// loop until a sweep adds nothing.
		for {
			before := len(a.Specs)
			for _, key := range sortedKeys(a.Specs) {
				a.analyzeSpec(a.Specs[key])
			}
			if len(a.Specs) == before {
				break
			}
		}
		a.passes++
		if !a.changed || a.passes > 64 {
			break
		}
	}
	// Structure-level checks run once, outside the pass loop (the loop
	// resets per-pass diagnostics).
	a.curSpec, a.curBlock, a.curInstr = nil, -1, -1
	a.checkStructs()
	a.prune()
	a.sortErrors()
	return a
}

// sortErrors orders the diagnostics by function, block index, then
// instruction index (ties broken by kind and message), so multi-error
// output — and the golden diagnostic files built on it — is stable across
// map-iteration order.
func (a *Analysis) sortErrors() {
	sort.SliceStable(a.Errors, func(i, j int) bool {
		x, y := a.Errors[i], a.Errors[j]
		if x.Fn != y.Fn {
			return x.Fn < y.Fn
		}
		if x.BlockIdx != y.BlockIdx {
			return x.BlockIdx < y.BlockIdx
		}
		if x.InstrIdx != y.InstrIdx {
			return x.InstrIdx < y.InstrIdx
		}
		if x.Kind != y.Kind {
			return x.Kind < y.Kind
		}
		return x.Msg < y.Msg
	})
}

// changed is set whenever the current pass assigns a new color.
func (a *Analysis) setChanged() { a.changed = true }

func containsSpec(l []*FuncSpec, s *FuncSpec) bool {
	for _, x := range l {
		if x == s {
			return true
		}
	}
	return false
}

func sortedKeys(m map[string]*FuncSpec) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// entryFunctions resolves the entry-point set.
func (a *Analysis) entryFunctions(opts Options) []*ir.Function {
	if len(opts.Entries) > 0 {
		var out []*ir.Function
		for _, name := range opts.Entries {
			if fn := a.Mod.Func(name); fn != nil && !fn.External {
				out = append(out, fn)
			} else {
				a.errorf(ErrStructure, ir.Pos{}, name, "entry point %s is not a defined function", name)
			}
		}
		return out
	}
	return a.Mod.EntryPoints()
}

// entrySpec creates (or retrieves) the spec of an entry point: parameters
// take their declared colors, or U (hardened) / F (relaxed) per §6.2.
func (a *Analysis) entrySpec(fn *ir.Function) *FuncSpec {
	colors := make([]ir.Color, len(fn.Params))
	for i, p := range fn.Params {
		if !p.Color.IsNone() {
			colors[i] = p.Color
		} else {
			colors[i] = a.entryArgColor()
		}
	}
	s := a.getSpec(fn, colors)
	s.IsEntry = true
	return s
}

// getSpec memoizes function specialization by (name, argument colors).
func (a *Analysis) getSpec(fn *ir.Function, argColors []ir.Color) *FuncSpec {
	key := SpecKey(fn.FName, argColors)
	if s := a.Specs[key]; s != nil {
		return s
	}
	clone, _ := ir.CloneFunction(fn, fn.FName)
	s := &FuncSpec{
		Orig:       fn,
		Fn:         clone,
		Key:        key,
		ArgColors:  append([]ir.Color(nil), argColors...),
		RegColor:   map[ir.Value]ir.Color{},
		InstrColor: map[ir.Instr]ir.Color{},
		BlockColor: map[*ir.Block]ir.Color{},
		RetColor:   ir.F,
		CallTarget: map[*ir.Call]*FuncSpec{},
	}
	for i, p := range clone.Params {
		if !argColors[i].IsFree() {
			s.RegColor[p] = argColors[i]
		}
	}
	if !fn.RetColor.IsNone() {
		s.RetColor = fn.RetColor
	}
	a.Specs[key] = s
	a.setChanged()
	return s
}

// analyzeSpec runs one pass of the rules over a specialized function.
func (a *Analysis) analyzeSpec(s *FuncSpec) {
	fn := s.Fn
	if fn.External || len(fn.Blocks) == 0 {
		return
	}
	fn.ComputeCFG()
	a.curSpec = s
	a.blockColors(s)
	for bi, b := range fn.Blocks {
		for ii, in := range b.Instrs {
			a.curBlock, a.curInstr = bi, ii
			a.visitInstr(s, b, in)
		}
	}
	a.curSpec, a.curBlock, a.curInstr = nil, -1, -1
}

// errorf records a diagnostic.
func (a *Analysis) errorf(kind ErrKind, pos ir.Pos, fn string, format string, args ...any) {
	a.errorv(kind, pos, fn, nil, format, args...)
}

// errorv records a diagnostic about a specific offending value, which the
// provenance engine uses to reconstruct the backward leak trace.
func (a *Analysis) errorv(kind ErrKind, pos ir.Pos, fn string, val ir.Value, format string, args ...any) {
	a.Errors = append(a.Errors, &TypeError{
		Kind: kind, Pos: pos, Fn: fn, Msg: fmt.Sprintf(format, args...),
		Val: val, Spec: a.curSpec, BlockIdx: a.curBlock, InstrIdx: a.curInstr,
	})
}

// colorOf returns the color of a value in a spec. Constants and function
// references are F; pointer-producing sources (globals, allocas, mallocs,
// field and index addresses) were colored when visited; everything else
// defaults to F until inference assigns it (Table 2).
func (a *Analysis) colorOf(s *FuncSpec, v ir.Value) ir.Color {
	switch v.(type) {
	case *ir.ConstInt, *ir.ConstFloat, *ir.Null, *ir.Function, *ir.Global:
		// Addresses known from the program text are Free values: the
		// address of a blue global is just a number any chunk may
		// compute. The fourth confidentiality rule of §4 ("a pointer
		// to a C location is itself C") is the *static* pointer-type
		// discipline enforced by checkStaticColors, exactly as the
		// paper compares it to float*/int* typing (§3). Values
		// *loaded* from colored memory do take the memory's color
		// (Rule 1).
		return ir.F
	}
	if c, ok := s.RegColor[v]; ok {
		return c
	}
	return ir.F
}

// assignReg implements "x ← ȳ" from Table 3: check compatibility, and give
// the register the concrete color when it is still F.
func (a *Analysis) assignReg(s *FuncSpec, v ir.Value, c ir.Color, pos ir.Pos, what string) {
	if c.IsFree() || c.IsNone() {
		return
	}
	switch v.(type) {
	case *ir.ConstInt, *ir.ConstFloat, *ir.Null, *ir.Function, *ir.Global:
		return
	}
	cur, ok := s.RegColor[v]
	if !ok || cur.IsFree() {
		s.RegColor[v] = c
		a.setChanged()
		return
	}
	if cur == ir.U && a.softU[v] && c.IsEnclave() {
		// Upgrade a defaulted U once inference finds the real enclave.
		s.RegColor[v] = c
		delete(a.softU, v)
		a.setChanged()
		return
	}
	if cur != c {
		a.errorv(ErrIncompatible, pos, s.Fn.FName, v,
			"%s: register %s has color %s but is required to be %s", what, v.Name(), cur, c)
	}
}

// checkCompatv implements "x̄ ~ ȳ" from Table 3, carrying the offending
// value for the leak trace.
func (a *Analysis) checkCompatv(s *FuncSpec, x, y ir.Color, val ir.Value, kind ErrKind, pos ir.Pos, format string, args ...any) bool {
	if ir.Compatible(x, y) {
		return true
	}
	a.errorv(kind, pos, s.Fn.FName, val, format, args...)
	return false
}

// setInstrColor places an instruction in an enclave ("ins ← c̄", fourth
// column of Table 3).
func (a *Analysis) setInstrColor(s *FuncSpec, in ir.Instr, c ir.Color) {
	if c.IsNone() {
		c = ir.F
	}
	cur, ok := s.InstrColor[in]
	if !ok {
		s.InstrColor[in] = c
		if !c.IsFree() {
			a.setChanged()
		}
		return
	}
	if cur.IsFree() && !c.IsFree() {
		s.InstrColor[in] = c
		a.setChanged()
		return
	}
	if cur == ir.U && a.softU[in] && c.IsEnclave() {
		s.InstrColor[in] = c
		delete(a.softU, in)
		a.setChanged()
		return
	}
	if !c.IsFree() && cur != c {
		a.errorf(ErrIncompatible, in.InstrPos(), s.Fn.FName,
			"instruction %q belongs to both %s and %s", in.String(), cur, c)
	}
}

// staticPointee returns the resolved color of the memory a pointer-typed
// value points at ("*p̄" in Table 3).
func (a *Analysis) staticPointee(t ir.Type) ir.Color {
	pt, ok := t.(ir.PointerType)
	if !ok {
		return a.unsafeLoc()
	}
	return a.resolveLoc(pt.Color)
}

// visitInstr applies the Table 3 rules to one instruction.
func (a *Analysis) visitInstr(s *FuncSpec, b *ir.Block, in ir.Instr) {
	pos := in.InstrPos()
	switch t := in.(type) {
	case *ir.Alloca:
		c := a.resolveLoc(t.Color)
		if c.Kind == ir.KindShared {
			a.setInstrColor(s, in, ir.U)
		} else {
			a.setInstrColor(s, in, c)
		}

	case *ir.Malloc:
		c := a.resolveLoc(t.Color)
		if c.Kind == ir.KindShared {
			a.setInstrColor(s, in, ir.U)
		} else {
			a.setInstrColor(s, in, c)
		}
		if t.Count != nil {
			a.checkCompatv(s, a.colorOf(s, t.Count), c, t.Count, ErrIago, pos,
				"allocation count of color %s used for %s allocation", a.colorOf(s, t.Count), c)
		}

	case *ir.Free:
		pc := a.staticPointee(t.Ptr.Type())
		p := a.colorOf(s, t.Ptr)
		a.checkCompatv(s, p, pc, t.Ptr, ErrIncompatible, pos, "free: pointer color %s incompatible with pointee %s", p, pc)
		if pc.Kind == ir.KindShared {
			a.setInstrColor(s, in, ir.U)
		} else {
			a.setInstrColor(s, in, pc)
		}

	case *ir.Load:
		// Rule 1: *p̄ ~ p̄  ∧  (*p̄ ≠ S ⇒ r ← *p̄); ins ← *p̄.
		pc := a.staticPointee(t.Ptr.Type())
		p := a.colorOf(s, t.Ptr)
		a.checkCompatv(s, p, pc, t.Ptr, ErrIago, pos,
			"load: pointer of color %s dereferences %s memory", p, pc)
		if pc.Kind == ir.KindShared {
			// Loading from shared memory yields a Free value
			// (Table 2), and the load is replicated with it.
			a.setInstrColor(s, in, ir.F)
		} else {
			a.assignReg(s, t, pc, pos, "load")
			a.setInstrColor(s, in, pc)
		}

	case *ir.Store:
		// Rule 3: *p̄ ~ p̄ ∧ r̄ ~ *p̄; ins ← *p̄.
		if pt, ok := t.Ptr.Type().(ir.PointerType); ok {
			a.checkStaticColors(s, t.Val.Type(), pt.Elem, pos, "store")
		}
		pc := a.staticPointee(t.Ptr.Type())
		p := a.colorOf(s, t.Ptr)
		v := a.colorOf(s, t.Val)
		a.checkCompatv(s, p, pc, t.Ptr, ErrIntegrity, pos,
			"store: pointer of color %s writes %s memory", p, pc)
		kind := ErrIncompatible
		if pc == ir.U || pc == ir.S {
			kind = ErrConfidentiality
		}
		a.checkCompatv(s, v, pc, t.Val, kind, pos,
			"store: value of color %s cannot be stored in %s memory", v, pc)
		if pc.Kind == ir.KindShared {
			// Visible effect in shared memory, executed in normal
			// mode with a synchronization barrier (§7.3.3).
			a.setInstrColor(s, in, ir.U)
		} else {
			a.setInstrColor(s, in, pc)
		}

	case *ir.BinOp:
		a.visitOp(s, t, pos, t.X, t.Y)
	case *ir.Cmp:
		a.visitOp(s, t, pos, t.X, t.Y)
	case *ir.Cast:
		a.checkStaticCast(s, t, pos)
		a.visitOp(s, t, pos, t.Val)

	case *ir.FieldAddr:
		a.visitOp(s, t, pos, t.X)
	case *ir.IndexAddr:
		a.visitOp(s, t, pos, t.X, t.Index)

	case *ir.Phi:
		for _, e := range t.Edges {
			c := a.colorOf(s, e.Val)
			if bc, ok := s.BlockColor[e.Pred]; ok && !bc.IsFree() {
				// A value merged out of a colored region carries
				// that region's color (Rule 4).
				c = a.meet(s, c, bc, pos, "phi edge from colored block")
			}
			a.assignReg(s, t, c, pos, "phi")
		}
		a.setInstrColor(s, in, a.colorOf(s, t))

	case *ir.Call:
		a.visitCall(s, b, t)

	case *ir.Ret:
		if t.Val != nil {
			a.checkStaticColors(s, t.Val.Type(), s.Fn.RetTyp, pos, "return")
			c := a.colorOf(s, t.Val)
			// A return reached under a colored condition makes the
			// return value carry that color (Rule 4: whether this
			// ret executes at all is sensitive information).
			if bc, ok := s.BlockColor[b]; ok && !bc.IsFree() {
				c = a.meet(s, c, bc, pos, "return in colored block")
			}
			if !c.IsFree() {
				if s.RetColor.IsFree() {
					s.RetColor = c
					a.setChanged()
				} else if s.RetColor != c {
					a.errorv(ErrIncompatible, pos, s.Fn.FName, t.Val,
						"return value color %s conflicts with earlier return color %s", c, s.RetColor)
				}
			}
			a.setInstrColor(s, in, c)
		} else {
			a.setInstrColor(s, in, ir.F)
		}

	case *ir.CondBr:
		// Placement follows the condition; Rule 4 block coloring is
		// handled in blockColors.
		a.setInstrColor(s, in, a.colorOf(s, t.Cond))
	case *ir.Br:
		a.setInstrColor(s, in, ir.F)
	}

	// Rule 4: an instruction inside a colored basic block takes the
	// block's color (x_n ← B̄; ins ← B̄).
	if bc, ok := s.BlockColor[b]; ok && !bc.IsFree() {
		if v, isVal := in.(ir.Value); isVal {
			cur := a.colorOf(s, v)
			if !cur.IsFree() && cur != bc {
				a.errorv(ErrConfidentiality, pos, s.Fn.FName, v,
					"implicit leak: %s register %s assigned inside a basic block controlled by a %s condition", cur, v.Name(), bc)
			} else {
				a.assignReg(s, v, bc, pos, "block color")
			}
		}
		cur := s.InstrColor[in]
		if !cur.IsFree() && !cur.IsNone() && cur != bc {
			var val ir.Value
			if v, isVal := in.(ir.Value); isVal {
				val = v
			}
			a.errorv(ErrConfidentiality, pos, s.Fn.FName, val,
				"implicit leak: %s instruction %q executed under a %s condition", cur, in.String(), bc)
		} else {
			a.setInstrColor(s, in, bc)
		}
	}
	a.noteIndirectOperands(s, in)
}

// visitOp implements Rule 2: r ← x̄ᵢ for every input, ins ← r̄.
func (a *Analysis) visitOp(s *FuncSpec, in ir.Instr, pos ir.Pos, xs ...ir.Value) {
	v := in.(ir.Value)
	for _, x := range xs {
		c := a.colorOf(s, x)
		cur := a.colorOf(s, v)
		if !cur.IsFree() && !c.IsFree() && cur != c {
			a.errorv(ErrIago, pos, s.Fn.FName, x,
				"instruction %q mixes inputs of colors %s and %s", in.String(), cur, c)
			continue
		}
		a.assignReg(s, v, c, pos, "operation input")
	}
	a.setInstrColor(s, in, a.colorOf(s, v))
}

// meet joins two colors, reporting an error when both are concrete and
// differ.
func (a *Analysis) meet(s *FuncSpec, x, y ir.Color, pos ir.Pos, what string) ir.Color {
	switch {
	case x.IsFree() || x.IsNone():
		return y
	case y.IsFree() || y.IsNone():
		return x
	case x == y:
		return x
	default:
		a.errorf(ErrIncompatible, pos, s.Fn.FName, "%s: colors %s and %s are incompatible", what, x, y)
		return x
	}
}
