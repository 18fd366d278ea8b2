package audit

import (
	"fmt"
	"strings"

	"privagic/internal/ir"
	"privagic/internal/partition"
	"privagic/internal/typing"
)

// TraceStep is one hop of a leak trace: a program point and what happened
// to the colored value there.
type TraceStep struct {
	Pos  ir.Pos
	Note string
}

// Trace is the provenance of a colored value: the backward def-use path
// from the sink (step 0) to the source annotation that colored it (the
// last step). Because the IR is SSA — an instruction and its output
// register are equivalent — each hop is one defining instruction.
type Trace struct {
	Color ir.Color
	Steps []TraceStep
}

// String renders the trace, one numbered hop per line, sink first.
func (t *Trace) String() string {
	if t == nil || len(t.Steps) == 0 {
		return ""
	}
	lines := make([]string, len(t.Steps))
	for i, s := range t.Steps {
		lines[i] = fmt.Sprintf("  #%d %s: %s", i+1, s.Pos, s.Note)
	}
	return strings.Join(lines, "\n")
}

// maxTraceDepth caps the backward walk; deep chains end with a truncation
// step rather than recursing without bound through mutual recursion.
const maxTraceDepth = 8

// tracer walks the def-use graph backward chasing one blamed color.
type tracer struct {
	mode  typing.Mode
	color ir.Color // the color being traced to its source
	// oracle returns the color of a register in the body being traced.
	oracle func(ir.Value) ir.Color
	// callTarget resolves a direct local call to the specialized callee,
	// letting the walk descend into its return value (nil to stop at
	// call boundaries, as in chunk bodies where calls target chunks).
	callTarget func(*ir.Call) *typing.FuncSpec
	// fn is the body being traced, used for the Rule 4 fallback scan.
	fn *ir.Function

	steps []TraceStep
	seen  map[ir.Value]bool
	depth int
}

// TraceTypeError reconstructs the leak trace of a typing diagnostic: from
// the offending value recorded by the analysis back to the source
// annotation. Diagnostics without a recorded value (structure errors and
// other module-level findings) get a single-step trace at the error site.
func TraceTypeError(mode typing.Mode, e *typing.TypeError) *Trace {
	if e.Spec == nil || e.Val == nil {
		return &Trace{Steps: []TraceStep{{Pos: e.Pos, Note: "sink: " + e.Msg}}}
	}
	spec := e.Spec
	blamed := blamedColor(spec.ValueColor(e.Val), e.Val)
	t := &tracer{
		mode:   mode,
		color:  blamed,
		oracle: spec.ValueColor,
		callTarget: func(c *ir.Call) *typing.FuncSpec {
			return spec.CallTarget[c]
		},
		fn:   spec.Fn,
		seen: map[ir.Value]bool{},
	}
	t.step(e.Pos, "sink: "+e.Msg)
	t.walk(e.Val)
	return &Trace{Color: blamed, Steps: t.steps}
}

// blamedColor picks the color to chase: the value's own enclave color, or
// the pointee color when the value is a pointer into colored memory.
func blamedColor(c ir.Color, v ir.Value) ir.Color {
	if c.IsEnclave() {
		return c
	}
	if v != nil {
		if pt, ok := v.Type().(ir.PointerType); ok && pt.Color.IsEnclave() {
			return pt.Color
		}
	}
	return c
}

// traceGlobal is the one-hop trace of a misplaced global: its declaration
// is itself the source annotation.
func traceGlobal(g *ir.Global, note string) *Trace {
	return &Trace{Color: g.Color, Steps: []TraceStep{
		{Pos: g.Pos, Note: note},
		{Pos: g.Pos, Note: fmt.Sprintf("global %s declared color(%s) — source annotation", g.Name(), g.Color)},
	}}
}

func (t *tracer) step(pos ir.Pos, format string, args ...any) {
	t.steps = append(t.steps, TraceStep{Pos: pos, Note: fmt.Sprintf(format, args...)})
}

// walk appends the hops explaining why v carries t.color, ending at a
// terminal step (a source annotation, a declassification, or an inference
// fallback). It always appends at least one step.
func (t *tracer) walk(v ir.Value) {
	if v == nil {
		t.step(ir.Pos{}, "value colored %s by inference", t.color)
		return
	}
	if t.seen[v] || t.depth >= maxTraceDepth {
		t.step(valuePos(v), "… trace truncated (cycle or depth limit)")
		return
	}
	t.seen[v] = true
	t.depth++
	defer func() { t.depth-- }()

	switch x := v.(type) {
	case *ir.Global:
		t.walkGlobal(x)
	case *ir.Param:
		t.walkParam(x)
	case *ir.ConstInt, *ir.ConstFloat, *ir.Null:
		t.step(ir.Pos{}, "constant %s (free)", v.Name())
	case *ir.Alloca:
		t.walkAlloc(x.InstrPos(), "local", x.Name(), x.Color)
	case *ir.Malloc:
		t.walkAlloc(x.InstrPos(), "heap allocation", x.Name(), x.Color)
	case *ir.Load:
		pc := t.pointeeColor(x.Ptr)
		t.step(x.InstrPos(), "%s = load from %s memory", x.Name(), pc)
		t.walk(x.Ptr)
	case *ir.FieldAddr:
		t.walkFieldAddr(x)
	case *ir.IndexAddr:
		t.step(x.InstrPos(), "%s = element address into %s", x.Name(), x.X.Name())
		t.walk(x.X)
	case *ir.Cast:
		t.step(x.InstrPos(), "%s = cast of %s (casts cannot change a color)", x.Name(), x.Val.Name())
		t.walk(x.Val)
	case *ir.BinOp:
		t.walkOperands(x, x.InstrPos(), fmt.Sprintf("%s = %s", x.Name(), x.Op), x.X, x.Y)
	case *ir.Cmp:
		t.walkOperands(x, x.InstrPos(), fmt.Sprintf("%s = cmp %s", x.Name(), x.Pred), x.X, x.Y)
	case *ir.Phi:
		t.walkPhi(x)
	case *ir.Call:
		t.walkCall(x)
	default:
		t.step(valuePos(v), "value %s colored %s by inference", v.Name(), t.color)
	}
}

func (t *tracer) walkGlobal(g *ir.Global) {
	switch {
	case g.Color.IsEnclave():
		t.step(g.Pos, "global %s declared color(%s) — source annotation", g.Name(), g.Color)
	case g.Color.IsNone():
		t.step(g.Pos, "global %s is unannotated: unsafe memory (Table 2)", g.Name())
	default:
		t.step(g.Pos, "global %s declared color(%s)", g.Name(), g.Color)
	}
}

func (t *tracer) walkParam(p *ir.Param) {
	if p.Color.IsEnclave() {
		t.step(p.Pos, "parameter %s declared color(%s) — source annotation", p.Name(), p.Color)
		return
	}
	c := t.oracle(p)
	switch {
	case c.IsEnclave():
		t.step(p.Pos, "parameter %s specialized as %s by its call sites (§6.2)", p.Name(), c)
	case c.IsUntrusted():
		t.step(p.Pos, "parameter %s is untrusted input (entry-point argument, §6.2)", p.Name())
	default:
		t.step(p.Pos, "parameter %s (free)", p.Name())
	}
}

func (t *tracer) walkAlloc(pos ir.Pos, what, name string, c ir.Color) {
	switch {
	case c.IsEnclave():
		t.step(pos, "%s %s allocated with color(%s) — source annotation", what, name, c)
	case c.IsNone():
		t.step(pos, "%s %s is unannotated: unsafe memory (Table 2)", what, name)
	default:
		t.step(pos, "%s %s allocated with color(%s)", what, name, c)
	}
}

func (t *tracer) walkFieldAddr(f *ir.FieldAddr) {
	st := f.Struct()
	field := st.Fields[f.Index]
	if field.Color.IsEnclave() {
		t.step(f.InstrPos(), "field %s.%s declared color(%s) — source annotation", st.Name, field.Name, field.Color)
		return
	}
	t.step(f.InstrPos(), "%s = address of field %s.%s", f.Name(), st.Name, field.Name)
	t.walk(f.X)
}

// walkOperands descends into the operand that carries the blamed color;
// when neither does, the color came from Rule 4 control dependence.
func (t *tracer) walkOperands(self ir.Value, pos ir.Pos, desc string, ops ...ir.Value) {
	for _, op := range ops {
		if t.carries(op) {
			t.step(pos, "%s combines %s-colored operand %s", desc, t.color, op.Name())
			t.walk(op)
			return
		}
	}
	t.rule4Fallback(self, pos, desc)
}

func (t *tracer) walkPhi(p *ir.Phi) {
	for _, e := range p.Edges {
		if t.carries(e.Val) {
			t.step(p.InstrPos(), "%s = phi merges %s-colored %s from block %%%s", p.Name(), t.color, e.Val.Name(), e.Pred.BName)
			t.walk(e.Val)
			return
		}
	}
	t.rule4Fallback(p, p.InstrPos(), p.Name()+" = phi")
}

func (t *tracer) walkCall(c *ir.Call) {
	pos := c.InstrPos()
	callee, direct := c.Callee.(*ir.Function)
	if !direct {
		t.step(pos, "%s = result of indirect call (untrusted, §6.3)", c.Name())
		return
	}
	switch {
	case callee.FName == partition.IntrWait || callee.FName == partition.IntrJoin:
		t.step(pos, "%s = payload of a cont message from the untrusted queue (%s)", c.Name(), callee.FName)
	case callee.Ignore:
		t.step(pos, "%s = declassified by ignore function @%s (§6.4)", c.Name(), callee.FName)
		// The declassification is a sanctioned boundary, but the trace
		// continues to the annotation that colored the revealed value:
		// the reader should see which secret was declassified.
		for _, a := range c.Args {
			if t.carries(a) {
				t.walk(a)
				return
			}
		}
		// The argument colors are erased in this body (the ignore call
		// sits in a chunk that never saw the secret); fall back to any
		// enclave-annotated argument root.
		for _, a := range c.Args {
			if g, ok := a.(*ir.Global); ok && g.Color.IsEnclave() {
				t.walk(a)
				return
			}
		}
	case callee.Within:
		t.step(pos, "%s = computed by within function @%s executing in %s", c.Name(), callee.FName, t.color)
	case callee.External:
		t.step(pos, "%s = result of external call @%s (untrusted, §6.3)", c.Name(), callee.FName)
	default:
		t.walkLocalCall(c, callee, pos)
	}
}

// walkLocalCall descends into the specialized callee's return value.
func (t *tracer) walkLocalCall(c *ir.Call, callee *ir.Function, pos ir.Pos) {
	var target *typing.FuncSpec
	if t.callTarget != nil {
		target = t.callTarget(c)
	}
	if target == nil {
		t.step(pos, "%s = returned by call to @%s", c.Name(), callee.FName)
		return
	}
	t.step(pos, "%s = returned by @%s (specialization %s, return color %s)", c.Name(), callee.FName, target.Key, target.RetColor)
	// Find a returned value carrying the blamed color inside the callee.
	var retVal ir.Value
	target.Fn.Instrs(func(_ *ir.Block, in ir.Instr) {
		if r, ok := in.(*ir.Ret); ok && r.Val != nil && retVal == nil {
			if target.ValueColor(r.Val) == t.color || blamedColor(target.ValueColor(r.Val), r.Val) == t.color {
				retVal = r.Val
			}
		}
	})
	if retVal == nil {
		return
	}
	sub := &tracer{
		mode:   t.mode,
		color:  t.color,
		oracle: target.ValueColor,
		callTarget: func(cc *ir.Call) *typing.FuncSpec {
			return target.CallTarget[cc]
		},
		fn:    target.Fn,
		seen:  map[ir.Value]bool{},
		depth: t.depth,
	}
	sub.walk(retVal)
	t.steps = append(t.steps, sub.steps...)
}

// rule4Fallback explains a color that arrived through control dependence
// (Rule 4): no operand carries it, so a CondBr on a colored condition
// colored the region. The scan finds the branch whose condition carries
// the blamed color and continues the trace through the condition.
func (t *tracer) rule4Fallback(self ir.Value, pos ir.Pos, desc string) {
	if t.fn != nil {
		var cond ir.Value
		var bpos ir.Pos
		t.fn.Instrs(func(_ *ir.Block, in ir.Instr) {
			if cond != nil {
				return
			}
			if br, ok := in.(*ir.CondBr); ok && t.carries(br.Cond) {
				cond = br.Cond
				bpos = br.InstrPos()
			}
		})
		if cond != nil {
			t.step(pos, "%s colored %s by Rule 4: it executes in a region controlled by a %s condition", desc, t.color, t.color)
			t.step(bpos, "branch condition %s carries %s (implicit indirect leak)", cond.Name(), t.color)
			t.walk(cond)
			return
		}
	}
	t.step(pos, "%s colored %s by inference", desc, t.color)
}

// carries reports whether the value carries the blamed color, directly or
// through its pointee type (fourth confidentiality rule).
func (t *tracer) carries(v ir.Value) bool {
	if v == nil {
		return false
	}
	if t.oracle(v) == t.color {
		return true
	}
	if pt, ok := v.Type().(ir.PointerType); ok && pt.Color == t.color {
		return true
	}
	return false
}

// pointeeColor resolves the memory color behind a pointer per Table 2.
func (t *tracer) pointeeColor(ptr ir.Value) ir.Color {
	pt, ok := ptr.Type().(ir.PointerType)
	if !ok {
		return ir.F
	}
	if pt.Color.IsNone() {
		if t.mode == typing.Hardened {
			return ir.U
		}
		return ir.S
	}
	return pt.Color
}

func valuePos(v ir.Value) ir.Pos {
	switch x := v.(type) {
	case ir.Instr:
		return x.InstrPos()
	case *ir.Global:
		return x.Pos
	case *ir.Param:
		return x.Pos
	}
	return ir.Pos{}
}
