package audit

import (
	"fmt"
	"sort"

	"privagic/internal/ir"
	"privagic/internal/partition"
	"privagic/internal/typing"
)

// validator re-proves the boundary invariants over the partitioner's
// output. It trusts nothing about how the chunks were built: every chunk
// body is re-classified from scratch (its own fixpoint over registers) and
// every intrinsic call site is checked against the cross-chunk plan.
type validator struct {
	prog   *partition.Program
	errors []*AuditError
	stats  Stats

	// chunkOf resolves a function back to the chunk it implements, so
	// direct chunk-to-chunk calls can be typed by the callee's spec.
	chunkOf map[*ir.Function]*partition.Chunk
	maxTag  int
	// whitelist is the per-color spawn whitelist (§8): the same table the
	// runtime enforces dynamically, re-checked here against every static
	// spawn site.
	whitelist map[int][]int
}

func newValidator(prog *partition.Program) *validator {
	v := &validator{
		prog:    prog,
		chunkOf: map[*ir.Function]*partition.Chunk{},
	}
	for _, ch := range prog.ChunkByID {
		v.chunkOf[ch.Fn] = ch
	}
	// Force lazy tag allocation on every function so MaxTag is a real
	// upper bound before any range check runs.
	for _, pf := range sortedParts(prog) {
		prog.Transports(pf)
	}
	v.maxTag = prog.MaxTag()
	v.whitelist = prog.SpawnWhitelist()
	return v
}

func sortedParts(prog *partition.Program) []*partition.PartFunc {
	out := make([]*partition.PartFunc, 0, len(prog.Funcs))
	for _, pf := range prog.Funcs {
		out = append(out, pf)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Spec.Key < out[j].Spec.Key })
	return out
}

func (v *validator) errorf(kind ErrKind, pos ir.Pos, fn, chunk string, trace *Trace, format string, args ...any) {
	if trace == nil {
		trace = &Trace{Steps: []TraceStep{{Pos: pos, Note: "sink: " + fmt.Sprintf(format, args...)}}}
	}
	v.errors = append(v.errors, &AuditError{
		Kind:  kind,
		Pos:   pos,
		Fn:    fn,
		Chunk: chunk,
		Msg:   fmt.Sprintf(format, args...),
		Trace: trace,
	})
}

// validate runs every check: global placement, split-struct metadata,
// per-chunk instruction invariants, and the cross-chunk message plan.
func (v *validator) validate() {
	v.checkGlobals()
	v.checkSplits()
	for _, pf := range sortedParts(v.prog) {
		v.checkInterface(pf)
		for _, c := range chunkColors(pf) {
			ch := pf.Chunks[c]
			if ch == nil || len(ch.Fn.Blocks) == 0 {
				continue
			}
			v.stats.Chunks++
			v.checkChunk(ch)
		}
		v.checkMessagePlan(pf)
		v.checkSunk(pf)
	}
}

func chunkColors(pf *partition.PartFunc) []ir.Color {
	out := make([]ir.Color, 0, len(pf.Chunks))
	for c := range pf.Chunks {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
	return out
}

// checkGlobals re-proves the §7.1 memory map: every global sits in exactly
// one region, and an enclave-colored global never lands in the shared
// unsafe block — that placement alone is a leak of the whole variable.
func (v *validator) checkGlobals() {
	placed := map[*ir.Global]int{}
	for _, g := range v.prog.SharedGlobals {
		placed[g]++
		if g.Color.IsEnclave() {
			v.errorf(ErrConfidentiality, g.Pos, "<module>", "", traceGlobal(g,
				fmt.Sprintf("sink: global %s placed in the shared unsafe block", g.Name())),
				"global %s carries enclave color %s but is placed in shared unsafe memory (§7.1)",
				g.Name(), g.Color)
		}
	}
	for _, c := range enclaveKeys(v.prog.EnclaveGlobals) {
		for _, g := range v.prog.EnclaveGlobals[c] {
			placed[g]++
			if g.Color != c {
				v.errorf(ErrStructure, g.Pos, "<module>", "", traceGlobal(g,
					fmt.Sprintf("sink: global %s placed inside enclave %s", g.Name(), c)),
					"global %s declared color(%s) is placed inside enclave %s (§7.1)",
					g.Name(), g.Color, c)
			}
		}
	}
	for _, g := range v.prog.Mod.Globals {
		switch placed[g] {
		case 0:
			v.errorf(ErrStructure, g.Pos, "<module>", "", nil,
				"global %s is assigned to no memory region (§7.1)", g.Name())
		case 1:
		default:
			v.errorf(ErrStructure, g.Pos, "<module>", "", nil,
				"global %s is assigned to %d memory regions (§7.1)", g.Name(), placed[g])
		}
	}
}

func enclaveKeys(m map[ir.Color][]*ir.Global) []ir.Color {
	out := make([]ir.Color, 0, len(m))
	for c := range m {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
	return out
}

// checkSplits re-proves the §7.2 split-struct metadata: splitting is a
// relaxed-mode-only rewriting, and the recorded field->enclave map must
// mirror the declared field colors exactly — a mis-colored slot would make
// the runtime allocate a secret field in the wrong enclave.
func (v *validator) checkSplits() {
	for _, name := range splitKeys(v.prog.Splits) {
		split := v.prog.Splits[name]
		st := split.Struct
		if v.prog.Mode != typing.Relaxed {
			v.errorf(ErrStructure, ir.Pos{}, "<module>", "", nil,
				"struct %s is split across enclaves in hardened mode (§7.2 requires relaxed)", st.Name)
		}
		for i, f := range st.Fields {
			want := ir.Color{}
			if f.Color.IsEnclave() {
				want = f.Color
			}
			got, have := split.FieldColors[i]
			switch {
			case want.IsEnclave() && !have:
				v.errorf(ErrStructure, ir.Pos{}, "<module>", "", fieldTrace(st, i,
					fmt.Sprintf("sink: split of struct %s has no slot for colored field %s", st.Name, f.Name)),
					"split struct %s: field %s declared color(%s) has no indirection slot (§7.2)",
					st.Name, f.Name, f.Color)
			case want.IsEnclave() && got != want:
				v.errorf(ErrConfidentiality, ir.Pos{}, "<module>", "", fieldTrace(st, i,
					fmt.Sprintf("sink: split slot of %s.%s allocates in enclave %s", st.Name, f.Name, got)),
					"split struct %s: field %s declared color(%s) but its out-of-line allocation is placed in %s (§7.2)",
					st.Name, f.Name, f.Color, got)
			case !want.IsEnclave() && have:
				v.errorf(ErrStructure, ir.Pos{}, "<module>", "", nil,
					"split struct %s: uncolored field %s has an enclave slot (%s) it must not have (§7.2)",
					st.Name, f.Name, got)
			}
		}
	}
}

func splitKeys(m map[string]*partition.SplitStruct) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func fieldTrace(st *ir.StructType, i int, sink string) *Trace {
	f := st.Fields[i]
	return &Trace{Color: f.Color, Steps: []TraceStep{
		{Note: sink},
		{Note: fmt.Sprintf("field %s.%s declared color(%s) — source annotation", st.Name, f.Name, f.Color)},
	}}
}

// checkInterface re-proves the §7.3.4 entry protocol: the interface
// version must spawn exactly the enclave chunks of the function's color
// set and run a U chunk.
func (v *validator) checkInterface(pf *partition.PartFunc) {
	iface := pf.Interface
	if iface == nil {
		return
	}
	key := pf.Spec.Key
	want := map[ir.Color]bool{}
	for _, c := range pf.ColorSet {
		if !c.IsUntrusted() {
			want[c] = true
		}
	}
	got := map[ir.Color]bool{}
	for _, c := range iface.Spawns {
		if c.IsUntrusted() {
			v.errorf(ErrPlan, ir.Pos{}, key, "", nil,
				"interface %s spawns the U chunk; the U chunk runs in normal mode, it is never spawned (§7.3.4)", iface.Name)
			continue
		}
		if got[c] {
			v.errorf(ErrPlan, ir.Pos{}, key, "", nil,
				"interface %s spawns chunk %s twice (§7.3.4)", iface.Name, c)
		}
		got[c] = true
		if !want[c] {
			v.errorf(ErrPlan, ir.Pos{}, key, "", nil,
				"interface %s spawns %s, which is not in the function's color set (§7.3.4)", iface.Name, c)
		}
	}
	for c := range want {
		if !got[c] {
			v.errorf(ErrPlan, ir.Pos{}, key, "", nil,
				"interface %s never spawns enclave chunk %s; its code would never run (§7.3.4)", iface.Name, c)
		}
	}
	if pf.Chunks[ir.U] == nil {
		v.errorf(ErrPlan, ir.Pos{}, key, "", nil,
			"interface %s has no U chunk to run in normal mode (§7.3.4)", iface.Name)
	}
}

// chunkState is the per-chunk re-classification: an independent fixpoint
// assigning every register an S/U/F/enclave color, computed without
// consulting the partitioner's own metadata.
type chunkState struct {
	v      *validator
	ch     *partition.Chunk
	colors map[ir.Value]ir.Color
}

// checkChunk re-proves the five confidentiality rules, the integrity rule,
// and the Iago rule over one chunk body.
func (v *validator) checkChunk(ch *partition.Chunk) {
	st := &chunkState{v: v, ch: ch, colors: map[ir.Value]ir.Color{}}
	st.classify()
	st.check()
}

// colorOf returns the re-derived color of a value inside the chunk.
func (st *chunkState) colorOf(x ir.Value) ir.Color {
	if c, ok := st.colors[x]; ok {
		return c
	}
	return ir.F
}

// resolveLoc resolves a location color per Table 2 for the program's mode.
func (st *chunkState) resolveLoc(c ir.Color) ir.Color {
	if c.IsNone() {
		if st.v.prog.Mode == typing.Hardened {
			return ir.U
		}
		return ir.S
	}
	return c
}

// pointeeOf resolves the memory color behind a pointer-typed value.
func (st *chunkState) pointeeOf(ptr ir.Value) (ir.Color, bool) {
	pt, ok := ptr.Type().(ir.PointerType)
	if !ok {
		return ir.F, false
	}
	return st.resolveLoc(pt.Color), true
}

// classify runs the register-coloring fixpoint (phis need iteration).
func (st *chunkState) classify() {
	spec := st.ch.Part.Spec
	for i, p := range st.ch.Fn.Params {
		if p.Color.IsEnclave() {
			st.colors[p] = p.Color
		} else if i < len(spec.ArgColors) {
			st.colors[p] = spec.ArgColors[i]
		}
	}
	for changed := true; changed; {
		changed = false
		st.ch.Fn.Instrs(func(_ *ir.Block, in ir.Instr) {
			val, isVal := in.(ir.Value)
			if !isVal {
				return
			}
			if _, isVoid := val.Type().(ir.VoidType); isVoid {
				return
			}
			c := st.resultColor(in, val)
			if st.colors[val] != c {
				st.colors[val] = c
				changed = true
			}
		})
	}
}

// resultColor derives the color of one instruction's result from its
// operands — the validator's own copy of the Table 3 propagation rules,
// restricted to what can appear inside a chunk body.
func (st *chunkState) resultColor(in ir.Instr, val ir.Value) ir.Color {
	switch x := in.(type) {
	case *ir.Load:
		pc, ok := st.pointeeOf(x.Ptr)
		if !ok {
			return ir.F
		}
		switch {
		case pc.IsEnclave():
			return pc
		case pc.IsShared():
			return ir.F // relaxed: loading from S produces F
		case pc.IsUntrusted():
			return ir.U
		}
		return ir.F
	case *ir.Alloca, *ir.Malloc, *ir.FieldAddr, *ir.IndexAddr:
		// Addresses are free; the pointee color travels in the type
		// (fourth confidentiality rule) and is checked at load/store.
		return ir.F
	case *ir.Call:
		return st.callResultColor(x)
	case *ir.BinOp:
		return st.join(x.X, x.Y)
	case *ir.Cmp:
		return st.join(x.X, x.Y)
	case *ir.Cast:
		return st.colorOf(x.Val)
	case *ir.Phi:
		var c ir.Color = ir.F
		for _, e := range x.Edges {
			c = joinColors(c, st.colorOf(e.Val))
		}
		return c
	}
	_ = val
	return ir.F
}

func (st *chunkState) callResultColor(c *ir.Call) ir.Color {
	callee, direct := c.Callee.(*ir.Function)
	hardened := st.v.prog.Mode == typing.Hardened
	untrusted := func() ir.Color {
		if hardened {
			return ir.U
		}
		return ir.F
	}
	if !direct {
		return untrusted()
	}
	switch callee.FName {
	case partition.IntrWait, partition.IntrJoin, partition.IntrWaitV, partition.IntrElem:
		// Queue payloads are runtime-authenticated (integrity stamps);
		// statically they are sanctioned crossings recorded in the
		// boundary report, and their content is treated as Free.
		return ir.F
	case partition.IntrSpawn, partition.IntrSend, partition.IntrSendV:
		return ir.F // void
	}
	if tch := st.v.chunkOf[callee]; tch != nil {
		rc := tch.Part.Spec.RetColor
		switch {
		case rc.IsEnclave() && rc == st.ch.Color:
			return rc
		case rc.IsUntrusted():
			return untrusted()
		default:
			// Foreign-colored results come back as the dummy zero of
			// the callee chunk; shared loads degrade to F.
			return ir.F
		}
	}
	if callee.Ignore {
		return ir.F // declassified (§6.4)
	}
	if callee.Within {
		// Executes in the single enclave color among its arguments.
		if c := st.withinColor(c); c.IsEnclave() {
			return c
		}
		return untrusted()
	}
	if callee.External {
		return untrusted()
	}
	return ir.F
}

// withinColor finds the enclave a within call executes in: the single
// named color among argument values and argument pointees.
func (st *chunkState) withinColor(c *ir.Call) ir.Color {
	var named ir.Color
	for _, arg := range c.Args {
		ac := st.colorOf(arg)
		if ac.IsEnclave() {
			named = ac
		}
		if pt, ok := arg.Type().(ir.PointerType); ok {
			if pc := st.resolveLoc(pt.Color); pc.IsEnclave() {
				named = pc
			}
		}
	}
	return named
}

func (st *chunkState) join(x, y ir.Value) ir.Color {
	return joinColors(st.colorOf(x), st.colorOf(y))
}

// joinColors merges operand colors: F is the identity, named colors win
// over unsafe ones (the mix checks flag illegal meetings separately).
func joinColors(a, b ir.Color) ir.Color {
	switch {
	case a == b:
		return a
	case a.IsFree() || a.IsNone():
		return b
	case b.IsFree() || b.IsNone():
		return a
	case a.IsEnclave():
		return a
	case b.IsEnclave():
		return b
	case a.IsUntrusted():
		return a
	}
	return b
}

// check walks the chunk body and re-proves every boundary invariant.
func (st *chunkState) check() {
	v := st.v
	c := st.ch.Color
	key := st.ch.Part.Spec.Key
	name := st.ch.Name()
	st.ch.Fn.Instrs(func(_ *ir.Block, in ir.Instr) {
		v.stats.Instrs++
		pos := in.InstrPos()
		switch x := in.(type) {
		case *ir.Load:
			pc, ok := st.pointeeOf(x.Ptr)
			if ok && pc.IsEnclave() && pc != c {
				v.errorf(ErrConfidentiality, pos, key, name, st.trace(x, pc,
					fmt.Sprintf("sink: chunk %s loads %s memory", name, pc)),
					"chunk of color %s loads %s memory through %s (confidentiality rule 1)", c, pc, x.Ptr.Name())
			}
		case *ir.Store:
			st.checkStore(x, pos, key, name)
		case *ir.Call:
			st.checkCall(x, pos, key, name)
		case *ir.Ret:
			if x.Val != nil {
				if rc := st.colorOf(x.Val); rc.IsEnclave() && rc != c {
					v.errorf(ErrConfidentiality, pos, key, name, st.trace(x.Val, rc,
						fmt.Sprintf("sink: chunk %s returns a %s-colored value", name, rc)),
						"chunk of color %s returns %s-colored value %s to its caller", c, rc, x.Val.Name())
				}
			}
		}
		st.checkMix(in, pos, key, name)
	})
}

// checkStore re-proves the integrity rule and the store side of the
// confidentiality rules.
func (st *chunkState) checkStore(s *ir.Store, pos ir.Pos, key, name string) {
	v := st.v
	c := st.ch.Color
	pc, ok := st.pointeeOf(s.Ptr)
	if !ok {
		return
	}
	if pc.IsEnclave() && pc != c {
		v.errorf(ErrIntegrity, pos, key, name, st.trace(s.Ptr, pc,
			fmt.Sprintf("sink: chunk %s writes %s memory", name, pc)),
			"chunk of color %s writes %s memory through %s (integrity rule)", c, pc, s.Ptr.Name())
		return
	}
	if vc := st.colorOf(s.Val); vc.IsEnclave() && pc != vc {
		v.errorf(ErrConfidentiality, pos, key, name, st.trace(s.Val, vc,
			fmt.Sprintf("sink: %s-colored value stored into %s memory", vc, pc)),
			"store leaks %s-colored value %s into %s memory (confidentiality rule 2)", vc, s.Val.Name(), pc)
	}
}

// checkCall re-proves the message-construction invariants at the runtime
// intrinsic sites and the declassification discipline at external calls.
func (st *chunkState) checkCall(call *ir.Call, pos ir.Pos, key, name string) {
	v := st.v
	c := st.ch.Color
	callee, direct := call.Callee.(*ir.Function)
	if !direct {
		st.checkOutboundArgs(call, "<indirect>", pos, key, name)
		return
	}
	switch callee.FName {
	case partition.IntrSend:
		st.checkSend(call, pos, key, name)
	case partition.IntrSpawn:
		st.checkSpawn(call, pos, key, name)
	case partition.IntrSendV:
		st.checkSendV(call, pos, key, name)
	case partition.IntrWait, partition.IntrWaitV:
		if tag, ok := constArg(call, 0); !ok {
			v.errorf(ErrPlan, pos, key, name, nil, "%s with a non-constant tag", callee.FName)
		} else if tag < 1 || int(tag) > v.maxTag {
			v.errorf(ErrPlan, pos, key, name, nil,
				"%s tag %d outside the allocated range [1, %d]", callee.FName, tag, v.maxTag)
		}
	case partition.IntrElem:
		if tag, ok := constArg(call, 0); !ok {
			v.errorf(ErrPlan, pos, key, name, nil, "__pv_elem with a non-constant tag")
		} else if tag < 1 || int(tag) > v.maxTag {
			v.errorf(ErrPlan, pos, key, name, nil,
				"__pv_elem tag %d outside the allocated range [1, %d]", tag, v.maxTag)
		}
		if idx, ok := constArg(call, 1); !ok || idx < 0 {
			v.errorf(ErrPlan, pos, key, name, nil, "__pv_elem index must be a non-negative constant")
		}
	case partition.IntrJoin:
		if n, ok := constArg(call, 0); !ok || n < 1 {
			v.errorf(ErrPlan, pos, key, name, nil, "__pv_join must wait for a positive constant completion count")
		}
	default:
		if tch := v.chunkOf[callee]; tch != nil {
			if tch.Color != c && !tch.Part.Replicated {
				if reason := v.fusedCallBlocker(tch); reason != "" {
					v.errorf(ErrPlan, pos, key, name, nil,
						"chunk of color %s direct-calls chunk %s of color %s; direct calls stay within a color unless the callee is a fused message-free unsafe chunk (%s) (§7.3.2)",
						c, tch.Name(), tch.Color, reason)
				}
			}
			return
		}
		if callee.Within && !callee.Ignore {
			if wc := st.withinColor(call); wc.IsEnclave() && wc != c {
				v.errorf(ErrConfidentiality, pos, key, name, nil,
					"within call @%s executes in enclave %s but was placed in the %s chunk (§6.3)",
					callee.FName, wc, c)
			}
			return
		}
		if callee.External && !callee.Ignore {
			st.checkOutboundArgs(call, callee.FName, pos, key, name)
		}
	}
}

// checkSend re-proves one cont-message construction: constant destination
// and tag inside their allocated ranges, and a payload free of enclave
// colors (cont messages travel through untrusted queues).
func (st *chunkState) checkSend(call *ir.Call, pos ir.Pos, key, name string) {
	v := st.v
	if v.prog.Mode == typing.Hardened {
		v.errorf(ErrPlan, pos, key, name, nil,
			"hardened chunk emits a cont message; cont messages cannot carry Free values in hardened mode (§7.3.2)")
	}
	dst, ok := constArg(call, 0)
	if !ok {
		v.errorf(ErrPlan, pos, key, name, nil, "__pv_send with a non-constant destination")
	} else if dst < 0 || int(dst) > len(v.prog.Colors) {
		v.errorf(ErrPlan, pos, key, name, nil,
			"__pv_send destination %d outside the color range [0, %d]", dst, len(v.prog.Colors))
	}
	if tag, tok := constArg(call, 1); !tok {
		v.errorf(ErrPlan, pos, key, name, nil, "__pv_send with a non-constant tag")
	} else if tag < 1 || int(tag) > v.maxTag {
		v.errorf(ErrPlan, pos, key, name, nil,
			"__pv_send tag %d outside the allocated range [1, %d]", tag, v.maxTag)
	}
	if len(call.Args) > 2 {
		if pc := st.colorOf(call.Args[2]); pc.IsEnclave() {
			v.errorf(ErrConfidentiality, pos, key, name, st.trace(call.Args[2], pc,
				fmt.Sprintf("sink: %s-colored payload placed in a cont message", pc)),
				"cont message payload %s carries enclave color %s; messages travel through untrusted queues (§7.3.2)",
				call.Args[2].Name(), pc)
		}
	}
}

// checkSendV re-proves one vectored cont-message construction: the same
// rules as __pv_send, applied to every element of the vector payload.
func (st *chunkState) checkSendV(call *ir.Call, pos ir.Pos, key, name string) {
	v := st.v
	if v.prog.Mode == typing.Hardened {
		v.errorf(ErrPlan, pos, key, name, nil,
			"hardened chunk emits a vectored cont message; cont messages cannot carry Free values in hardened mode (§7.3.2)")
	}
	dst, ok := constArg(call, 0)
	if !ok {
		v.errorf(ErrPlan, pos, key, name, nil, "__pv_sendv with a non-constant destination")
	} else if dst < 0 || int(dst) > len(v.prog.Colors) {
		v.errorf(ErrPlan, pos, key, name, nil,
			"__pv_sendv destination %d outside the color range [0, %d]", dst, len(v.prog.Colors))
	}
	if tag, tok := constArg(call, 1); !tok {
		v.errorf(ErrPlan, pos, key, name, nil, "__pv_sendv with a non-constant tag")
	} else if tag < 1 || int(tag) > v.maxTag {
		v.errorf(ErrPlan, pos, key, name, nil,
			"__pv_sendv tag %d outside the allocated range [1, %d]", tag, v.maxTag)
	}
	if len(call.Args) < 3 {
		v.errorf(ErrPlan, pos, key, name, nil, "__pv_sendv carries an empty vector; a plain __pv_send would do")
	}
	for i, arg := range call.Args[2:] {
		if pc := st.colorOf(arg); pc.IsEnclave() {
			v.errorf(ErrConfidentiality, pos, key, name, st.trace(arg, pc,
				fmt.Sprintf("sink: %s-colored payload placed in a vectored cont message", pc)),
				"vectored cont message element %d (%s) carries enclave color %s; messages travel through untrusted queues (§7.3.2)",
				i, arg.Name(), pc)
		}
	}
}

// fusedCallBlocker independently re-proves the fused-call exception to
// the stay-within-a-color rule: a cross-color direct call is legal only
// in relaxed mode, only onto an unsafe chunk, and only when that chunk's
// body provably exchanges no messages of its own — no intrinsics, no
// calls into other chunks, no sanctioned boundary copies, no thread
// creates or joins, no split allocations. The optimizer derives the same fact before fusing; this
// is the translation validator's own derivation, not a shared one.
func (v *validator) fusedCallBlocker(tch *partition.Chunk) string {
	if v.prog.Mode == typing.Hardened {
		return "fused calls are illegal in hardened mode"
	}
	if !tch.Color.IsUntrusted() {
		return fmt.Sprintf("callee runs in enclave %s", tch.Color)
	}
	blocked := ""
	tch.Fn.Instrs(func(_ *ir.Block, in ir.Instr) {
		if blocked != "" {
			return
		}
		switch x := in.(type) {
		case *ir.Call:
			fn, direct := x.Callee.(*ir.Function)
			if !direct {
				blocked = "callee body contains an indirect call"
				return
			}
			switch fn.FName {
			case partition.IntrSpawn, partition.IntrSend, partition.IntrSendV,
				partition.IntrWait, partition.IntrWaitV, partition.IntrJoin, partition.IntrElem:
				blocked = fmt.Sprintf("callee body exchanges messages (%s)", fn.FName)
			case "classify", "declassify", "classify_key":
				blocked = fmt.Sprintf("callee body contains a sanctioned boundary copy (@%s)", fn.FName)
			case "thread_create", "thread_join":
				blocked = fmt.Sprintf("callee body calls @%s (a thread's children belong to the worker that created them)", fn.FName)
			default:
				if v.chunkOf[fn] != nil {
					blocked = fmt.Sprintf("callee body calls another chunk (%s)", fn.FName)
				}
			}
		case *ir.Malloc:
			if s, ok := x.Elem.(*ir.StructType); ok && v.prog.Splits[s.Name] != nil {
				blocked = fmt.Sprintf("callee body allocates split struct %%%s", s.Name)
			}
		}
	})
	return blocked
}

// checkSpawn re-proves one spawn-message construction: a valid target
// chunk, a boolean reply flag, and trampoline arguments free of enclave
// colors.
func (st *chunkState) checkSpawn(call *ir.Call, pos ir.Pos, key, name string) {
	v := st.v
	id, ok := constArg(call, 0)
	if !ok {
		v.errorf(ErrPlan, pos, key, name, nil, "__pv_spawn with a non-constant chunk id")
	} else if id < 0 || int(id) >= len(v.prog.ChunkByID) {
		v.errorf(ErrPlan, pos, key, name, nil,
			"__pv_spawn targets chunk id %d outside the chunk table [0, %d)", id, len(v.prog.ChunkByID))
	} else if tch := v.prog.ChunkByID[id]; tch.Color == st.ch.Color && !tch.Part.Replicated {
		v.errorf(ErrPlan, pos, key, name, nil,
			"chunk of color %s spawns chunk %s of its own color; same-color chunks are reached by direct call (§7.3.2)",
			st.ch.Color, tch.Name())
	} else if !whitelisted(v.whitelist[v.prog.ColorIndex(tch.Color)], tch.ID) {
		v.errorf(ErrPlan, pos, key, name, nil,
			"spawn of chunk %s is not in the §8 spawn whitelist for color %s; the runtime worker would refuse it",
			tch.Name(), tch.Color)
	}
	if reply, rok := constArg(call, 1); !rok || (reply != 0 && reply != 1) {
		v.errorf(ErrPlan, pos, key, name, nil, "__pv_spawn reply flag must be the constant 0 or 1")
	}
	for i, arg := range call.Args[2:] {
		if ac := st.colorOf(arg); ac.IsEnclave() {
			v.errorf(ErrConfidentiality, pos, key, name, st.trace(arg, ac,
				fmt.Sprintf("sink: %s-colored trampoline argument placed in a spawn message", ac)),
				"spawn message trampoline argument %d (%s) carries enclave color %s (§7.3.2)",
				i, arg.Name(), ac)
		}
	}
}

// checkOutboundArgs re-proves the external-call rule: no enclave-colored
// value may be handed to the untrusted part (§6.3).
func (st *chunkState) checkOutboundArgs(call *ir.Call, callee string, pos ir.Pos, key, name string) {
	for i, arg := range call.Args {
		if ac := st.colorOf(arg); ac.IsEnclave() {
			st.v.errorf(ErrConfidentiality, pos, key, name, st.trace(arg, ac,
				fmt.Sprintf("sink: %s-colored value passed to untrusted %s", ac, callee)),
				"argument %d of external call %s carries enclave color %s (§6.3)", i, callee, ac)
		}
	}
}

// checkMix re-proves the Iago rule and the two-concrete-colors rule over
// one instruction's operands: an enclave chunk must not combine its data
// with untrusted values (hardened), and no instruction may mix two
// enclave colors.
func (st *chunkState) checkMix(in ir.Instr, pos ir.Pos, key, name string) {
	switch in.(type) {
	case *ir.BinOp, *ir.Cmp, *ir.Phi, *ir.CondBr:
	default:
		return
	}
	v := st.v
	var named []ir.Color
	var namedVal, uVal ir.Value
	for _, op := range in.Ops() {
		oc := st.colorOf(*op)
		if oc.IsEnclave() {
			dup := false
			for _, x := range named {
				if x == oc {
					dup = true
				}
			}
			if !dup {
				named = append(named, oc)
				namedVal = *op
			}
		}
		if oc.IsUntrusted() && uVal == nil {
			uVal = *op
		}
	}
	if len(named) > 1 {
		v.errorf(ErrConfidentiality, pos, key, name, st.trace(namedVal, named[1],
			fmt.Sprintf("sink: instruction mixes enclave colors %s and %s", named[0], named[1])),
			"instruction mixes enclave colors %s and %s", named[0], named[1])
	}
	if len(named) == 1 && uVal != nil && v.prog.Mode == typing.Hardened {
		v.errorf(ErrIago, pos, key, name, st.trace(uVal, ir.U,
			fmt.Sprintf("sink: untrusted value feeds a %s computation", named[0])),
			"%s computation consumes untrusted value %s (Iago rule, hardened mode)", named[0], uVal.Name())
	}
}

// trace builds the provenance of a chunk value using the chunk's own
// re-derived colors as the oracle.
func (st *chunkState) trace(val ir.Value, blamed ir.Color, sink string) *Trace {
	t := &tracer{
		mode:   st.v.prog.Mode,
		color:  blamed,
		oracle: st.colorOf,
		fn:     st.ch.Fn,
		seen:   map[ir.Value]bool{},
	}
	t.step(ir.Pos{}, "%s", sink)
	t.walk(val)
	return &Trace{Color: blamed, Steps: t.steps}
}

func whitelisted(ids []int, id int) bool {
	for _, x := range ids {
		if x == id {
			return true
		}
	}
	return false
}

// constArg extracts a constant integer argument of an intrinsic call.
func constArg(call *ir.Call, i int) (int64, bool) {
	if i >= len(call.Args) {
		return 0, false
	}
	c, ok := call.Args[i].(*ir.ConstInt)
	if !ok {
		return 0, false
	}
	return c.V, true
}

// sendRec is one observed cont send: destination color index and tag.
type sendRec struct {
	dst int
	tag int
}

// checkMessagePlan re-proves the cross-chunk cont protocol of one
// partitioned function by set-matching sends against waits: every wait in
// chunk d must have a sender addressing (d, tag) in some sibling chunk,
// and every send must have a matching wait — otherwise a chunk deadlocks
// or a message is silently dropped, and with it the value it carried.
func (v *validator) checkMessagePlan(pf *partition.PartFunc) {
	if v.prog.Mode == typing.Hardened {
		return // hardened chunks exchange no cont messages (§7.3.2)
	}
	key := pf.Spec.Key
	sends := map[sendRec][]ir.Pos{}
	waits := map[sendRec][]ir.Pos{}
	for _, c := range chunkColors(pf) {
		ch := pf.Chunks[c]
		if ch == nil || len(ch.Fn.Blocks) == 0 {
			continue
		}
		myIdx := v.prog.ColorIndex(c)
		ch.Fn.Instrs(func(_ *ir.Block, in ir.Instr) {
			call, ok := in.(*ir.Call)
			if !ok {
				return
			}
			callee, direct := call.Callee.(*ir.Function)
			if !direct {
				return
			}
			switch callee.FName {
			case partition.IntrSend, partition.IntrSendV:
				dst, dok := constArg(call, 0)
				tag, tok := constArg(call, 1)
				if dok && tok {
					sends[sendRec{int(dst), int(tag)}] = append(sends[sendRec{int(dst), int(tag)}], call.InstrPos())
				}
			case partition.IntrWait, partition.IntrWaitV:
				if tag, tok := constArg(call, 0); tok {
					waits[sendRec{myIdx, int(tag)}] = append(waits[sendRec{myIdx, int(tag)}], call.InstrPos())
				}
			}
		})
	}
	for _, r := range sortedRecs(waits) {
		if len(sends[r]) == 0 {
			pos := waits[r][0]
			v.errorf(ErrPlan, pos, key, "", v.tagTrace(pf, r.tag, fmt.Sprintf(
				"sink: chunk %s waits for tag %d but no sibling chunk sends it", v.prog.ColorAt(r.dst), r.tag)),
				"chunk of color %s waits for cont tag %d that no sibling chunk sends: the value it carried is lost and the chunk deadlocks (§7.3.2)",
				v.prog.ColorAt(r.dst), r.tag)
		}
	}
	for _, r := range sortedRecs(sends) {
		if len(waits[r]) == 0 {
			pos := sends[r][0]
			v.errorf(ErrPlan, pos, key, "", v.tagTrace(pf, r.tag, fmt.Sprintf(
				"sink: a cont message (dst %s, tag %d) is sent but never awaited", v.prog.ColorAt(r.dst), r.tag)),
				"cont message to chunk of color %s with tag %d is never awaited by that chunk (§7.3.2)",
				v.prog.ColorAt(r.dst), r.tag)
		}
	}
}

func sortedRecs(m map[sendRec][]ir.Pos) []sendRec {
	out := make([]sendRec, 0, len(m))
	for r := range m {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].tag != out[j].tag {
			return out[i].tag < out[j].tag
		}
		return out[i].dst < out[j].dst
	})
	return out
}

// tagTrace reconstructs the provenance of a cont tag: the original
// instruction the tag ships (a transport producer, a barrier effect, or a
// planned call's result), traced back through the spec body to the source
// annotation that colored the producing computation.
func (v *validator) tagTrace(pf *partition.PartFunc, tag int, sink string) *Trace {
	spec := pf.Spec
	if sc := pf.Sunk[tag]; sc != nil {
		for oi, tr := range v.prog.Transports(pf) {
			if tr.Tag == sc.From {
				return v.specTrace(spec, oi, spec.InstrColor[oi], sink,
					fmt.Sprintf("the search loop of %s compares this value, produced in enclave %s; tag %d carries the iteration at which that compare left the loop (0 if it never did) to chunks %v once per loop activation, in place of the per-iteration value (tag %d)",
						sc.Producer.Name(), spec.InstrColor[oi], tag, sc.Consumers, sc.From))
			}
		}
	}
	for oi, tr := range v.prog.Transports(pf) {
		if tr.Tag != tag {
			continue
		}
		return v.specTrace(spec, oi, spec.InstrColor[oi], sink,
			fmt.Sprintf("value produced here in enclave %s travels to chunks %v with tag %d",
				spec.InstrColor[oi], tr.Consumers, tag))
	}
	for oi, btag := range v.prog.BarrierTags(pf) {
		if btag != tag {
			continue
		}
		return &Trace{Steps: []TraceStep{
			{Note: sink},
			{Pos: oi.InstrPos(), Note: fmt.Sprintf("synchronization barrier (tag %d) around this visible effect (§7.3.3)", tag)},
		}}
	}
	for call, plan := range v.prog.Plans {
		if plan.Tag != tag || plan.Tag == 0 {
			continue
		}
		return v.specTrace(spec, call, plan.ResultColor, sink,
			fmt.Sprintf("result of this call is distributed to waiting chunks %v with tag %d", plan.Waiters, tag))
	}
	return &Trace{Steps: []TraceStep{{Note: sink}}}
}

// specTrace traces an original-body instruction back through the spec.
func (v *validator) specTrace(spec *typing.FuncSpec, oi ir.Instr, blamed ir.Color, sink, hop string) *Trace {
	t := &tracer{
		mode:   v.prog.Mode,
		color:  blamed,
		oracle: spec.ValueColor,
		callTarget: func(c *ir.Call) *typing.FuncSpec {
			return spec.CallTarget[c]
		},
		fn:   spec.Fn,
		seen: map[ir.Value]bool{},
	}
	t.step(ir.Pos{}, "%s", sink)
	t.step(oi.InstrPos(), "%s", hop)
	if val, ok := oi.(ir.Value); ok {
		t.walk(val)
	}
	return &Trace{Color: blamed, Steps: t.steps}
}
