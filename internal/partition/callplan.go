package partition

import (
	"sort"

	"privagic/internal/ir"
	"privagic/internal/typing"
)

// bubbleUpColorSets gives functions with an empty color set that call
// colored functions the union of their callees' color sets, so that every
// call site has a well-defined set of chunks around it. (The paper's
// examples never hit this case because a caller always touches at least
// the colors of the values it passes; it matters for wrapper functions
// that only forward calls.)
func (p *Program) bubbleUpColorSets() {
	for changed := true; changed; {
		changed = false
		for _, pf := range p.sortedFuncs() {
			if !pf.Replicated {
				continue
			}
			union := map[ir.Color]bool{}
			pf.Spec.Fn.Instrs(func(_ *ir.Block, in ir.Instr) {
				call, ok := in.(*ir.Call)
				if !ok {
					return
				}
				if target := pf.Spec.CallTarget[call]; target != nil {
					for _, c := range p.Funcs[target].ColorSet {
						union[c] = true
					}
				} else if c := pf.Spec.InstrColor[in]; !c.IsFree() && !c.IsNone() {
					union[c] = true
				}
			})
			if len(union) == 0 {
				continue
			}
			pf.Replicated = false
			pf.ColorSet = sortColors(union)
			changed = true
		}
	}
}

func sortColors(set map[ir.Color]bool) []ir.Color {
	out := make([]ir.Color, 0, len(set))
	for c := range set {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
	return out
}

// planCalls computes the CallPlan of every direct local call in a function
// (§7.3.2).
func (p *Program) planCalls(pf *PartFunc) {
	spec := pf.Spec
	spec.Fn.Instrs(func(_ *ir.Block, in ir.Instr) {
		call, ok := in.(*ir.Call)
		if !ok {
			return
		}
		tspec := spec.CallTarget[call]
		if tspec == nil {
			return // external, within, or indirect: handled natively
		}
		target := p.Funcs[tspec]
		plan := &CallPlan{
			Target:      target,
			Direct:      map[ir.Color]bool{},
			ResultColor: spec.ValueColor(call),
		}
		callerSet := pf.ColorSet
		if pf.Replicated {
			// Replicated callers only ever call replicated callees
			// (bubbleUpColorSets guarantees it): pure direct calls.
			p.Plans[call] = plan
			return
		}
		targetSet := target.ColorSet
		if target.Replicated {
			// Every caller chunk calls its private replica.
			for _, c := range callerSet {
				plan.Direct[c] = true
			}
			p.Plans[call] = plan
			return
		}

		inCaller := map[ir.Color]bool{}
		for _, c := range callerSet {
			inCaller[c] = true
		}
		inTarget := map[ir.Color]bool{}
		for _, c := range targetSet {
			inTarget[c] = true
		}
		var common []ir.Color
		for _, c := range targetSet {
			if inCaller[c] {
				common = append(common, c)
				plan.Direct[c] = true
			} else {
				plan.Spawns = append(plan.Spawns, c)
			}
		}

		// Owner: prefer the chunk of the call instruction's own color,
		// then a common color (it gets the result by direct call),
		// then any caller chunk.
		switch {
		case !spec.InstrColor[in].IsFree() && !spec.InstrColor[in].IsNone() && inCaller[spec.InstrColor[in]]:
			plan.Owner = spec.InstrColor[in]
			plan.ResultFromJoin = !inTarget[plan.Owner]
		case len(common) > 0:
			plan.Owner = preferNamed(common)
		case len(callerSet) > 0:
			plan.Owner = preferNamed(callerSet)
			plan.ResultFromJoin = true
		}

		// Free parameters forwarded to spawned chunks (§7.3.2
		// trampolines).
		for i, ac := range tspec.ArgColors {
			if ac.IsFree() {
				plan.FArgIdx = append(plan.FArgIdx, i)
			}
		}

		// Waiters: caller chunks that consume the call's result but do
		// not reach the callee by direct call.
		if p.resultUsedFreely(spec, call) {
			for _, c := range callerSet {
				if !inTarget[c] && c != plan.Owner {
					plan.Waiters = append(plan.Waiters, c)
				}
			}
			if !inTarget[plan.Owner] {
				plan.ResultFromJoin = true
			}
		}

		if len(plan.Waiters) > 0 {
			p.nextTag++
			plan.Tag = p.nextTag
		}

		// Hardened mode cannot ship Free values across enclaves in
		// cont messages (§7.3.2, §8).
		if p.Mode == typing.Hardened {
			for _, d := range plan.Spawns {
				for _, i := range plan.FArgIdx {
					if p.paramUsedInChunk(tspec, d, i) {
						p.errorf(in.InstrPos(),
							"hardened mode: spawned chunk %s.%s needs Free argument %d computed by the caller; "+
								"cont messages cannot carry Free values in hardened mode (paper §7.3.2)",
							tspec.Key, d, i)
					}
				}
			}
			if len(plan.Waiters) > 0 {
				p.errorf(in.InstrPos(),
					"hardened mode: chunks %v of @%s need the Free result of a call to @%s computed by another enclave (paper §7.3.2)",
					plan.Waiters, spec.Key, tspec.Key)
			}
		}
		p.Plans[call] = plan
	})
}

// preferNamed picks a deterministic owner, preferring enclave colors over
// U so the paper's Figure 7 shape (f.blue spawns g.red and g.U) holds.
func preferNamed(colors []ir.Color) ir.Color {
	var best ir.Color
	for _, c := range colors {
		if c.IsUntrusted() {
			continue
		}
		if best.IsNone() || c.String() < best.String() {
			best = c
		}
	}
	if best.IsNone() {
		return ir.U
	}
	return best
}

// resultUsedFreely reports whether the call has a Free result that the
// caller uses, which makes every caller chunk a potential consumer. A
// concretely colored result stays in its enclave, as in transportsOf:
// shipping it would carry it through the untrusted queues.
func (p *Program) resultUsedFreely(spec *typing.FuncSpec, call *ir.Call) bool {
	if !spec.ValueColor(call).IsFree() {
		return false
	}
	used := false
	spec.Fn.Instrs(func(_ *ir.Block, in ir.Instr) {
		for _, op := range in.Ops() {
			if *op == ir.Value(call) {
				used = true
			}
		}
	})
	if _, isVoid := call.Type().(ir.VoidType); isVoid {
		return false
	}
	return used
}

// paramUsedInChunk reports whether chunk d of the target would reference
// parameter i: an instruction placed in d (or replicated, F) uses it.
func (p *Program) paramUsedInChunk(tspec *typing.FuncSpec, d ir.Color, i int) bool {
	if i >= len(tspec.Fn.Params) {
		return false
	}
	param := tspec.Fn.Params[i]
	found := false
	tspec.Fn.Instrs(func(_ *ir.Block, in ir.Instr) {
		c := tspec.InstrColor[in]
		if !(c.IsFree() || c.IsNone() || c == d) {
			return
		}
		for _, op := range in.Ops() {
			if *op == ir.Value(param) {
				found = true
			}
		}
	})
	return found
}
