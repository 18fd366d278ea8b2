package partition

import (
	"fmt"

	"privagic/internal/ir"
	"privagic/internal/passes"
	"privagic/internal/typing"
)

// declareIntrinsics creates the runtime intrinsic declarations the chunk
// bodies call.
func (p *Program) declareIntrinsics() {
	mk := func(name string, ret ir.Type, params ...ir.Type) *ir.Function {
		ps := make([]*ir.Param, len(params))
		for i, t := range params {
			ps[i] = &ir.Param{PName: fmt.Sprintf("a%d", i), Typ: t}
		}
		fn := ir.NewFunction(name, ret, ps)
		fn.External = true
		fn.Variadic = true
		return fn
	}
	p.intrSpawn = mk(IntrSpawn, ir.Void, ir.I64, ir.I64)
	p.intrWait = mk(IntrWait, ir.I64)
	p.intrJoin = mk(IntrJoin, ir.I64, ir.I64)
	p.intrSend = mk(IntrSend, ir.Void, ir.I64, ir.I64)
	p.intrSendV = mk(IntrSendV, ir.Void, ir.I64, ir.I64)
	p.intrWaitV = mk(IntrWaitV, ir.I64, ir.I64)
	p.intrElem = mk(IntrElem, ir.I64, ir.I64, ir.I64)
}

// ensureChunk returns the chunk of pf for color c, creating its shell on
// first request (bodies are filled by buildChunk; shells break recursion
// cycles between mutually recursive functions).
func (p *Program) ensureChunk(pf *PartFunc, c ir.Color) *Chunk {
	if ch := pf.Chunks[c]; ch != nil {
		return ch
	}
	shell := ir.NewFunction(pf.Spec.Key+"."+c.String(), pf.Spec.Fn.RetTyp, clonedParams(pf.Spec.Fn))
	ch := &Chunk{ID: len(p.ChunkByID), Color: c, Fn: shell, Part: pf}
	p.ChunkByID = append(p.ChunkByID, ch)
	pf.Chunks[c] = ch
	if pf.Replicated {
		// Replicated functions grow chunks on demand; fill the body
		// immediately (no recursion risk through plans: replicated
		// callees only direct-call).
		p.fillChunkBody(ch)
	}
	return ch
}

func clonedParams(fn *ir.Function) []*ir.Param {
	out := make([]*ir.Param, len(fn.Params))
	for i, pr := range fn.Params {
		out[i] = &ir.Param{PName: pr.PName, Typ: pr.Typ, Color: pr.Color, Index: i, Pos: pr.Pos}
	}
	return out
}

// buildChunk creates and fills the chunk of pf for color c.
func (p *Program) buildChunk(pf *PartFunc, c ir.Color) *Chunk {
	ch := p.ensureChunk(pf, c)
	if len(ch.Fn.Blocks) == 0 {
		p.fillChunkBody(ch)
	}
	return ch
}

// fillChunkBody generates the chunk's code: the instructions of its color
// plus the replicated Free instructions (§7.3.1), with foreign-colored
// regions bypassed, call sites rewritten per their CallPlan, and the
// runtime intrinsics inserted.
func (p *Program) fillChunkBody(ch *Chunk) {
	spec := ch.Part.Spec
	c := ch.Color

	clone, vmap := ir.CloneFunction(spec.Fn, ch.Fn.FName)
	// Transplant the clone's body into the shell (the shell's params
	// must be the ones used by the body, so adopt the clone's).
	ch.Fn.Params = clone.Params
	ch.Fn.Blocks = clone.Blocks
	for _, b := range ch.Fn.Blocks {
		b.Func = ch.Fn
	}
	fn := ch.Fn
	fn.FName = clone.FName

	// Index: cloned instruction -> original instruction (for colors).
	// vmap only covers value-producing instructions, so map the rest by
	// the parallel block/instruction structure of the fresh clone.
	orig := map[ir.Instr]ir.Instr{}
	origVal := map[ir.Value]ir.Value{} // clone value -> original value
	for bi, ob := range spec.Fn.Blocks {
		cb := fn.Blocks[bi]
		for ii, oin := range ob.Instrs {
			orig[cb.Instrs[ii]] = oin
		}
	}
	for v, nv := range vmap {
		origVal[nv] = v
	}
	colorOfClone := func(in ir.Instr) ir.Color {
		if oi, ok := orig[in]; ok {
			return spec.InstrColor[oi]
		}
		return ir.F
	}

	// Step 1: bypass foreign-colored regions: a CondBr controlled by a
	// different color jumps straight to the joining point (Rule 4
	// regions contain only that color's instructions).
	spec.Fn.ComputeCFG()
	pdom := ir.PostDominators(spec.Fn)
	cloneBlockOf := map[*ir.Block]*ir.Block{}
	for i, ob := range spec.Fn.Blocks {
		cloneBlockOf[ob] = fn.Blocks[i]
	}
	for bi, ob := range spec.Fn.Blocks {
		cb := fn.Blocks[bi]
		term, ok := cb.Terminator().(*ir.CondBr)
		if !ok {
			continue
		}
		tc := colorOfClone(term)
		if tc.IsFree() || tc.IsNone() || tc == c {
			continue
		}
		join := pdom.Idom(ob)
		idx := cb.IndexOf(term)
		if join != nil {
			br := &ir.Br{Target: cloneBlockOf[join]}
			cb.Splice(idx, br)
		} else {
			// The foreign region never rejoins (it returns): this
			// chunk's control flow ends here with a dummy return.
			cb.Splice(idx, dummyRet(fn))
		}
	}
	fn.RemoveUnreachable()

	// Cross-chunk value transport (§7.3.2 generalizied to instruction
	// results): a Free-typed value produced by an instruction placed in
	// enclave P but consumed by other chunks travels in a cont message —
	// P sends after producing, each consumer chunk waits at the
	// producer's program point. The canonical case is the unsafe-memory
	// allocation of a split structure (§7.2) whose pointer every chunk
	// needs.
	transports := p.transportsOf(ch.Part)

	avail := func(v ir.Value) bool {
		ov, ok := origVal[v]
		if !ok {
			return true // constant / global / function reference
		}
		if oi, isInstr := ov.(ir.Instr); isInstr {
			pc := spec.InstrColor[oi]
			if pc.IsFree() || pc.IsNone() || pc == c {
				return true
			}
			// Transported values become available at the
			// producer's program point.
			return transports[oi] != nil && contains(transports[oi].Consumers, c)
		}
		vc := spec.ValueColor(ov)
		return vc.IsFree() || vc == c
	}

	// Step 2: rewrite call sites and filter instructions by color.
	for _, b := range fn.Blocks {
		for idx := 0; idx < len(b.Instrs); idx++ {
			in := b.Instrs[idx]
			oi := orig[in]
			switch t := in.(type) {
			case *ir.Call:
				var plan *CallPlan
				if oc, ok := oi.(*ir.Call); ok {
					plan = p.Plans[oc]
				}
				if plan != nil {
					idx += p.rewriteCall(ch, b, idx, t, plan, avail) - 1
					continue
				}
				cc := colorOfClone(in)
				if cc.IsFree() || cc == c {
					idx += p.keepInstr(ch, b, idx, t, oi) - 1
					continue
				}
				idx += p.dropOrReceive(ch, b, idx, t, oi, transports) - 1
			case *ir.Ret:
				if t.Val != nil && !avail(t.Val) {
					t.Val = zeroConst(t.Val.Type())
				}
			case *ir.Br, *ir.CondBr:
				// Terminators survive filtering.
			default:
				cc := colorOfClone(in)
				if cc.IsFree() || cc == c {
					idx += p.keepInstr(ch, b, idx, in, oi) - 1
					continue
				}
				idx += p.dropOrReceive(ch, b, idx, in, oi, transports) - 1
			}
		}
	}

	fn.NormalizePhis()
	fn.RemoveUnreachable()
	// "If the F instruction is uselessly replicated, a dead-code-
	// elimination pass eliminates it after" (§7.3.1).
	passes.DCE(fn)
}

// keepInstr keeps an instruction in this chunk, wrapping it with its
// synchronization barrier when it is a relaxed-mode visible effect
// (§7.3.3), and appending the transport sends of its result. Returns the
// number of instructions now occupying the slot.
func (p *Program) keepInstr(ch *Chunk, b *ir.Block, idx int, in ir.Instr, oi ir.Instr) int {
	fn := ch.Fn
	var seq []ir.Instr
	if barTag, others, isEff := p.barrierOf(ch.Part, oi); isEff && ch.Color.IsUntrusted() {
		// Barrier entry: wait for one token per sibling chunk,
		// freezing the shared state everyone reads (§7.3.3: visible
		// effects execute "in the sequential order of the source
		// code"); acknowledge each sibling afterwards.
		for range others {
			seq = append(seq, ir.NewCallInstr(fn, p.intrWait, ir.I64Const(int64(barTag))))
		}
		seq = append(seq, in)
		for _, d := range others {
			seq = append(seq, ir.NewCallInstr(fn, p.intrSend,
				ir.I64Const(int64(p.ColorIndex(d))), ir.I64Const(int64(barTag)), ir.I64Const(0)))
		}
		seq = append(seq, p.transportSends(ch, in, oi)...)
		b.Splice(idx, seq...)
		return len(seq)
	}
	sends := p.transportSends(ch, in, oi)
	if len(sends) == 0 {
		return 1
	}
	seq = append(append(seq, in), sends...)
	b.Splice(idx, seq...)
	return len(seq)
}

// transportSends builds the cont sends shipping in's result to its
// consumer chunks.
func (p *Program) transportSends(ch *Chunk, in ir.Instr, oi ir.Instr) []ir.Instr {
	if oi == nil {
		return nil
	}
	tr := p.transportsOf(ch.Part)[oi]
	if tr == nil || len(tr.Consumers) == 0 {
		return nil
	}
	v, ok := in.(ir.Value)
	if !ok {
		return nil
	}
	fn := ch.Fn
	var seq []ir.Instr
	payload := p.sendWord(fn, &seq, v)
	for _, d := range tr.Consumers {
		if d == ch.Color {
			continue
		}
		seq = append(seq, ir.NewCallInstr(fn, p.intrSend,
			ir.I64Const(int64(p.ColorIndex(d))), ir.I64Const(int64(tr.Tag)), payload))
	}
	return seq
}

// dropOrReceive removes a foreign-colored instruction; if this chunk is a
// transport consumer of its result, a wait takes its place.
func (p *Program) dropOrReceive(ch *Chunk, b *ir.Block, idx int, in ir.Instr, oi ir.Instr, transports map[ir.Instr]*Transport) int {
	fn := ch.Fn
	var seq []ir.Instr
	// Barrier participation: send the token to the effect chunk, then
	// wait for its acknowledgment — the shared state is frozen while
	// the effect executes (§7.3.3).
	if barTag, _, isEff := p.barrierOf(ch.Part, oi); isEff && !ch.Color.IsUntrusted() {
		seq = append(seq,
			ir.NewCallInstr(fn, p.intrSend, ir.I64Const(0), ir.I64Const(int64(barTag)), ir.I64Const(0)),
			ir.NewCallInstr(fn, p.intrWait, ir.I64Const(int64(barTag))))
	}
	if oi != nil && transports[oi] != nil && contains(transports[oi].Consumers, ch.Color) {
		if v, ok := in.(ir.Value); ok {
			got := p.recvWord(fn, &seq, v.Type(), p.intrWait, ir.I64Const(int64(transports[oi].Tag)))
			fn.ReplaceUses(v, got)
			b.Splice(idx, seq...)
			return len(seq)
		}
	}
	if v, ok := in.(ir.Value); ok {
		if _, isVoid := v.Type().(ir.VoidType); !isVoid {
			fn.ReplaceUses(v, zeroConst(v.Type()))
		}
	}
	b.Splice(idx, seq...)
	return len(seq)
}

// barrierOf reports whether the original instruction is a relaxed-mode
// visible effect needing a §7.3.3 synchronization barrier, with its tag
// and the sibling chunks that participate.
func (p *Program) barrierOf(pf *PartFunc, oi ir.Instr) (tag int, others []ir.Color, ok bool) {
	if oi == nil || p.Mode != typing.Relaxed {
		return 0, nil, false
	}
	spec := pf.Spec
	if !spec.InstrColor[oi].IsUntrusted() {
		return 0, nil, false
	}
	switch t := oi.(type) {
	case *ir.Store:
		// Only stores into shared (S) memory are visible effects:
		// stores to explicit-U locations have a single reader and
		// writer (the U chunk), so they race with nobody.
		pt, isPtr := t.Ptr.Type().(ir.PointerType)
		if !isPtr || !pt.Color.IsNone() {
			return 0, nil, false
		}
	case *ir.Call:
		if p.Plans[t] != nil {
			return 0, nil, false // planned calls synchronize themselves
		}
	default:
		return 0, nil, false
	}
	for _, c := range pf.ColorSet {
		if !c.IsUntrusted() {
			others = append(others, c)
		}
	}
	if len(others) == 0 {
		return 0, nil, false
	}
	if pf.barriers == nil {
		pf.barriers = map[ir.Instr]int{}
	}
	tag, have := pf.barriers[oi]
	if !have {
		p.nextTag++
		tag = p.nextTag
		pf.barriers[oi] = tag
	}
	return tag, others, true
}

// Transport describes one cross-chunk value shipment: the consumer chunks
// and the static tag matching its sends with its waits.
type Transport struct {
	Consumers []ir.Color
	Tag       int
}

// transportsOf computes (once per function) which instruction results must
// travel between chunks: producer placed in a concrete color, result Free,
// consumed by instructions of other chunks. In hardened mode any such
// transport is an error (§7.3.2: a cont message cannot carry a Free value).
func (p *Program) transportsOf(pf *PartFunc) map[ir.Instr]*Transport {
	if pf.transports != nil {
		return pf.transports
	}
	spec := pf.Spec
	pf.transports = map[ir.Instr]*Transport{}
	inSet := map[ir.Color]bool{}
	for _, c := range pf.ColorSet {
		inSet[c] = true
	}
	spec.Fn.Instrs(func(_ *ir.Block, in ir.Instr) {
		v, isVal := in.(ir.Value)
		if !isVal {
			return
		}
		if _, isVoid := v.Type().(ir.VoidType); isVoid {
			return
		}
		pc := spec.InstrColor[in]
		if pc.IsFree() || pc.IsNone() {
			return // replicated producers need no transport
		}
		if !spec.ValueColor(v).IsFree() {
			return // concretely colored results stay in their enclave
		}
		consumers := map[ir.Color]bool{}
		spec.Fn.Instrs(func(_ *ir.Block, user ir.Instr) {
			uses := false
			for _, op := range user.Ops() {
				if *op == v {
					uses = true
				}
			}
			if r, isRet := user.(*ir.Ret); isRet && r.Val == v {
				uses = true
			}
			if !uses {
				return
			}
			uc := spec.InstrColor[user]
			if uc.IsFree() || uc.IsNone() {
				// Replicated consumer: every chunk needs it.
				for _, d := range pf.ColorSet {
					if d != pc {
						consumers[d] = true
					}
				}
			} else if uc != pc && inSet[uc] {
				consumers[uc] = true
			}
		})
		if len(consumers) == 0 {
			return
		}
		p.nextTag++
		pf.transports[in] = &Transport{Consumers: sortColors(consumers), Tag: p.nextTag}
		if p.Mode == typing.Hardened {
			p.errorf(in.InstrPos(), "hardened mode: value %s is produced in %s but needed by chunks %v; "+
				"cont messages cannot carry Free values in hardened mode (paper §7.3.2)",
				v.Name(), pc, pf.transports[in].Consumers)
		}
	})
	return pf.transports
}

func zeroConst(t ir.Type) ir.Value {
	switch tt := t.(type) {
	case ir.IntType:
		return ir.NewConstInt(tt, 0)
	case ir.FloatType:
		return &ir.ConstFloat{Typ: tt, V: 0}
	case ir.PointerType:
		return &ir.Null{Typ: tt}
	default:
		return ir.I64Const(0)
	}
}

func dummyRet(fn *ir.Function) ir.Instr {
	if _, isVoid := fn.RetTyp.(ir.VoidType); isVoid {
		return &ir.Ret{}
	}
	return &ir.Ret{Val: zeroConst(fn.RetTyp)}
}

// rewriteCall expands a planned call site inside chunk c into the §7.3.2
// protocol: spawns by the owner, a direct call for common colors, a join
// for completions, result distribution to waiters. It returns the number
// of instructions now occupying the call's slot.
func (p *Program) rewriteCall(ch *Chunk, b *ir.Block, idx int, call *ir.Call, plan *CallPlan, avail func(ir.Value) bool) int {
	fn := ch.Fn
	c := ch.Color
	target := plan.Target

	var seq []ir.Instr
	var result ir.Value

	// Owner spawns the missing chunks first, maximizing overlap
	// (Figure 7: f.blue sends s2/s3 before calling g.blue).
	if c == plan.Owner {
		for _, d := range plan.Spawns {
			dst := p.buildChunk(target, d)
			args := []ir.Value{ir.I64Const(int64(dst.ID)), ir.I64Const(boolToInt(plan.ResultFromJoin))}
			for _, fi := range plan.FArgIdx {
				if fi < len(call.Args) {
					args = append(args, call.Args[fi])
				}
			}
			seq = append(seq, ir.NewCallInstr(fn, p.intrSpawn, args...))
		}
	}

	switch {
	case plan.Direct[c] || target.Replicated:
		dst := p.buildChunk(target, c)
		args := make([]ir.Value, len(call.Args))
		for i, a := range call.Args {
			if avail(a) {
				args[i] = a
			} else {
				args[i] = zeroConst(a.Type())
			}
		}
		direct := ir.NewCallInstr(fn, dst.Fn, args...)
		seq = append(seq, direct)
		result = direct
	case c == plan.Owner && plan.ResultFromJoin:
		// The join returns the completion payload carrying the result.
	case contains(plan.Waiters, c):
		result = p.recvWord(fn, &seq, call.Type(), p.intrWait, ir.I64Const(int64(plan.Tag)))
	}

	if c == plan.Owner {
		if len(plan.Spawns) > 0 {
			n := ir.I64Const(int64(len(plan.Spawns)))
			if plan.ResultFromJoin && result == nil {
				result = p.recvWord(fn, &seq, call.Type(), p.intrJoin, n)
			} else {
				seq = append(seq, ir.NewCallInstr(fn, p.intrJoin, n))
			}
		}
		// Distribute the Free result to the waiting chunks
		// (Figure 7's c5 message carrying f's return value).
		if result != nil {
			if _, isVoid := result.Type().(ir.VoidType); !isVoid {
				for _, w := range plan.Waiters {
					widx := ir.I64Const(int64(p.ColorIndex(w)))
					payload := p.sendWord(fn, &seq, result)
					seq = append(seq, ir.NewCallInstr(fn, p.intrSend,
						widx, ir.I64Const(int64(plan.Tag)), payload))
				}
			}
		}
	}

	if len(seq) == 0 {
		// This chunk neither calls nor waits: the call vanishes here.
		p.dropCallUses(fn, call)
		b.Splice(idx)
		return 0
	}
	if result != nil {
		fn.ReplaceUses(call, result)
	} else {
		p.dropCallUses(fn, call)
	}
	b.Splice(idx, seq...)
	return len(seq)
}

// Message words: the transport intrinsics are declared over i64, and a
// message carries one untyped 64-bit word per value. A cast to and from
// i64 keeps an integer's or a pointer's word, but would convert a float
// numerically, so a float travels uncast: it is sent as it is, and the
// intrinsic call that receives it is typed as the float.

// sendWord returns the payload word of v for a send intrinsic, appending
// a cast to seq when v is a non-float of another type than i64.
func (p *Program) sendWord(fn *ir.Function, seq *[]ir.Instr, v ir.Value) ir.Value {
	if ir.IsFloat(v.Type()) {
		return v
	}
	return p.coerce(fn, seq, v, ir.I64)
}

// recvWord appends to seq the call of a receiving intrinsic whose word
// stands for a value of type want, and returns that value.
func (p *Program) recvWord(fn *ir.Function, seq *[]ir.Instr, want ir.Type, intr *ir.Function, args ...ir.Value) ir.Value {
	if ir.IsFloat(want) {
		call := ir.NewWordCallInstr(fn, want, intr, args...)
		*seq = append(*seq, call)
		return call
	}
	call := ir.NewCallInstr(fn, intr, args...)
	*seq = append(*seq, call)
	return p.coerce(fn, seq, call, want)
}

// coerce casts v to want when needed, appending the cast to seq.
func (p *Program) coerce(fn *ir.Function, seq *[]ir.Instr, v ir.Value, want ir.Type) ir.Value {
	if ir.TypesEqual(v.Type(), want) {
		return v
	}
	if _, isVoid := want.(ir.VoidType); isVoid {
		return v
	}
	cast := ir.NewCastInstr(fn, v, want)
	*seq = append(*seq, cast)
	return cast
}

// dropCallUses replaces remaining uses of a removed call's result with
// zero (legal: the typing rules ensure this chunk never consumes it).
func (p *Program) dropCallUses(fn *ir.Function, call *ir.Call) {
	if _, isVoid := call.Type().(ir.VoidType); isVoid {
		return
	}
	fn.ReplaceUses(call, zeroConst(call.Type()))
}

func contains(l []ir.Color, c ir.Color) bool {
	for _, x := range l {
		if x == c {
			return true
		}
	}
	return false
}

func boolToInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
