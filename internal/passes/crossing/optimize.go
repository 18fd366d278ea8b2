package crossing

import (
	"fmt"
	"sort"

	"privagic/internal/ir"
	"privagic/internal/partition"
	"privagic/internal/typing"
)

// The partition optimizer: four crossing-report-guided rewrites over
// built chunk bodies, each with a self-contained legality check and each
// re-proved independently by internal/audit strict validation after the
// pass runs (the caller re-runs the auditor; see privagic.Compile).
//
//  1. Fusion: a spawned unsafe chunk whose body exchanges no messages at
//     all (no intrinsics, no chunk calls, no sanctioned boundary copies,
//     no split allocations) is called directly on the spawner's worker
//     instead — the spawn/done round trip disappears. Legal only in
//     relaxed mode: an enclave worker may execute unsafe-memory code, and
//     the chunk's own color discipline (already proved by typing and
//     audit) guarantees it cannot touch any enclave's memory.
//  2. Cont coalescing: adjacent transports with identical consumer sets
//     whose producing sends and consuming waits are separated only by
//     pure scalar instructions collapse into one vectored cont per
//     destination (__pv_sendv / __pv_waitv / __pv_elem).
//  3. Barrier merging: two adjacent visible-effect barrier intervals with
//     nothing but pure scalar instructions between them (on the unsafe
//     side and in every sibling) become one frozen interval — the second
//     interval's token/ack round trips disappear, and with them the
//     boundary snapshot refresh between the two effects, which the
//     purity check proves no sibling could have observed.
//  4. Sinking (sink.go): a cont sent once per iteration of a replicated
//     search loop, deciding only the loop's exit, is sent once when the
//     producer's loop exits; each consumer receives it on its first
//     iteration and walks the rest of its pure loop without waiting.

// OptResult records what the optimizer did (and refused to do).
type OptResult struct {
	Fused     []FusedChunk
	Coalesced []CoalescedGroup
	Merged    []MergedBarrier
	Sunk      []SunkLoop
	Rejected  []Rejection
}

// Summary renders what the optimizer did in one line: the rewrites it
// applied and how many candidates its legality checks refused.
func (r *OptResult) Summary() string {
	return fmt.Sprintf("fused %d spawn sites, coalesced %d transport groups, merged %d barriers, sank %d loop conts (%d candidates rejected)",
		len(r.Fused), len(r.Coalesced), len(r.Merged), len(r.Sunk), len(r.Rejected))
}

// FusedChunk is one fused spawn site.
type FusedChunk struct {
	Owner  string // owner chunk that spawned
	Target string // fused (formerly spawned) chunk
	Pos    ir.Pos
}

// CoalescedGroup is one run of transports merged into a vectored cont.
type CoalescedGroup struct {
	Fn       string
	Producer string
	Tags     []int
	NewTag   int
	Depth    int
}

// MergedBarrier is one pair of merged barrier intervals.
type MergedBarrier struct {
	Fn         string
	KeptTag    int
	DroppedTag int
	Siblings   int
}

// Rejection is a candidate the legality check refused, with the reason —
// the negative corpus asserts on these.
type Rejection struct {
	Kind   string // "fuse" | "coalesce" | "barrier"
	Where  string
	Reason string
}

// Optimize applies the four rewrites to pp in place. The caller must
// re-run strict audit validation afterwards; Optimize itself only
// guarantees its own legality checks.
func Optimize(pp *partition.Program) *OptResult {
	o := newOptimizer(pp)
	if pp.Mode != typing.Hardened {
		o.fusePass()
		o.coalescePass()
		o.barrierPass()
		o.sinkPass()
	}
	return o.res
}

type optimizer struct {
	pp      *partition.Program
	res     *OptResult
	fnChunk map[*ir.Function]*partition.Chunk
}

func newOptimizer(pp *partition.Program) *optimizer {
	o := &optimizer{pp: pp, res: &OptResult{}, fnChunk: map[*ir.Function]*partition.Chunk{}}
	for _, ch := range pp.ChunkByID {
		o.fnChunk[ch.Fn] = ch
	}
	return o
}

func (o *optimizer) reject(kind, where, reason string) {
	o.res.Rejected = append(o.res.Rejected, Rejection{Kind: kind, Where: where, Reason: reason})
}

// sortedPFs returns the partitioned functions in deterministic order.
func (o *optimizer) sortedPFs() []*partition.PartFunc {
	out := make([]*partition.PartFunc, 0, len(o.pp.Funcs))
	for _, pf := range o.pp.Funcs {
		out = append(out, pf)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Spec.Key < out[j].Spec.Key })
	return out
}

func (o *optimizer) sortedChunks(pf *partition.PartFunc) []*partition.Chunk {
	out := make([]*partition.Chunk, 0, len(pf.Chunks))
	for _, ch := range pf.Chunks {
		out = append(out, ch)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ---------------------------------------------------------------------------
// Pass 1: fusion.

// fusePass fuses every spawn of a message-free unsafe chunk into a direct
// call on the spawner's worker.
func (o *optimizer) fusePass() {
	// Decide fusibility per target chunk: every plan spawning it must
	// agree (same FArgIdx by construction; no plan may take its call
	// result from the join).
	type target struct {
		plans []*partition.CallPlan
	}
	byChunk := map[*partition.Chunk]*target{}
	for _, plan := range o.pp.Plans {
		for _, c := range plan.Spawns {
			ch := plan.Target.Chunks[c]
			if ch == nil {
				continue
			}
			if byChunk[ch] == nil {
				byChunk[ch] = &target{}
			}
			byChunk[ch].plans = append(byChunk[ch].plans, plan)
		}
	}
	fused := map[*partition.Chunk]bool{}
	for _, tc := range o.pp.ChunkByID {
		t := byChunk[tc]
		if t == nil {
			continue
		}
		if reason := FuseBlocker(o.pp, tc); reason != "" {
			o.reject("fuse", tc.Name(), reason)
			continue
		}
		// A joined result is only attributable to the fused chunk when it
		// is the sole spawned color of its plan (the direct call's return
		// value then substitutes for the join's).
		ambiguous := false
		for _, plan := range t.plans {
			if plan.ResultFromJoin && len(plan.Spawns) > 1 {
				ambiguous = true
			}
		}
		if ambiguous {
			o.reject("fuse", tc.Name(), "the joined result cannot be attributed among multiple spawned colors")
			continue
		}
		if o.fuseSites(tc, t.plans[0].FArgIdx) {
			fused[tc] = true
		}
	}
	// Tighten the plans (and with them the §8 spawn whitelist).
	for _, plan := range o.pp.Plans {
		var kept []ir.Color
		for _, c := range plan.Spawns {
			if ch := plan.Target.Chunks[c]; ch != nil && fused[ch] {
				continue
			}
			kept = append(kept, c)
		}
		plan.Spawns = kept
	}
}

// FuseBlocker re-derives the fusion legality of one spawned chunk and
// returns the first blocking reason, or "" when the chunk is fusible.
// Exported so the audit validator and the optimizer share one definition
// of the rule while each invokes it independently.
func FuseBlocker(pp *partition.Program, tc *partition.Chunk) string {
	if pp.Mode == typing.Hardened {
		return "fusion requires relaxed mode (an enclave worker executing unsafe code violates the hardened Iago rule)"
	}
	if !tc.Color.IsUntrusted() {
		return fmt.Sprintf("chunk runs in enclave %s; only unsafe chunks can execute on a foreign worker", tc.Color)
	}
	fnChunk := map[*ir.Function]bool{}
	for _, ch := range pp.ChunkByID {
		fnChunk[ch.Fn] = true
	}
	blocked := ""
	tc.Fn.Instrs(func(_ *ir.Block, in ir.Instr) {
		if blocked != "" {
			return
		}
		switch v := in.(type) {
		case *ir.Call:
			fn, direct := v.Callee.(*ir.Function)
			if !direct {
				blocked = "body contains an indirect call"
				return
			}
			switch {
			case isMessage(fn.FName):
				blocked = fmt.Sprintf("body exchanges messages (%s)", fn.FName)
			case fn.FName == "classify" || fn.FName == "declassify" || fn.FName == "classify_key":
				blocked = fmt.Sprintf("body contains a sanctioned boundary copy (@%s); declassification sites stay pinned to their own worker", fn.FName)
			case fn.FName == "thread_create" || fn.FName == "thread_join":
				blocked = fmt.Sprintf("body calls @%s; a thread's children belong to the worker that created them, so thread sites stay pinned to their own worker", fn.FName)
			case fnChunk[fn]:
				blocked = fmt.Sprintf("body calls another chunk (%s)", fn.FName)
			}
		case *ir.Malloc:
			if st, ok := v.Elem.(*ir.StructType); ok && pp.Splits[st.Name] != nil {
				blocked = fmt.Sprintf("body allocates split struct %%%s (cross-enclave allocation traffic)", st.Name)
			}
		}
	})
	return blocked
}

// fuseSites rewrites every spawn of tc into a direct call. Returns true
// when at least one site was rewritten (and none was left half-done).
func (o *optimizer) fuseSites(tc *partition.Chunk, fargIdx []int) bool {
	any := false
	for _, ch := range o.pp.ChunkByID {
		if ch == tc {
			continue
		}
		for _, b := range ch.Fn.Blocks {
			for i := 0; i < len(b.Instrs); i++ {
				call, ok := b.Instrs[i].(*ir.Call)
				if !ok || !isIntr(call, partition.IntrSpawn) {
					continue
				}
				if id, ok := constArg(call, 0); !ok || int(id) != tc.ID {
					continue
				}
				if o.fuseOne(ch, b, i, call, tc, fargIdx) {
					any = true
				}
			}
		}
	}
	return any
}

// fuseOne rewrites a single spawn site: the spawn becomes a direct call
// with zero-padded non-free arguments, and the site's join count drops by
// one (the join disappears when it hits zero).
func (o *optimizer) fuseOne(ch *partition.Chunk, b *ir.Block, i int, spawn *ir.Call, tc *partition.Chunk, fargIdx []int) bool {
	// Locate the join this site's done would have satisfied.
	var join *ir.Call
	for j := i + 1; j < len(b.Instrs); j++ {
		if c, ok := b.Instrs[j].(*ir.Call); ok && isIntr(c, partition.IntrJoin) {
			join = c
			break
		}
	}
	if join == nil {
		o.reject("fuse", tc.Name(), "spawn site has no join in its block; cannot retire the completion count")
		return false
	}
	n, ok := constArg(join, 0)
	if !ok || n < 1 {
		return false
	}
	// Build the direct call: free args come from the spawn payload in
	// FArgIdx order, every other parameter is zero-padded (spawned
	// chunks never read their colored parameters; audit re-proves it).
	fargs := spawn.Args[2:]
	args := make([]ir.Value, len(tc.Fn.Params))
	for pi, p := range tc.Fn.Params {
		args[pi] = zeroValue(p.Typ)
		for fi, idx := range fargIdx {
			if idx == pi && fi < len(fargs) {
				args[pi] = fargs[fi]
			}
		}
	}
	joinUsed := hasUses(ch.Fn, join)
	if joinUsed {
		// The join's value (the done payload) must be replaceable by the
		// direct call's own return value: single-completion joins only,
		// and the callee must actually return something.
		if n > 1 {
			o.reject("fuse", tc.Name(), "join result is used and merges multiple completions")
			return false
		}
		if tc.Fn.RetTyp == ir.Void {
			o.reject("fuse", tc.Name(), "join result is used but the fused chunk returns nothing")
			return false
		}
	}
	direct := ir.NewCallInstr(ch.Fn, tc.Fn, args...)
	b.Splice(i, direct)
	if n == 1 {
		if joinUsed {
			ch.Fn.ReplaceUses(join, direct)
		}
		if jb := join.Parent(); jb != nil {
			jb.Splice(jb.IndexOf(join))
		}
	} else {
		join.Args[0] = ir.I64Const(n - 1)
	}
	o.res.Fused = append(o.res.Fused, FusedChunk{Owner: ch.Name(), Target: tc.Name(), Pos: spawn.InstrPos()})
	return true
}

// ---------------------------------------------------------------------------
// Pass 2: cont coalescing.

// coalescePass merges adjacent same-consumer transports into vectored
// conts, producer and consumers rewritten together.
func (o *optimizer) coalescePass() {
	for _, pf := range o.sortedPFs() {
		trs := o.pp.Transports(pf)
		if len(trs) < 2 {
			continue
		}
		tagConsumers := map[int][]ir.Color{}
		for _, tr := range trs {
			tagConsumers[tr.Tag] = tr.Consumers
		}
		for _, ch := range o.sortedChunks(pf) {
			o.coalesceChunk(pf, ch, tagConsumers)
		}
	}
}

type sendSite struct {
	idx  int
	call *ir.Call
	dst  int
	tag  int
}

// coalesceChunk scans one producer chunk for runs of adjacent transport
// sends and coalesces each legal run.
func (o *optimizer) coalesceChunk(pf *partition.PartFunc, ch *partition.Chunk, tagConsumers map[int][]ir.Color) {
	for _, b := range ch.Fn.Blocks {
		// Collect this block's transport sends in order.
		var sites []sendSite
		for i, in := range b.Instrs {
			call, ok := in.(*ir.Call)
			if !ok || !isIntr(call, partition.IntrSend) {
				continue
			}
			dst, dok := constArg(call, 0)
			tag, tok := constArg(call, 1)
			if !dok || !tok || tagConsumers[int(tag)] == nil {
				continue
			}
			sites = append(sites, sendSite{idx: i, call: call, dst: int(dst), tag: int(tag)})
		}
		// Group maximal runs of distinct tags with identical consumer
		// sets and only pure instructions between the sends.
		for gi := 0; gi < len(sites); {
			group := []sendSite{sites[gi]}
			tags := []int{sites[gi].tag}
			gj := gi + 1
			for ; gj < len(sites); gj++ {
				prev, next := group[len(group)-1], sites[gj]
				if !sameColors(tagConsumers[next.tag], tagConsumers[tags[0]]) {
					break
				}
				if !o.pureRange(b, prev.idx+1, next.idx) {
					break
				}
				group = append(group, next)
				if next.tag != tags[len(tags)-1] {
					tags = append(tags, next.tag)
				}
			}
			if len(tags) >= 2 {
				// Shrink until every consumer's waits co-locate.
				for len(tags) >= 2 && !o.applyCoalesce(pf, ch, b, group, tags, tagConsumers[tags[0]]) {
					last := tags[len(tags)-1]
					tags = tags[:len(tags)-1]
					for len(group) > 0 && group[len(group)-1].tag == last {
						group = group[:len(group)-1]
					}
				}
			}
			gi = gj
		}
	}
}

// applyCoalesce validates the consumer side of one group and, when legal,
// rewrites producer and consumers. Returns false (no mutation) when a
// consumer's waits do not co-locate.
func (o *optimizer) applyCoalesce(pf *partition.PartFunc, prod *partition.Chunk, b *ir.Block, group []sendSite, tags []int, consumers []ir.Color) bool {
	vecIdx := map[int]int{}
	for i, t := range tags {
		vecIdx[t] = i
	}
	// Validate every consumer first: all the group's waits adjacent in
	// one block, separated only by pure instructions.
	type consumerPlanRec struct {
		ch    *partition.Chunk
		block *ir.Block
		waits []*ir.Call // by block order
		first int
	}
	var rewrites []consumerPlanRec
	for _, cc := range consumers {
		cch := pf.Chunks[cc]
		if cch == nil {
			return false
		}
		var blk *ir.Block
		var waits []*ir.Call
		first, last := -1, -1
		for _, cb := range cch.Fn.Blocks {
			for i, in := range cb.Instrs {
				call, ok := in.(*ir.Call)
				if !ok || !isIntr(call, partition.IntrWait) {
					continue
				}
				tag, tok := constArg(call, 0)
				if !tok {
					continue
				}
				if _, mine := vecIdx[int(tag)]; !mine {
					continue
				}
				if blk == nil {
					blk = cb
				}
				if cb != blk {
					o.reject("coalesce", cch.Name(), fmt.Sprintf("waits for tags %v span blocks; the vector cannot be received at one point", tags))
					return false
				}
				waits = append(waits, call)
				if first < 0 {
					first = i
				}
				last = i
			}
		}
		if len(waits) != len(tags) {
			o.reject("coalesce", cch.Name(), fmt.Sprintf("consumer waits %d of the %d grouped tags", len(waits), len(tags)))
			return false
		}
		// Purity between the waits (excluding the waits themselves).
		for i := first; i <= last; i++ {
			in := blk.Instrs[i]
			if c, ok := in.(*ir.Call); ok && isIntr(c, partition.IntrWait) {
				if tag, tok := constArg(c, 0); tok {
					if _, mine := vecIdx[int(tag)]; mine {
						continue
					}
				}
			}
			if !o.pureInstr(in) {
				o.reject("coalesce", cch.Name(), fmt.Sprintf("instruction between coalesced waits is not pure scalar: %s", in))
				return false
			}
		}
		rewrites = append(rewrites, consumerPlanRec{ch: cch, block: blk, waits: waits, first: first})
	}

	// All sides legal: allocate the vector tag and rewrite.
	newTag := o.pp.AllocTag()
	intrSendV := o.pp.Intrinsic(partition.IntrSendV)
	intrWaitV := o.pp.Intrinsic(partition.IntrWaitV)
	intrElem := o.pp.Intrinsic(partition.IntrElem)

	// Producer: one sendv per destination at the last send's position,
	// carrying the group's values in tag order.
	valOf := map[[2]int]ir.Value{} // (tag, dst) -> payload
	dsts := []int{}
	seenDst := map[int]bool{}
	for _, s := range group {
		if len(s.call.Args) > 2 {
			valOf[[2]int{s.tag, s.dst}] = s.call.Args[2]
		}
		if !seenDst[s.dst] {
			seenDst[s.dst] = true
			dsts = append(dsts, s.dst)
		}
	}
	lastIdx := group[len(group)-1].idx
	var news []ir.Instr
	for _, d := range dsts {
		args := []ir.Value{ir.I64Const(int64(d)), ir.I64Const(int64(newTag))}
		for _, t := range tags {
			v := valOf[[2]int{t, d}]
			if v == nil {
				v = ir.I64Const(0)
			}
			args = append(args, v)
		}
		news = append(news, ir.NewCallInstr(prod.Fn, intrSendV, args...))
	}
	// Replace the last send with the sendv run, then delete the rest
	// (back to front so indices stay valid).
	b.Splice(lastIdx, news...)
	for i := len(group) - 2; i >= 0; i-- {
		b.Splice(group[i].idx)
	}

	// Consumers: waitv at the first wait, each wait becomes an element
	// read.
	for _, rw := range rewrites {
		headIdx := rw.block.IndexOf(rw.waits[0])
		head := ir.NewCallInstr(rw.ch.Fn, intrWaitV, ir.I64Const(int64(newTag)))
		rw.block.Splice(headIdx, head, rw.waits[0])
		for _, w := range rw.waits {
			tag, _ := constArg(w, 0)
			// The element read takes the wait's type (f64 for a float
			// word, see partition's recvWord).
			elem := ir.NewWordCallInstr(rw.ch.Fn, w.Type(), intrElem, ir.I64Const(int64(newTag)), ir.I64Const(int64(vecIdx[int(tag)])))
			wi := rw.block.IndexOf(w)
			rw.block.Splice(wi, elem)
			rw.ch.Fn.ReplaceUses(w, elem)
		}
	}

	depth := 0
	if li := AnalyzeLoops(prod.Fn); li != nil {
		depth = li.Depth(b)
	}
	o.res.Coalesced = append(o.res.Coalesced, CoalescedGroup{
		Fn: pf.Spec.Key, Producer: prod.Name(), Tags: append([]int(nil), tags...), NewTag: newTag, Depth: depth,
	})
	return true
}

// ---------------------------------------------------------------------------
// Pass 3: barrier merging.

type interval struct {
	block *ir.Block
	tag   int
	waits []*ir.Call
	sends []*ir.Call
	first int // index of first wait
	last  int // index of last send
}

// barrierPass merges adjacent visible-effect barrier intervals.
func (o *optimizer) barrierPass() {
	for _, pf := range o.sortedPFs() {
		for {
			if !o.mergeOnePair(pf) {
				break
			}
		}
	}
}

// mergeOnePair finds and merges the first legal adjacent interval pair of
// pf, returning true when a merge happened (the caller loops to a fixed
// point, so chains of barriers collapse).
func (o *optimizer) mergeOnePair(pf *partition.PartFunc) bool {
	barrierTags := map[int]bool{}
	for _, tag := range o.pp.BarrierTags(pf) {
		barrierTags[tag] = true
	}
	if len(barrierTags) < 2 {
		return false
	}
	var uch *partition.Chunk
	var siblings []*partition.Chunk
	for _, ch := range o.sortedChunks(pf) {
		if ch.Color.IsUntrusted() {
			uch = ch
		} else {
			siblings = append(siblings, ch)
		}
	}
	if uch == nil || len(siblings) == 0 {
		return false
	}
	ivs := barrierIntervals(uch, barrierTags)
	for i := 0; i+1 < len(ivs); i++ {
		a, b := ivs[i], ivs[i+1]
		if a.block != b.block || a.tag == b.tag {
			continue
		}
		if !o.pureRange(a.block, a.last+1, b.first) {
			o.reject("barrier", uch.Name(), fmt.Sprintf("effectful instruction between barrier intervals %d and %d", a.tag, b.tag))
			continue
		}
		if o.mergeSiblings(pf, uch, siblings, a, b) {
			return true
		}
	}
	return false
}

// mergeSiblings validates the sibling side of a merge and applies the
// whole rewrite. Returns false (no mutation) if any sibling's token/ack
// pairs are not adjacent.
func (o *optimizer) mergeSiblings(pf *partition.PartFunc, uch *partition.Chunk, siblings []*partition.Chunk, a, b *interval) bool {
	type sibRec struct {
		ch    *partition.Chunk
		sendB *ir.Call
		waitB *ir.Call
		blk   *ir.Block
	}
	var recs []sibRec
	for _, sib := range siblings {
		sa := sibPair(sib, a.tag)
		sb := sibPair(sib, b.tag)
		if sa == nil || sb == nil || sa.block != sb.block {
			o.reject("barrier", sib.Name(), fmt.Sprintf("sibling token/ack pairs for tags %d/%d are missing or span blocks", a.tag, b.tag))
			return false
		}
		// Adjacency: wait(a) ... send(b) with only pure instructions
		// between, and the b-wait's token must be unused.
		if !o.pureRange(sa.block, sa.last+1, sb.first) {
			o.reject("barrier", sib.Name(), fmt.Sprintf("effectful instruction between sibling barriers %d and %d", a.tag, b.tag))
			return false
		}
		if hasUses(sib.Fn, sb.waits[0]) {
			return false
		}
		recs = append(recs, sibRec{ch: sib, sendB: sb.sends[0], waitB: sb.waits[0], blk: sb.block})
	}

	// Unsafe side: drop a's acks and b's waits, retag b's acks to a.
	for _, s := range a.sends {
		blk := s.Parent()
		blk.Splice(blk.IndexOf(s))
	}
	for _, w := range b.waits {
		blk := w.Parent()
		blk.Splice(blk.IndexOf(w))
	}
	for _, s := range b.sends {
		s.Args[1] = ir.I64Const(int64(a.tag))
	}
	// Siblings: drop the b token/ack pair entirely.
	for _, r := range recs {
		r.blk.Splice(r.blk.IndexOf(r.sendB))
		r.blk.Splice(r.blk.IndexOf(r.waitB))
	}
	// Provenance: the dropped tag's effects now sit inside the kept
	// interval.
	barriers := o.pp.BarrierTags(pf)
	for in, tag := range barriers {
		if tag == b.tag {
			barriers[in] = a.tag
		}
	}
	o.res.Merged = append(o.res.Merged, MergedBarrier{Fn: pf.Spec.Key, KeptTag: a.tag, DroppedTag: b.tag, Siblings: len(recs)})
	return true
}

// barrierIntervals collects the unsafe chunk's barrier intervals in block
// order: waits, then the frozen effect, then the acks, all per tag.
func barrierIntervals(uch *partition.Chunk, barrierTags map[int]bool) []*interval {
	var out []*interval
	for _, blk := range uch.Fn.Blocks {
		byTag := map[int]*interval{}
		var order []*interval
		for i, in := range blk.Instrs {
			call, ok := in.(*ir.Call)
			if !ok {
				continue
			}
			var tag int64
			var isWait bool
			if isIntr(call, partition.IntrWait) {
				tag, ok = constArg(call, 0)
				isWait = true
			} else if isIntr(call, partition.IntrSend) {
				tag, ok = constArg(call, 1)
			} else {
				continue
			}
			if !ok || !barrierTags[int(tag)] {
				continue
			}
			iv := byTag[int(tag)]
			if iv == nil {
				iv = &interval{block: blk, tag: int(tag), first: i}
				byTag[int(tag)] = iv
				order = append(order, iv)
			}
			if isWait {
				iv.waits = append(iv.waits, call)
			} else {
				iv.sends = append(iv.sends, call)
				iv.last = i
			}
		}
		for _, iv := range order {
			if len(iv.waits) > 0 && len(iv.sends) > 0 && iv.last > iv.first {
				out = append(out, iv)
			}
		}
	}
	return out
}

// sibPair finds a sibling's token/ack pair for one barrier tag: the
// send(U, tag) and the wait(tag), as a degenerate interval.
func sibPair(sib *partition.Chunk, tag int) *interval {
	for _, blk := range sib.Fn.Blocks {
		var iv *interval
		for i, in := range blk.Instrs {
			call, ok := in.(*ir.Call)
			if !ok {
				continue
			}
			if isIntr(call, partition.IntrSend) {
				if t, tok := constArg(call, 1); tok && int(t) == tag {
					if iv == nil {
						iv = &interval{block: blk, tag: tag, first: i}
					}
					iv.sends = append(iv.sends, call)
				}
			} else if isIntr(call, partition.IntrWait) {
				if t, tok := constArg(call, 0); tok && int(t) == tag {
					if iv == nil {
						iv = &interval{block: blk, tag: tag, first: i}
					}
					iv.waits = append(iv.waits, call)
					iv.last = i
				}
			}
		}
		if iv != nil {
			if len(iv.sends) == 1 && len(iv.waits) == 1 && iv.last > iv.first {
				return iv
			}
			return nil
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Shared legality helpers.

// pureRange reports whether every instruction in [from, to) of b is pure
// scalar: no memory traffic, no messages, no calls that could observe or
// advance the boundary protocol. This is the dataflow fact coalescing
// and merging lean on — between the merged points, no sibling-visible
// state changes and no U def-use chain is crossed.
func (o *optimizer) pureRange(b *ir.Block, from, to int) bool {
	for i := from; i < to && i < len(b.Instrs); i++ {
		if !o.pureInstr(b.Instrs[i]) {
			return false
		}
	}
	return true
}

func (o *optimizer) pureInstr(in ir.Instr) bool {
	switch v := in.(type) {
	case *ir.BinOp, *ir.Cmp, *ir.Cast, *ir.FieldAddr, *ir.IndexAddr, *ir.Alloca:
		return true
	case *ir.Load:
		// Enclave-private loads are invisible to every other worker, so
		// reordering messages across them changes nothing anyone can
		// observe. U/Free loads stay barriers to motion: a delayed send
		// could move a consumer's U store across this read.
		pt, ok := v.Ptr.Type().(ir.PointerType)
		return ok && pt.Color.IsEnclave()
	case *ir.Call:
		fn, direct := v.Callee.(*ir.Function)
		if !direct || !fn.External || o.fnChunk[fn] != nil || isMessage(fn.FName) {
			return false
		}
		// Scalar-only externals (reveal and friends): no pointers in,
		// no pointer out, so no memory the protocol could observe.
		if _, ok := v.Type().(ir.PointerType); ok {
			return false
		}
		for _, a := range v.Args {
			if _, ok := a.Type().(ir.PointerType); ok {
				return false
			}
		}
		return true
	default:
		return false
	}
}

// isMessage reports whether name is a runtime intrinsic that exchanges
// a message.
func isMessage(name string) bool {
	switch name {
	case partition.IntrSpawn, partition.IntrSend, partition.IntrSendV,
		partition.IntrWait, partition.IntrWaitV, partition.IntrJoin, partition.IntrElem:
		return true
	}
	return false
}

func isIntr(c *ir.Call, name string) bool {
	fn, ok := c.Callee.(*ir.Function)
	return ok && fn.FName == name
}

func hasUses(fn *ir.Function, in ir.Instr) bool {
	v, ok := in.(ir.Value)
	if !ok {
		return false
	}
	used := false
	fn.Instrs(func(_ *ir.Block, x ir.Instr) {
		if x == in {
			return
		}
		for _, op := range x.Ops() {
			if *op == v {
				used = true
			}
		}
	})
	return used
}

func zeroValue(t ir.Type) ir.Value {
	switch tt := t.(type) {
	case ir.IntType:
		return ir.NewConstInt(tt, 0)
	case ir.PointerType:
		return &ir.Null{Typ: tt}
	case ir.FloatType:
		return &ir.ConstFloat{Typ: tt, V: 0}
	default:
		return ir.I64Const(0)
	}
}

func sameColors(a, b []ir.Color) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
