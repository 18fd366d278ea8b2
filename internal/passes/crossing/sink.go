package crossing

import (
	"fmt"
	"sort"

	"privagic/internal/ir"
	"privagic/internal/partition"
)

// ---------------------------------------------------------------------------
// Pass 4: sinking loop conts.
//
// In a revealed search loop (`while (n) { if (reveal(n->key == k)) ...;
// n = n->next; }`) the enclave that owns the key sends the revealed
// compare to every sibling once per node, and each sibling walks the
// chain in lockstep, waiting at every node. The loop's exit test is
// replicated in every chunk, so the producer can instead send one cont
// when its loop exits: k, the 1-based iteration at which the exit compare
// left the loop, or 0 when the loop left another way. Each consumer
// receives k at its old wait site on the first iteration, runs the rest
// of its pure loop with no further wait, and exits when its own iteration
// count reaches k. An activation that never reaches the send site sends
// nothing, and its consumers never reach their wait.

// SunkLoop is one transport sunk out of a search loop.
type SunkLoop struct {
	Fn        string
	Producer  string
	Tag       int // the per-iteration transport tag it replaced
	NewTag    int // the sunk cont's tag
	Consumers int
}

// sinkPass sinks every legal loop transport, in tag order.
func (o *optimizer) sinkPass() {
	for _, pf := range o.sortedPFs() {
		tags := make([]int, 0, len(o.pp.Transports(pf)))
		for _, tr := range o.pp.Transports(pf) {
			tags = append(tags, tr.Tag)
		}
		sort.Ints(tags)
		for _, tag := range tags {
			o.sinkTransport(pf, tag)
		}
	}
}

// exitTest is one chunk's copy of a search loop's exit test: block b of
// loop l ends in `condbr (cmp pred x, C)`, and exactly one successor
// leaves l. x is the transported value (the sent payload on the producer
// side, the waited value on a consumer).
type exitTest struct {
	li   *LoopInfo
	l    *Loop
	b    *ir.Block
	cmp  *ir.Cmp
	br   *ir.CondBr
	pred ir.CmpPred
	c    int64
	// xLeft: x is the compare's left operand; exitThen: the loop leaves
	// on the branch's Then side.
	xLeft, exitThen bool
}

// same reports whether two chunks' exit tests leave their loops on the
// same values of x.
func (e *exitTest) same(f *exitTest) bool {
	return e.pred == f.pred && e.c == f.c && e.xLeft == f.xLeft && e.exitThen == f.exitThen
}

// findExitTest matches the exit test around value x in block b. x may be
// used only by the compare and by the instructions in also (the
// producer's sends). It returns a nil test and no reason when b is not
// inside a loop at all.
func findExitTest(fn *ir.Function, b *ir.Block, x ir.Value, also map[ir.Instr]bool) (*exitTest, string) {
	fn.ComputeCFG()
	li := AnalyzeLoops(fn)
	l := li.Innermost[b]
	if l == nil {
		return nil, ""
	}
	for _, latch := range l.Latch {
		if !li.dom.Dominates(b, latch) {
			return nil, fmt.Sprintf("block %%%s does not run on every iteration of loop %%%s", b.BName, l.Header.BName)
		}
	}
	br, ok := b.Terminator().(*ir.CondBr)
	if !ok || !exitsLoop(l, br) {
		return nil, fmt.Sprintf("block %%%s does not end in the exit test of loop %%%s", b.BName, l.Header.BName)
	}
	cmp, ok := br.Cond.(*ir.Cmp)
	if !ok || cmp.Parent() != b {
		return nil, fmt.Sprintf("the exit test of loop %%%s does not compare in block %%%s", l.Header.BName, b.BName)
	}
	e := &exitTest{li: li, l: l, b: b, cmp: cmp, br: br, pred: cmp.Pred, exitThen: !l.Blocks[br.Then]}
	var other ir.Value
	switch {
	case cmp.X == x:
		e.xLeft, other = true, cmp.Y
	case cmp.Y == x:
		other = cmp.X
	default:
		return nil, fmt.Sprintf("the exit test of loop %%%s does not compare %s", l.Header.BName, x.Name())
	}
	k, ok := other.(*ir.ConstInt)
	if !ok {
		return nil, fmt.Sprintf("the exit test of loop %%%s compares %s with a non-constant", l.Header.BName, x.Name())
	}
	e.c = k.V
	bad := ""
	fn.Instrs(func(_ *ir.Block, in ir.Instr) {
		if bad != "" {
			return
		}
		for _, op := range in.Ops() {
			switch {
			case *op == ir.Value(cmp) && in != ir.Instr(br):
				bad = fmt.Sprintf("the exit compare %s is used outside the loop's branch (%s)", cmp.Name(), in)
			case *op == x && in != ir.Instr(cmp) && !also[in]:
				bad = fmt.Sprintf("value %s is used outside the loop's exit compare (%s)", x.Name(), in)
			}
		}
	})
	if bad != "" {
		return nil, bad
	}
	return e, ""
}

// sinkTransport sinks one transport when its producer sends it from a
// replicated search loop and every side is legal; otherwise it records
// why not. Transports sent outside any loop are not candidates.
func (o *optimizer) sinkTransport(pf *partition.PartFunc, tag int) {
	sk, where, reason := o.matchSink(pf, tag)
	if sk != nil {
		where, reason = o.sinkBlocker(sk)
	}
	if reason != "" {
		o.reject("sink", where, reason)
		return
	}
	if sk != nil {
		o.applySink(pf, sk)
	}
}

// sinkSite is a transport in the shape the rewrite needs: its
// producer's sends and exit test, and each consumer's wait and exit
// test.
type sinkSite struct {
	tag    int
	prod   *partition.Chunk
	sends  []*ir.Call
	isSend map[ir.Instr]bool
	pt     *exitTest
	cons   []sinkConsumerSite
}

type sinkConsumerSite struct {
	ch   *partition.Chunk
	dst  int
	wait *ir.Call
	et   *exitTest
}

// matchSink matches the shape: every send of the tag in one block of
// one producer chunk, carrying one value that feeds only the sends and
// its loop's exit test; one wait per consumer, in its copy of that loop,
// feeding only the same exit test. It returns nil and an empty reason
// for a transport sent outside any loop, and a rejection (where,
// reason) for any other mismatch.
func (o *optimizer) matchSink(pf *partition.PartFunc, tag int) (*sinkSite, string, string) {
	sk := &sinkSite{tag: tag, isSend: map[ir.Instr]bool{}}
	for _, ch := range o.sortedChunks(pf) {
		for _, s := range tagCalls(ch.Fn, partition.IntrSend, 1, tag) {
			if sk.prod != nil && sk.prod != ch {
				return nil, "", "" // sent from two chunks: not this shape
			}
			sk.prod = ch
			sk.sends = append(sk.sends, s)
		}
	}
	if sk.prod == nil {
		return nil, "", ""
	}
	where := fmt.Sprintf("%s tag %d", sk.prod.Name(), tag)
	b := sk.sends[0].Parent()
	var val ir.Value
	for _, s := range sk.sends {
		if s.Parent() != b || len(s.Args) < 3 || (val != nil && s.Args[2] != val) {
			if inLoop(sk.prod.Fn, b) {
				return nil, where, "the tag's sends do not share one block and one payload"
			}
			return nil, "", ""
		}
		val = s.Args[2]
		sk.isSend[s] = true
	}
	pt, reason := findExitTest(sk.prod.Fn, b, val, sk.isSend)
	if pt == nil {
		return nil, where, reason
	}
	sk.pt = pt
	seenDst := map[int]bool{}
	for _, s := range sk.sends {
		dst, ok := constArg(s, 0)
		if !ok || seenDst[int(dst)] {
			continue
		}
		seenDst[int(dst)] = true
		cch := pf.Chunks[o.pp.ColorAt(int(dst))]
		if cch == nil {
			return nil, where, fmt.Sprintf("no consumer chunk for destination %d", dst)
		}
		waits := tagCalls(cch.Fn, partition.IntrWait, 0, tag)
		if len(waits) != 1 {
			return nil, cch.Name(), fmt.Sprintf("consumer waits for tag %d at %d sites; a sunk cont is received at exactly one", tag, len(waits))
		}
		w := waits[0]
		et, reason := findExitTest(cch.Fn, w.Parent(), w, nil)
		if et == nil {
			if reason == "" {
				reason = "the wait is not inside a loop"
			}
			return nil, cch.Name(), reason
		}
		if et.l.Header.BName != pt.l.Header.BName || !et.same(pt) {
			return nil, cch.Name(), fmt.Sprintf("consumer loop %%%s is not a replica of the producer's loop %%%s", et.l.Header.BName, pt.l.Header.BName)
		}
		sk.cons = append(sk.cons, sinkConsumerSite{ch: cch, dst: int(dst), wait: w, et: et})
	}
	return sk, "", ""
}

// sinkBlocker checks what the loop bodies do: the producer's loop may
// exchange no other message and write nothing another color reads, and
// must leave only where it can tell whether it sent; each consumer's
// loop may only load and compute. It returns where and why the sink is
// illegal, or an empty reason.
func (o *optimizer) sinkBlocker(sk *sinkSite) (string, string) {
	where := fmt.Sprintf("%s tag %d", sk.prod.Name(), sk.tag)
	if reason := o.producerLoopBlocker(sk.prod, sk.pt.l, sk.isSend); reason != "" {
		return where, reason
	}
	for _, x := range loopExits(sk.pt.l) {
		if x.from != sk.pt.b && x.from != sk.pt.l.Header && !sk.pt.li.dom.Dominates(sk.pt.b, x.from) {
			return where, fmt.Sprintf("loop %%%s exits from block %%%s, where the producer cannot tell whether it sent", sk.pt.l.Header.BName, x.from.BName)
		}
	}
	for _, c := range sk.cons {
		if reason := o.consumerLoopBlocker(c.et.l, c.wait); reason != "" {
			return c.ch.Name(), reason
		}
	}
	return "", ""
}

// applySink rewrites the producer and every consumer under a fresh tag
// and records the sunk cont's provenance.
func (o *optimizer) applySink(pf *partition.PartFunc, sk *sinkSite) {
	newTag := o.pp.AllocTag()
	dsts := make([]int, len(sk.cons))
	colors := make([]ir.Color, len(sk.cons))
	for i, c := range sk.cons {
		dsts[i] = c.dst
		colors[i] = c.ch.Color
	}
	o.sinkProducer(sk.prod, sk.pt, sk.sends, dsts, newTag)
	for _, c := range sk.cons {
		sinkConsumer(c.ch, c.et, c.wait, newTag)
	}
	if pf.Sunk == nil {
		pf.Sunk = map[int]*partition.SunkCont{}
	}
	pf.Sunk[newTag] = &partition.SunkCont{Tag: newTag, From: sk.tag, Producer: sk.prod, Header: sk.pt.l.Header, Consumers: colors}
	o.res.Sunk = append(o.res.Sunk, SunkLoop{Fn: pf.Spec.Key, Producer: sk.prod.Name(), Tag: sk.tag, NewTag: newTag, Consumers: len(sk.cons)})
}

// tagCalls returns fn's calls of the named intrinsic whose argument ai is
// the constant tag.
func tagCalls(fn *ir.Function, name string, ai, tag int) []*ir.Call {
	var out []*ir.Call
	fn.Instrs(func(_ *ir.Block, in ir.Instr) {
		if c, ok := in.(*ir.Call); ok && isIntr(c, name) {
			if t, tok := constArg(c, ai); tok && int(t) == tag {
				out = append(out, c)
			}
		}
	})
	return out
}

// inLoop reports whether b sits inside a loop of fn.
func inLoop(fn *ir.Function, b *ir.Block) bool {
	fn.ComputeCFG()
	return AnalyzeLoops(fn).Innermost[b] != nil
}

// producerLoopBlocker returns why the producer's loop cannot send once at
// its exit: another message inside it (its order against the moved send
// would change), or a write another color could read (the consumers now
// read only after the whole walk).
func (o *optimizer) producerLoopBlocker(prod *partition.Chunk, l *Loop, sends map[ir.Instr]bool) string {
	for _, b := range prod.Fn.Blocks {
		if !l.Blocks[b] {
			continue
		}
		for _, in := range b.Instrs {
			switch v := in.(type) {
			case *ir.Call:
				if sends[in] {
					continue
				}
				fn, direct := v.Callee.(*ir.Function)
				if !direct {
					return "loop makes an indirect call"
				}
				switch {
				case isMessage(fn.FName):
					return fmt.Sprintf("loop exchanges another message (%s)", fn.FName)
				case o.fnChunk[fn] != nil:
					return fmt.Sprintf("loop calls another chunk (%s)", fn.FName)
				}
				for _, a := range v.Args {
					if _, ok := a.Type().(ir.PointerType); ok {
						return fmt.Sprintf("loop passes a pointer to @%s, which may write memory another color reads", fn.FName)
					}
				}
			case *ir.Store:
				if pt, ok := v.Ptr.Type().(ir.PointerType); !ok || pt.Color != prod.Color {
					return fmt.Sprintf("loop stores through %s, memory another color can read", v.Ptr.Name())
				}
			case *ir.Free:
				return "loop frees memory"
			case *ir.Malloc:
				if st, ok := v.Elem.(*ir.StructType); ok && o.pp.Splits[st.Name] != nil {
					return fmt.Sprintf("loop allocates split struct %%%s", st.Name)
				}
			}
		}
	}
	return ""
}

// consumerLoopBlocker returns why a consumer's loop cannot run its walk
// late: it may only load and compute, because its loads now happen after
// the producer's whole walk.
func (o *optimizer) consumerLoopBlocker(l *Loop, wait *ir.Call) string {
	for _, b := range wait.Parent().Func.Blocks {
		if !l.Blocks[b] {
			continue
		}
		for _, in := range b.Instrs {
			switch v := in.(type) {
			case *ir.Call:
				if v == wait {
					continue
				}
				name := "<indirect>"
				if fn, ok := v.Callee.(*ir.Function); ok {
					name = fn.FName
				}
				return fmt.Sprintf("consumer loop calls @%s", name)
			case *ir.Store:
				return fmt.Sprintf("consumer loop stores through %s", v.Ptr.Name())
			case *ir.Free:
				return "consumer loop frees memory"
			case *ir.Malloc:
				if st, ok := v.Elem.(*ir.StructType); ok && o.pp.Splits[st.Name] != nil {
					return fmt.Sprintf("consumer loop allocates split struct %%%s", st.Name)
				}
			}
		}
	}
	return ""
}

// loopEdge is one edge leaving a loop.
type loopEdge struct{ from, to *ir.Block }

// loopExits lists l's exit edges in block order.
func loopExits(l *Loop) []loopEdge {
	var out []loopEdge
	for _, b := range l.Header.Func.Blocks {
		if !l.Blocks[b] {
			continue
		}
		seen := map[*ir.Block]bool{}
		for _, s := range b.Succs() {
			if !l.Blocks[s] && !seen[s] {
				seen[s] = true
				out = append(out, loopEdge{b, s})
			}
		}
	}
	return out
}

// sinkProducer rewrites the producer: a counter of completed iterations,
// no send inside the loop, and one send per destination on every exit
// edge — k on the exit compare's edge, 0 on the others, and on the
// header's fall-off edge only when the body ran at least once.
func (o *optimizer) sinkProducer(prod *partition.Chunk, et *exitTest, sends []*ir.Call, dsts []int, newTag int) {
	fn := prod.Fn
	exits := loopExits(et.l)
	i, next := addCounter(fn, et.l, et.b)
	for _, s := range sends {
		et.b.Splice(et.b.IndexOf(s))
	}
	intr := o.pp.Intrinsic(partition.IntrSend)
	emitSends := func(bl *ir.Builder, k ir.Value) {
		for _, d := range dsts {
			bl.Call(intr, ir.I64Const(int64(d)), ir.I64Const(int64(newTag)), k)
		}
	}
	pos := sends[0].InstrPos()
	cmpExit := exitSide(et.br, et.exitThen)
	for _, x := range exits {
		bl := &ir.Builder{Func: fn}
		bl.SetPos(pos)
		blk := fn.NewBlock("sunk.exit")
		retarget(x.from, x.to, blk)
		bl.At(blk)
		switch {
		case x.from == et.b && x.to == cmpExit:
			emitSends(bl, next)
			bl.Br(x.to)
		case x.from == et.l.Header && x.from != et.b:
			// Fell off the header: send only if the body ran.
			ran := fn.NewBlock("sunk.send")
			bl.CondBr(i, ran, x.to)
			bl.At(ran)
			emitSends(bl, ir.I64Const(0))
			bl.Br(x.to)
			addPhiEdge(x.to, blk, ran)
		default:
			emitSends(bl, ir.I64Const(0))
			bl.Br(x.to)
		}
	}
	fn.ComputeCFG()
}

// sinkConsumer rewrites one consumer to count down to the exit: a
// header phi r holds the iterations left (0 until k arrives), the wait
// runs only when r is 0, and the exit test becomes "r reaches 0 in this
// iteration", which fires on the k-th iteration. A k of 0 counts below
// zero and never fires, so the loop leaves through its other exits.
func sinkConsumer(ch *partition.Chunk, et *exitTest, wait *ir.Call, newTag int) {
	fn := ch.Fn
	r := ir.NewPhi(fn, ir.I64)
	k := ir.NewPhi(fn, ir.I64)
	bl := &ir.Builder{Func: fn}
	var left ir.Value
	insertBeforeTerm(et.b, bl, func() { left = bl.BinOp(ir.OpSub, k, ir.I64Const(1)) })
	for _, p := range et.l.Header.Preds() {
		v := ir.Value(ir.I64Const(0))
		if et.l.Blocks[p] {
			v = left
		}
		r.Edges = append(r.Edges, ir.PhiEdge{Pred: p, Val: v})
	}
	et.l.Header.PrependPhis([]*ir.Phi{r})

	// Split the wait's block: w keeps what precedes the wait and skips
	// it once k is known, the wait moves to its own block, and rest runs
	// what followed it.
	w := et.b
	at := w.IndexOf(wait)
	tail := w.Instrs[at+1:]
	w.Instrs = w.Instrs[:at]
	recv := fn.NewBlock("sunk.recv")
	rest := fn.NewBlock("sunk.rest")
	for _, in := range tail {
		rest.Append(in)
	}
	for _, s := range w.Succs() {
		renamePhiPred(s, w, rest)
	}
	bl.SetPos(wait.InstrPos())
	bl.At(w)
	bl.CondBr(r, rest, recv)
	wait.Args[0] = ir.I64Const(int64(newTag))
	recv.Append(wait)
	bl.At(recv)
	bl.Br(rest)
	k.Edges = []ir.PhiEdge{{Pred: recv, Val: wait}, {Pred: w, Val: r}}
	rest.PrependPhis([]*ir.Phi{k})

	// The branch stays in the loop while iterations are left.
	rest.Splice(rest.IndexOf(et.cmp))
	et.br.Cond = left
	if et.exitThen {
		et.br.Then, et.br.Else = et.br.Else, et.br.Then
	}
	fn.ComputeCFG()
}

// addCounter adds the iteration counter to loop l: a header phi i (the
// completed iterations, 0 on entry) and next = i + 1 before the
// terminator of b, which runs once per iteration. The caller moves
// instructions out of b afterwards only by splitting at a point before
// the increment.
func addCounter(fn *ir.Function, l *Loop, b *ir.Block) (i, next ir.Value) {
	phi := ir.NewPhi(fn, ir.I64)
	l.Header.PrependPhis([]*ir.Phi{phi})
	bl := &ir.Builder{Func: fn}
	var inc ir.Value
	insertBeforeTerm(b, bl, func() { inc = bl.BinOp(ir.OpAdd, phi, ir.I64Const(1)) })
	for _, p := range l.Header.Preds() {
		v := ir.Value(ir.I64Const(0))
		if l.Blocks[p] {
			v = inc
		}
		phi.Edges = append(phi.Edges, ir.PhiEdge{Pred: p, Val: v})
	}
	return phi, inc
}

// insertBeforeTerm runs emit with bl positioned just before b's
// terminator.
func insertBeforeTerm(b *ir.Block, bl *ir.Builder, emit func()) {
	term := b.Instrs[len(b.Instrs)-1]
	b.Instrs = b.Instrs[:len(b.Instrs)-1]
	bl.At(b)
	emit()
	b.Append(term)
}

// exitSide returns the successor of br on the given side.
func exitSide(br *ir.CondBr, then bool) *ir.Block {
	if then {
		return br.Then
	}
	return br.Else
}

// retarget sends from's edge to `to` through via instead, and renames the
// edge in to's phis.
func retarget(from, to, via *ir.Block) {
	switch t := from.Terminator().(type) {
	case *ir.Br:
		t.Target = via
	case *ir.CondBr:
		if t.Then == to {
			t.Then = via
		}
		if t.Else == to {
			t.Else = via
		}
	}
	renamePhiPred(to, from, via)
}

// renamePhiPred rewrites b's phi edges from old to new.
func renamePhiPred(b, old, new *ir.Block) {
	for _, in := range b.Instrs {
		phi, ok := in.(*ir.Phi)
		if !ok {
			return
		}
		for j := range phi.Edges {
			if phi.Edges[j].Pred == old {
				phi.Edges[j].Pred = new
			}
		}
	}
}

// addPhiEdge gives b's phis an edge from extra carrying what they take
// from like.
func addPhiEdge(b, like, extra *ir.Block) {
	for _, in := range b.Instrs {
		phi, ok := in.(*ir.Phi)
		if !ok {
			return
		}
		for _, e := range phi.Edges {
			if e.Pred == like {
				phi.Edges = append(phi.Edges, ir.PhiEdge{Pred: extra, Val: e.Val})
				break
			}
		}
	}
}
