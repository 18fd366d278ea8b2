package crossing

import (
	"fmt"
	"sort"
	"strings"

	"privagic/internal/ir"
	"privagic/internal/partition"
	"privagic/internal/sgx"
)

// EdgeKind classifies a message-bearing boundary edge.
type EdgeKind string

// Edge kinds. Spawn/Done bracket a chunk activation; Cont is a value
// transport; Waiter is the owner's result distribution to waiter chunks;
// Barrier covers both the token and ack legs of a visible-effect barrier;
// Split is the out-of-line allocation traffic of a split struct; ContVec
// is a vectored transport emitted by the optimizer; Sunk is a cont the
// optimizer sank out of a search loop, sent once per loop activation.
const (
	KindSpawn   EdgeKind = "spawn"
	KindDone    EdgeKind = "done"
	KindCont    EdgeKind = "cont"
	KindContVec EdgeKind = "contv"
	KindWaiter  EdgeKind = "waiter"
	KindBarrier EdgeKind = "barrier"
	KindSplit   EdgeKind = "split"
	KindSunk    EdgeKind = "sunk"
)

// EdgeKey identifies one static crossing edge: messages of one kind
// flowing from one chunk toward one destination under one tag.
type EdgeKey struct {
	From string // producing chunk (or "interface" for entry spawns)
	To   string // destination chunk or color
	Kind EdgeKind
	Tag  int // 0 for spawn/done/split
	// DstChunk is the spawned chunk's id for spawn/done edges (-1
	// otherwise): the hook the measured column uses to match trace
	// events.
	DstChunk int
	// Depth is the loop nesting depth of the producing site in its own
	// chunk body (0 = straight line).
	Depth int
}

// Edge is one priced crossing edge of a report.
type Edge struct {
	EdgeKey
	// PerOp is the predicted number of messages per operation (one
	// entry call divided by the entry's OpsPerCall).
	PerOp float64
	// CyclesPerOp prices PerOp against the cost model's queue hop.
	CyclesPerOp float64
}

// Report is the per-entry crossing-cost prediction.
type Report struct {
	Entry string
	// OpsPerCall normalizes one entry invocation to workload
	// operations: the trip count of the entry's outermost counted loop
	// (1 when there is none).
	OpsPerCall float64
	Edges      []Edge
	// PerChunk sums PerOp by producing chunk.
	PerChunk map[string]float64
	// TotalPerOp is the predicted crossings/op; TotalCyclesPerOp prices
	// it.
	TotalPerOp       float64
	TotalCyclesPerOp float64
	// Recursive notes that a call cycle was truncated (its repetitions
	// beyond the first are not modeled).
	Recursive bool
}

// Analyzer computes crossing reports over a partitioned program.
type Analyzer struct {
	pp    *partition.Program
	est   Estimator
	model sgx.CostModel

	fnChunk map[*ir.Function]*partition.Chunk
	tagKind map[int]EdgeKind
	sunk    map[int]*partition.SunkCont
	memo    map[*partition.Chunk]map[EdgeKey]float64
	onStack map[*partition.Chunk]bool
	cut     bool
}

// NewAnalyzer builds an analyzer over pp with the given heuristics and
// cost model.
func NewAnalyzer(pp *partition.Program, est Estimator, model sgx.CostModel) *Analyzer {
	a := &Analyzer{
		pp:      pp,
		est:     est,
		model:   model,
		fnChunk: map[*ir.Function]*partition.Chunk{},
		tagKind: map[int]EdgeKind{},
		sunk:    map[int]*partition.SunkCont{},
		memo:    map[*partition.Chunk]map[EdgeKey]float64{},
		onStack: map[*partition.Chunk]bool{},
	}
	for _, ch := range pp.ChunkByID {
		a.fnChunk[ch.Fn] = ch
	}
	for _, pf := range pp.Funcs {
		for _, tr := range pp.Transports(pf) {
			a.tagKind[tr.Tag] = KindCont
		}
		for _, tag := range pp.BarrierTags(pf) {
			a.tagKind[tag] = KindBarrier
		}
		for tag, sc := range pf.Sunk {
			a.tagKind[tag] = KindSunk
			a.sunk[tag] = sc
		}
	}
	for _, plan := range pp.Plans {
		if plan.Tag != 0 {
			a.tagKind[plan.Tag] = KindWaiter
		}
	}
	return a
}

// Analyze predicts the crossing cost of every entry point.
func Analyze(pp *partition.Program, est Estimator, model sgx.CostModel) map[string]*Report {
	a := NewAnalyzer(pp, est, model)
	out := map[string]*Report{}
	for name, pf := range pp.Entries {
		out[name] = a.Entry(name, pf)
	}
	return out
}

// Entry predicts the crossing cost of one entry point.
func (a *Analyzer) Entry(name string, pf *partition.PartFunc) *Report {
	a.cut = false
	acc := map[EdgeKey]float64{}
	// The interface wrapper spawns every enclave chunk of the entry and
	// runs the U chunk inline (§7.3.4); each spawn is answered by a done.
	if pf.Interface != nil {
		for _, c := range pf.Interface.Spawns {
			ch := pf.Chunks[c]
			if ch == nil {
				continue
			}
			acc[EdgeKey{From: "interface", To: ch.Name(), Kind: KindSpawn, DstChunk: ch.ID}] += 1
			acc[EdgeKey{From: ch.Name(), To: "interface", Kind: KindDone, DstChunk: ch.ID}] += 1
			a.fold(acc, ch, 1)
		}
	}
	if uch := pf.Chunks[ir.U]; uch != nil {
		a.fold(acc, uch, 1)
	}

	rep := &Report{
		Entry:      name,
		OpsPerCall: a.opsPerCall(pf),
		PerChunk:   map[string]float64{},
		Recursive:  a.cut,
	}
	for k, n := range acc {
		perOp := n / rep.OpsPerCall
		rep.Edges = append(rep.Edges, Edge{
			EdgeKey:     k,
			PerOp:       perOp,
			CyclesPerOp: perOp * float64(a.model.QueueMessage),
		})
		rep.PerChunk[k.From] += perOp
		rep.TotalPerOp += perOp
	}
	rep.TotalCyclesPerOp = rep.TotalPerOp * float64(a.model.QueueMessage)
	sort.Slice(rep.Edges, func(i, j int) bool {
		ei, ej := rep.Edges[i], rep.Edges[j]
		if ei.PerOp != ej.PerOp {
			return ei.PerOp > ej.PerOp
		}
		if ei.From != ej.From {
			return ei.From < ej.From
		}
		if ei.Kind != ej.Kind {
			return ei.Kind < ej.Kind
		}
		if ei.Tag != ej.Tag {
			return ei.Tag < ej.Tag
		}
		if ei.To != ej.To {
			return ei.To < ej.To
		}
		return ei.DstChunk < ej.DstChunk
	})
	return rep
}

// fold adds scale executions' worth of ch's message traffic (including
// everything it transitively spawns or calls) into acc.
func (a *Analyzer) fold(acc map[EdgeKey]float64, ch *partition.Chunk, scale float64) {
	for k, n := range a.chunkEdges(ch) {
		acc[k] += n * scale
	}
}

// chunkEdges computes the per-invocation crossing traffic of one chunk
// body, memoized. Call cycles are truncated at their first repetition.
func (a *Analyzer) chunkEdges(ch *partition.Chunk) map[EdgeKey]float64 {
	if m := a.memo[ch]; m != nil {
		return m
	}
	if a.onStack[ch] {
		a.cut = true
		return nil
	}
	a.onStack[ch] = true
	defer delete(a.onStack, ch)

	acc := map[EdgeKey]float64{}
	fn := ch.Fn
	fn.ComputeCFG()
	fr := EstimateFreq(fn, a.est)

	for _, b := range fn.Blocks {
		f := fr.Block[b]
		if f == 0 {
			continue
		}
		depth := fr.Loops.Depth(b)
		for _, in := range b.Instrs {
			switch v := in.(type) {
			case *ir.Call:
				a.callEdges(acc, ch, v, f, depth)
			case *ir.Malloc:
				a.splitEdges(acc, ch, v, f, depth)
			}
		}
	}
	// A sunk cont leaves once per activation of its loop, whichever exit
	// sends it.
	for _, sc := range a.sunk {
		if sc.Producer != ch {
			continue
		}
		l := fr.Loops.ByHeader[sc.Header]
		if l == nil {
			continue
		}
		for _, c := range sc.Consumers {
			acc[EdgeKey{From: ch.Name(), To: c.String(), Kind: KindSunk, Tag: sc.Tag, DstChunk: a.pp.ColorIndex(c), Depth: l.Depth - 1}] += fr.Activations[l]
		}
	}
	a.memo[ch] = acc
	return acc
}

// callEdges prices one call site: intrinsics carry messages themselves;
// direct calls into other chunks fold the callee's traffic.
func (a *Analyzer) callEdges(acc map[EdgeKey]float64, ch *partition.Chunk, c *ir.Call, f float64, depth int) {
	fn, ok := c.Callee.(*ir.Function)
	if !ok {
		return
	}
	switch fn.FName {
	case partition.IntrSpawn:
		id, ok := constArg(c, 0)
		if !ok || int(id) >= len(a.pp.ChunkByID) {
			return
		}
		tc := a.pp.ChunkByID[id]
		acc[EdgeKey{From: ch.Name(), To: tc.Name(), Kind: KindSpawn, DstChunk: tc.ID, Depth: depth}] += f
		acc[EdgeKey{From: tc.Name(), To: ch.Name(), Kind: KindDone, DstChunk: tc.ID, Depth: depth}] += f
		a.fold(acc, tc, f)
	case partition.IntrSend, partition.IntrSendV:
		dstIdx, ok1 := constArg(c, 0)
		tag, ok2 := constArg(c, 1)
		if !ok1 || !ok2 {
			return
		}
		kind := a.tagKind[int(tag)]
		if kind == KindSunk {
			return // priced per loop activation in chunkEdges
		}
		if kind == "" {
			kind = KindCont
		}
		if fn.FName == partition.IntrSendV {
			kind = KindContVec
		}
		dst := "U"
		if d := a.pp.ColorAt(int(dstIdx)); !d.IsUntrusted() {
			dst = d.String()
		}
		// DstChunk doubles as the destination color index for tagged
		// traffic: it is what the tracer can attribute a send to.
		acc[EdgeKey{From: ch.Name(), To: dst, Kind: kind, Tag: int(tag), DstChunk: int(dstIdx), Depth: depth}] += f
	case partition.IntrWait, partition.IntrWaitV, partition.IntrJoin, partition.IntrElem:
		// Receive side: the send is priced at the producer.
	default:
		if tc := a.fnChunk[fn]; tc != nil {
			a.fold(acc, tc, f)
		}
	}
}

// splitEdges prices the out-of-line allocations of a split-struct malloc:
// two messages per colored field per element (§7.2: the allocation request
// and the returned enclave pointer).
func (a *Analyzer) splitEdges(acc map[EdgeKey]float64, ch *partition.Chunk, m *ir.Malloc, f float64, depth int) {
	st, ok := m.Elem.(*ir.StructType)
	if !ok {
		return
	}
	split := a.pp.Splits[st.Name]
	if split == nil {
		return
	}
	elems := 1.0
	if cnt, ok := m.Count.(*ir.ConstInt); ok {
		elems = float64(cnt.V)
	}
	n := f * elems * 2 * float64(len(split.FieldColors))
	acc[EdgeKey{From: ch.Name(), To: "enclaves", Kind: KindSplit, DstChunk: -1, Depth: depth}] += n
}

// opsPerCall is the trip count of the entry's outermost counted loop: the
// workload-loop normalizer that turns per-call totals into per-op rates.
// The maximum across the entry's chunks is used (clones agree on the
// counted loop; barriers can split blocks differently).
func (a *Analyzer) opsPerCall(pf *partition.PartFunc) float64 {
	ops := 1.0
	for _, ch := range pf.Chunks {
		ch.Fn.ComputeCFG()
		li := AnalyzeLoops(ch.Fn)
		for _, l := range li.Loops {
			if l.Depth == 1 && l.KnownTrip && l.Trip > ops {
				ops = l.Trip
			}
		}
	}
	return ops
}

func constArg(c *ir.Call, i int) (int64, bool) {
	if i >= len(c.Args) {
		return 0, false
	}
	ci, ok := c.Args[i].(*ir.ConstInt)
	if !ok {
		return 0, false
	}
	return ci.V, true
}

// Table renders the report as the aligned text table privagic-explain
// prints. measured maps an edge to its tracer-measured messages/op;
// pass nil for the static-only view (golden files).
func (r *Report) Table(measured map[EdgeKey]float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "entry %s: predicted %.3f crossings/op (%.0f cycles/op, %g ops/call)\n",
		r.Entry, r.TotalPerOp, r.TotalCyclesPerOp, r.OpsPerCall)
	if r.Recursive {
		b.WriteString("  (call cycle truncated: recursion beyond the first activation is not modeled)\n")
	}
	fmt.Fprintf(&b, "  %-28s %-22s %-8s %3s %5s %12s", "from", "to", "kind", "tag", "depth", "static/op")
	if measured != nil {
		fmt.Fprintf(&b, " %12s %8s", "measured/op", "dev")
	}
	b.WriteString("\n")
	// Several static edges can share one tracer key (two siblings acking
	// the same barrier tag to the same destination): the measured total is
	// distributed over them proportionally to their static weights, so
	// per-row deviations stay meaningful and the column still sums to the
	// traced total.
	groupStatic := map[EdgeKey]float64{}
	for _, e := range r.Edges {
		groupStatic[e.measuredKey()] += e.PerOp
	}
	for _, e := range r.Edges {
		tag := "-"
		if e.Tag != 0 {
			tag = fmt.Sprintf("%d", e.Tag)
		}
		fmt.Fprintf(&b, "  %-28s %-22s %-8s %3s %5d %12.3f", e.From, e.To, e.Kind, tag, e.Depth, e.PerOp)
		if measured != nil {
			if m, ok := measured[e.measuredKey()]; ok {
				if g := groupStatic[e.measuredKey()]; g > 0 {
					m *= e.PerOp / g
				}
				dev := "-"
				if m > 0 {
					dev = fmt.Sprintf("%+.1f%%", 100*(e.PerOp-m)/m)
				}
				fmt.Fprintf(&b, " %12.3f %8s", m, dev)
			} else {
				fmt.Fprintf(&b, " %12s %8s", "n/a", "-")
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}

// measuredKey collapses an edge to what the tracer can distinguish:
// tagged cont traffic by (tag, destination color); spawn/done activations
// by target chunk.
func (e *Edge) measuredKey() EdgeKey {
	switch e.Kind {
	case KindSpawn, KindDone:
		return EdgeKey{Kind: e.Kind, DstChunk: e.DstChunk}
	case KindSplit:
		return EdgeKey{Kind: KindSplit, DstChunk: -1}
	default:
		return EdgeKey{Kind: KindCont, Tag: e.Tag, DstChunk: e.DstChunk}
	}
}

// MeasuredEdges aggregates a trace-event stream into the measured-side map
// Table consumes: EvSend events with a tag are cont messages (of whatever
// kind the tag had statically), attributed by (tag, receiving color);
// untagged EvSend events are spawn/done pairs attributed to their chunk,
// split evenly (the runtime answers every spawn with exactly one done).
func MeasuredEdges(sends []TraceSend, ops float64) map[EdgeKey]float64 {
	out := map[EdgeKey]float64{}
	for _, s := range sends {
		if s.Tag > 0 {
			out[EdgeKey{Kind: KindCont, Tag: s.Tag, DstChunk: s.Dst}] += 1 / ops
		} else {
			out[EdgeKey{Kind: KindSpawn, DstChunk: s.Chunk}] += 0.5 / ops
			out[EdgeKey{Kind: KindDone, DstChunk: s.Chunk}] += 0.5 / ops
		}
	}
	return out
}

// TraceSend is the slice of a trace event the measured column needs
// (decoupled from internal/obs so the analyzer stays import-light): the
// message's chunk id (spawn/done), its cont tag, and the receiving
// worker's color index.
type TraceSend struct {
	Chunk int
	Tag   int
	Dst   int
}
