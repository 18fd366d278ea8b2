package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// EventKind discriminates structured trace events. The names rendered by
// String (and listed in OBSERVABILITY.md's trace-event table) are the
// export vocabulary: Chrome trace names, flight-recorder lines and the
// Counts map all use them.
type EventKind uint8

// Event kinds, one per runtime decision worth replaying after a failure.
// EvSpawn/EvSpawnEnd bracket a chunk execution (exported as Chrome B/E
// pairs, so chunks render as spans); everything else is an instant.
const (
	evNone EventKind = iota
	EvSpawn
	EvSpawnEnd
	EvSend
	EvWait
	EvJoin
	EvAbort
	EvTimeout
	EvRejectForged
	EvRejectPayload
	EvRejectContTag
	EvDropStale
	EvDropDuplicate
	EvParkReorder
	EvReplayCachedCont
	EvReplayCachedDone
	EvSuppressSpawn
	EvSuppressCont
	EvReplaySpawn
	EvGiveUp
	EvRouteRetry
	EvRouteShed
	EvFailover
	EvReadmit
	EvProbeDown
	EvProbeUp
	EvShardKill
	EvShardRespawn
	EvDemote
	EvPromote
	EvBreakerOpen
	EvBreakerClose
	EvHedge
	EvHedgeWin
	EvCorruptReject
	EvReplHint
	EvReplDrain
	EvReplOverflow
	EvReplSyncStart
	EvReplSyncDone
	EvReplRepair
	EvReplFallback
	EvReplTombstone
	EvReplStampClamp
	EvReplPurge
	EvVecSend
	EvVecWait
	EvFusedCall
	EvDivergence
	nEventKinds
)

// kindNames maps kinds to their catalogue names (see OBSERVABILITY.md;
// the docmetric analyzer cross-checks this literal against the doc).
var kindNames = [nEventKinds]string{
	EvSpawn:            "spawn",
	EvSpawnEnd:         "spawn.end",
	EvSend:             "send",
	EvWait:             "wait",
	EvJoin:             "join",
	EvAbort:            "abort",
	EvTimeout:          "timeout",
	EvRejectForged:     "reject.forged",
	EvRejectPayload:    "reject.payload",
	EvRejectContTag:    "reject.cont_tag",
	EvDropStale:        "drop.stale",
	EvDropDuplicate:    "drop.duplicate",
	EvParkReorder:      "park.reorder",
	EvReplayCachedCont: "replay.cached_cont",
	EvReplayCachedDone: "replay.cached_done",
	EvSuppressSpawn:    "suppress.spawn",
	EvSuppressCont:     "suppress.cont",
	EvReplaySpawn:      "replay.spawn",
	EvGiveUp:           "replay.giveup",
	EvRouteRetry:       "route.retry",
	EvRouteShed:        "route.shed",
	EvFailover:         "failover",
	EvReadmit:          "readmit",
	EvProbeDown:        "probe.down",
	EvProbeUp:          "probe.up",
	EvShardKill:        "shard.kill",
	EvShardRespawn:     "shard.respawn",
	EvDemote:           "health.demote",
	EvPromote:          "health.promote",
	EvBreakerOpen:      "breaker.open",
	EvBreakerClose:     "breaker.close",
	EvHedge:            "hedge",
	EvHedgeWin:         "hedge.win",
	EvCorruptReject:    "corrupt.reject",
	EvReplHint:         "repl.hint",
	EvReplDrain:        "repl.drain",
	EvReplOverflow:     "repl.overflow",
	EvReplSyncStart:    "repl.sync.start",
	EvReplSyncDone:     "repl.sync.done",
	EvReplRepair:       "repl.repair",
	EvReplFallback:     "repl.fallback",
	EvReplTombstone:    "repl.tombstone",
	EvReplStampClamp:   "repl.stamp_clamp",
	EvReplPurge:        "repl.purge",
	EvVecSend:          "cross.sendv",
	EvVecWait:          "cross.waitv",
	EvFusedCall:        "cross.fused_call",
	EvDivergence:       "exec.divergence",
}

func (k EventKind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("event(%d)", int(k))
}

// Event is one fixed-size trace record. Arg is kind-specific (documented
// per kind in OBSERVABILITY.md): a stream sequence number for transport
// events, the pending completion count for joins, the message kind for
// rejects.
type Event struct {
	Seq    uint64 // 1-based position within the recording shard's history
	TS     int64  // UnixNano; batched kinds may reuse a recent read (see tsBatch)
	Epoch  uint64
	Arg    int64
	Worker int32
	Chunk  int32
	Tag    int32
	Kind   EventKind
}

// traceShards is the number of independent ring buffers; writers pick one
// by worker index, so workers of different colors never contend on a
// shard lock. Must be a power of two.
const traceShards = 16

// DefaultTraceBuffer is the per-shard ring capacity used when a caller
// asks for a tracer without sizing it. Deliberately modest: a shard ring
// is a streaming write target, so its footprint (capacity x 48 bytes)
// competes with the workload for cache; 1024 events comfortably covers
// flight records and recent-window exports. Soak captures that need the
// whole history should size the tracer explicitly.
const DefaultTraceBuffer = 1024

// tsBatch bounds timestamp staleness for batched event kinds: within a
// shard, at most tsBatch-1 consecutive batched events reuse the last
// sampled wall clock before Record reads it again. Reading the clock is
// the single most expensive part of recording an event (~2/3 of the
// cost), and the high-volume transport instants don't need independent
// wall times — Seq already gives their exact order.
const tsBatch = 32

// tsBatched marks the kinds whose timestamps may be batched: the
// high-volume transport instants. Span boundaries (spawn/spawn.end) need
// real durations and failure events need real wall times for flight
// records, so everything else always samples fresh — those kinds are
// rare, so the fresh read costs nothing in aggregate.
var tsBatched = [nEventKinds]bool{
	EvSend: true,
	EvWait: true,
	EvJoin: true,
}

// traceShard is one ring: a mutex-guarded fixed buffer plus a write
// cursor that only ever grows (cursor mod capacity is the slot). Event
// counts and the timestamp-batching state live under the same lock the
// writer already holds, so they cost no extra atomics on the hot path.
type traceShard struct {
	mu     sync.Mutex
	buf    []Event
	pos    uint64
	lastTS int64
	tsLeft int
	counts [nEventKinds]int64
}

// Tracer is the structured flight recorder. All methods are safe on a nil
// receiver (no-ops), which is the disabled fast path. There is no global
// state on the record path — no shared sequence counter, no shared
// atomics — so workers never contend with each other: everything an event
// needs lives in its shard, under the shard lock.
type Tracer struct {
	shards [traceShards]traceShard
	mask   uint64
}

// NewTracer creates a tracer with the given per-shard ring capacity
// (rounded up to a power of two; <= 0 selects DefaultTraceBuffer).
func NewTracer(perShard int) *Tracer {
	if perShard <= 0 {
		perShard = DefaultTraceBuffer
	}
	capPow := 1
	for capPow < perShard {
		capPow <<= 1
	}
	t := &Tracer{mask: uint64(capPow - 1)}
	for i := range t.shards {
		t.shards[i].buf = make([]Event, capPow)
	}
	return t
}

// Record appends one event. The shard is picked by worker index, so the
// per-worker hot path takes an uncontended lock. Exports recover a global
// order from timestamps (ties broken by worker, then shard position);
// within a shard the order is exact. Timestamps of batched kinds (see
// tsBatched) may be stale by up to tsBatch-1 events within the shard.
func (t *Tracer) Record(kind EventKind, worker, chunk, tag int, epoch uint64, arg int64) {
	t.record(0, worker, kind, worker, chunk, tag, epoch, arg)
}

// RecordAt is Record with a caller-supplied wall clock (UnixNano): sites
// that already read the clock for other instrumentation — chunk latency
// histograms bracket the same execution the spawn span does — share the
// read instead of paying for a second one.
func (t *Tracer) RecordAt(ts int64, kind EventKind, worker, chunk, tag int, epoch uint64, arg int64) {
	t.record(ts, worker, kind, worker, chunk, tag, epoch, arg)
}

// RecordOn is Record with an explicit shard choice, for events observed
// on one worker's goroutine about another worker: a message send is
// recorded by the sender but describes the receiver. Sharding by the
// recording goroutine keeps the lock uncontended.
func (t *Tracer) RecordOn(shard int, kind EventKind, worker, chunk, tag int, epoch uint64, arg int64) {
	t.record(0, shard, kind, worker, chunk, tag, epoch, arg)
}

func (t *Tracer) record(ts int64, shard int, kind EventKind, worker, chunk, tag int, epoch uint64, arg int64) {
	if t == nil {
		return
	}
	sh := &t.shards[uint(shard)%traceShards]
	sh.mu.Lock()
	if ts == 0 {
		if tsBatched[kind] && sh.tsLeft > 0 {
			sh.tsLeft--
			ts = sh.lastTS
		} else {
			ts = time.Now().UnixNano()
			sh.lastTS = ts
			sh.tsLeft = tsBatch - 1
		}
	} else {
		// A caller-supplied clock is as fresh as one we'd read ourselves;
		// let it open a new batch window.
		sh.lastTS = ts
		sh.tsLeft = tsBatch - 1
	}
	sh.counts[kind]++
	sh.buf[sh.pos&t.mask] = Event{
		Seq:    sh.pos + 1,
		TS:     ts,
		Epoch:  epoch,
		Arg:    arg,
		Worker: int32(worker),
		Chunk:  int32(chunk),
		Tag:    int32(tag),
		Kind:   kind,
	}
	sh.pos++
	sh.mu.Unlock()
}

// Events snapshots every event still resident in the rings, ordered by
// timestamp (ties broken by worker then shard position; the stable sort
// over the shard-ordered snapshot makes the result deterministic).
// Overwritten events are gone — use Counts for exact totals.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	var out []Event
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		n := sh.pos
		if n > t.mask+1 {
			n = t.mask + 1
		}
		first := sh.pos - n
		for p := first; p < sh.pos; p++ {
			out = append(out, sh.buf[p&t.mask])
		}
		sh.mu.Unlock()
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].TS != out[j].TS {
			return out[i].TS < out[j].TS
		}
		if out[i].Worker != out[j].Worker {
			return out[i].Worker < out[j].Worker
		}
		return out[i].Seq < out[j].Seq
	})
	return out
}

// Counts returns exact per-kind event totals (catalogue name -> count),
// independent of ring wraparound. This is the reconciliation surface: the
// nightly soak asserts these totals against the metrics registry.
func (t *Tracer) Counts() map[string]int64 {
	if t == nil {
		return nil
	}
	var totals [nEventKinds]int64
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		for k := range sh.counts {
			totals[k] += sh.counts[k]
		}
		sh.mu.Unlock()
	}
	out := make(map[string]int64, int(nEventKinds))
	for k := EventKind(1); k < nEventKinds; k++ {
		if totals[k] > 0 {
			out[k.String()] = totals[k]
		}
	}
	return out
}

// Recorded is the total number of events ever recorded.
func (t *Tracer) Recorded() int64 {
	if t == nil {
		return 0
	}
	var total int64
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		total += int64(sh.pos)
		sh.mu.Unlock()
	}
	return total
}

// Dropped is how many recorded events have been overwritten by ring
// wraparound and are no longer exportable.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	var dropped int64
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		if sh.pos > t.mask+1 {
			dropped += int64(sh.pos - (t.mask + 1))
		}
		sh.mu.Unlock()
	}
	return dropped
}

// Dump renders the last n resident events as a text flight record, one
// line per event, timestamps relative to the first dumped event. This is
// the string the runtime attaches to aborts and wait timeouts.
func (t *Tracer) Dump(n int) string {
	if t == nil {
		return ""
	}
	evs := t.Events()
	if len(evs) > n {
		evs = evs[len(evs)-n:]
	}
	if len(evs) == 0 {
		return ""
	}
	base := evs[0].TS
	var b strings.Builder
	fmt.Fprintf(&b, "flight record (last %d of %d events):\n", len(evs), t.Recorded())
	for _, ev := range evs {
		fmt.Fprintf(&b, "  +%8.1fus #%-6d w%-2d %-18s", float64(ev.TS-base)/1e3, ev.Seq, ev.Worker, ev.Kind)
		if ev.Chunk != 0 {
			fmt.Fprintf(&b, " chunk=%d", ev.Chunk)
		}
		if ev.Tag != 0 {
			fmt.Fprintf(&b, " tag=%d", ev.Tag)
		}
		fmt.Fprintf(&b, " epoch=%d", ev.Epoch)
		if ev.Arg != 0 {
			fmt.Fprintf(&b, " arg=%d", ev.Arg)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// chromeEvent is one trace_event record in the Chrome/Perfetto JSON
// format (the "JSON Array Format" with a traceEvents wrapper).
type chromeEvent struct {
	Name string           `json:"name"`
	Ph   string           `json:"ph"`
	TS   float64          `json:"ts"` // microseconds
	PID  int              `json:"pid"`
	TID  int32            `json:"tid"`
	S    string           `json:"s,omitempty"`
	Args map[string]int64 `json:"args,omitempty"`
}

// chromeTrace is the export envelope.
type chromeTrace struct {
	TraceEvents []chromeEvent `json:"traceEvents"`
}

// WriteChromeTrace exports the resident events as Chrome trace_event
// JSON: open the file in chrome://tracing or https://ui.perfetto.dev and
// each worker renders as a track (tid = color index), chunk executions as
// spans (spawn/spawn.end pairs), everything else as instants. With
// normalize set, wall-clock timestamps are replaced by the event's rank
// in the export — byte-for-byte deterministic for a deterministic
// schedule, which is what the golden-file test pins.
func (t *Tracer) WriteChromeTrace(w io.Writer, normalize bool) error {
	if t == nil {
		return fmt.Errorf("obs: no tracer armed")
	}
	evs := t.Events()
	out := chromeTrace{TraceEvents: make([]chromeEvent, 0, len(evs))}
	var base int64
	if len(evs) > 0 {
		base = evs[0].TS
	}
	for i, ev := range evs {
		ce := chromeEvent{
			Name: ev.Kind.String(),
			Ph:   "i",
			S:    "t",
			PID:  1,
			TID:  ev.Worker,
			TS:   float64(ev.TS-base) / 1e3,
		}
		if normalize {
			ce.TS = float64(i)
		}
		switch ev.Kind {
		case EvSpawn:
			ce.Ph, ce.S = "B", ""
			ce.Name = fmt.Sprintf("chunk %d", ev.Chunk)
		case EvSpawnEnd:
			ce.Ph, ce.S = "E", ""
			ce.Name = fmt.Sprintf("chunk %d", ev.Chunk)
		}
		args := map[string]int64{"seq": int64(ev.Seq), "epoch": int64(ev.Epoch)}
		if ev.Chunk != 0 {
			args["chunk"] = int64(ev.Chunk)
		}
		if ev.Tag != 0 {
			args["tag"] = int64(ev.Tag)
		}
		if ev.Arg != 0 {
			args["arg"] = ev.Arg
		}
		ce.Args = args
		out.TraceEvents = append(out.TraceEvents, ce)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(out)
}

// EventKindNames returns the catalogue names of every event kind, in kind
// order (the docmetric analyzer and OBSERVABILITY.md enumerate the same
// list).
func EventKindNames() []string {
	out := make([]string, 0, int(nEventKinds)-1)
	for k := EventKind(1); k < nEventKinds; k++ {
		out = append(out, kindNames[k])
	}
	return out
}
