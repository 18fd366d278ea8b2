package prt

import "sync/atomic"

// supCounters aggregates the hostile-message and failure counters of one
// runtime, reported by SupervisionStats.
type supCounters struct {
	rejectedSpawns    atomic.Int64
	rejectedConts     atomic.Int64
	hostileSpawns     atomic.Int64
	hostileConts      atomic.Int64
	hostileOther      atomic.Int64
	droppedStale      atomic.Int64
	droppedDuplicates atomic.Int64
	aborts            atomic.Int64
	timeouts          atomic.Int64
	drained           atomic.Int64
	payloadTampered   atomic.Int64
}

// SupStats is a snapshot of the supervision counters.
type SupStats struct {
	// RejectedSpawns counts spawn messages the ValidateSpawn whitelist
	// refused; RejectedConts counts cont messages with unallocated tags.
	RejectedSpawns int64
	RejectedConts  int64
	// HostileSpawns/Conts/Other count forged messages (missing auth
	// stamp) rejected at the admit gate, by kind.
	HostileSpawns int64
	HostileConts  int64
	HostileOther  int64
	// DroppedStale counts stragglers of older epochs; DroppedDuplicates
	// counts replayed sequence numbers.
	DroppedStale      int64
	DroppedDuplicates int64
	// Aborts counts chunks that crashed and were converted into
	// poisoned completions; Timeouts counts waits that gave up;
	// Drained counts leftover messages discarded by Thread.Close.
	Aborts   int64
	Timeouts int64
	Drained  int64
	// PayloadTampered counts messages rejected at the admit gate because
	// their payload integrity tag no longer matched their contents — the
	// in-place queue mutations the auth stamp alone cannot see (requires
	// Runtime.PayloadTags).
	PayloadTampered int64
}

// HostileTotal is the total number of forged messages rejected.
func (s SupStats) HostileTotal() int64 { return s.HostileSpawns + s.HostileConts + s.HostileOther }

// SupervisionStats snapshots the runtime's robustness counters.
func (rt *Runtime) SupervisionStats() SupStats {
	c := &rt.stats
	return SupStats{
		RejectedSpawns:    c.rejectedSpawns.Load(),
		RejectedConts:     c.rejectedConts.Load(),
		HostileSpawns:     c.hostileSpawns.Load(),
		HostileConts:      c.hostileConts.Load(),
		HostileOther:      c.hostileOther.Load(),
		DroppedStale:      c.droppedStale.Load(),
		DroppedDuplicates: c.droppedDuplicates.Load(),
		Aborts:            c.aborts.Load(),
		Timeouts:          c.timeouts.Load(),
		Drained:           c.drained.Load(),
		PayloadTampered:   c.payloadTampered.Load(),
	}
}

// waitOp names the wait primitive a worker is blocked in.
type waitOp uint32

const (
	opWait waitOp = iota
	opJoin
	opJoinOne
)

// String is the op's name in TimeoutError reports.
func (o waitOp) String() string { return [...]string{"wait", "join", "join-one"}[o] }

// blockState is the wait point a worker publishes while blocked in a wait
// primitive, read by timeout diagnostics on other goroutines: a
// TimeoutError names the pending tags of sibling workers from it. Only
// the worker's own goroutine writes it, as a sequence lock over atomics
// so that publishing allocates nothing: seq is odd while a wait point is
// published, and the fields change only while it is even.
type blockState struct {
	seq atomic.Uint64
	op  atomic.Uint32
	tag atomic.Int64
}

// blockInfo is one consistent read of a blockState.
type blockInfo struct {
	op  waitOp
	tag int
}

// publish replaces the published wait point (a nested wait inside a
// spawn run by an outer wait takes it over).
func (b *blockState) publish(op waitOp, tag int) {
	b.clear()
	b.op.Store(uint32(op))
	b.tag.Store(int64(tag))
	b.seq.Add(1)
}

func (b *blockState) clear() {
	if b.seq.Load()&1 == 1 {
		b.seq.Add(1)
	}
}

// load reads the published wait point; ok is false when none is published
// or the worker republished mid-read.
func (b *blockState) load() (bi blockInfo, ok bool) {
	seq := b.seq.Load()
	if seq&1 == 0 {
		return bi, false
	}
	bi = blockInfo{op: waitOp(b.op.Load()), tag: int(b.tag.Load())}
	return bi, b.seq.Load() == seq
}

// Shutdown closes every thread the runtime created. Safe to call more
// than once.
func (rt *Runtime) Shutdown() {
	rt.mu.Lock()
	threads := append([]*Thread(nil), rt.threads...)
	rt.mu.Unlock()
	for _, t := range threads {
		t.Close()
	}
}
