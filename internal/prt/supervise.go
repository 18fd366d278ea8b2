package prt

import (
	"sync"
	"sync/atomic"
	"time"

	"privagic/internal/obs"
)

// Supervision configures the runtime's fault-tolerance layer. The zero
// value disables everything, reproducing the paper's trusting runtime.
type Supervision struct {
	// WaitTimeout is the inactivity window of every Wait/Join/JoinOne: a
	// blocked worker gives up once the whole runtime has admitted no
	// authentic message for this long, returning a *TimeoutError instead
	// of hanging on a lost message. Admitted traffic on any worker
	// restarts the window (a long protocol that keeps making progress
	// never trips it); rejected forgeries do not. 0 = block forever.
	WaitTimeout time.Duration
	// Watchdog starts a per-runtime supervisor goroutine that observes
	// blocked workers and records which tag/join they are stuck on once
	// they exceed the deadline (diagnosing hangs the timeouts cannot
	// reach, e.g. blocking calls issued with WaitTimeout 0).
	Watchdog bool
	// WatchdogInterval is the sampling period (default 10ms).
	WatchdogInterval time.Duration
	// QueueCapacity bounds every worker queue created after it is set
	// (0 = unbounded, the paper's model). A full queue blocks the
	// producer inside rt.send — end-to-end backpressure instead of
	// unbounded growth; Runtime.Saturated exposes the pressure to
	// admission control upstream.
	QueueCapacity int
	// RestartStuck escalates a watchdog stall report on an enclave
	// worker into Thread.RestartWorker: tear down, fresh epoch, replay.
	// Requires Recovery to be enabled for the replay half to run.
	RestartStuck bool
}

// supCounters aggregates the hostile-message and failure counters of one
// runtime (the "alongside RejectedSpawns" surface of the robustness work).
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
	restarts          atomic.Int64
	redelivered       atomic.Int64
	backpressure      atomic.Int64
	payloadTampered   atomic.Int64

	stallMu sync.Mutex
	stalls  []Stall
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
	// Stalls counts watchdog reports (details via Runtime.Stalls).
	Stalls int64
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
	c.stallMu.Lock()
	nStalls := int64(len(c.stalls))
	c.stallMu.Unlock()
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
		Stalls:            nStalls,
		PayloadTampered:   c.payloadTampered.Load(),
	}
}

// Stall is one watchdog observation: a worker blocked past its deadline,
// with the wait point it is stuck on.
type Stall struct {
	Worker  int    // color index of the blocked worker
	Op      string // "wait", "join", "join-one"
	Tag     int    // cont tag (Op == "wait") or completions pending
	Blocked time.Duration
}

// Stalls returns the watchdog's reports so far.
func (rt *Runtime) Stalls() []Stall {
	rt.stats.stallMu.Lock()
	defer rt.stats.stallMu.Unlock()
	return append([]Stall(nil), rt.stats.stalls...)
}

// waitOp names the wait primitive a worker is blocked in.
type waitOp uint32

const (
	opWait waitOp = iota
	opJoin
	opJoinOne
)

// String is the op's name in Stall and TimeoutError reports.
func (o waitOp) String() string { return [...]string{"wait", "join", "join-one"}[o] }

// blockState is the wait point a worker publishes while blocked in a wait
// primitive, read by the watchdog and by timeout diagnostics on other
// goroutines. It is always on (not gated on the watchdog): timeout
// diagnostics read the wait points of sibling workers to name the pending
// tags in a TimeoutError. Only the worker's own goroutine writes it, as a
// sequence lock over atomics so that publishing allocates nothing: seq is
// odd while a wait point is published, and the fields change only while
// it is even.
type blockState struct {
	seq   atomic.Uint64
	op    atomic.Uint32
	tag   atomic.Int64
	since atomic.Int64 // UnixNano
	// reported is the seq of the last wait point the watchdog reported.
	reported atomic.Uint64
}

// blockInfo is one consistent read of a blockState.
type blockInfo struct {
	op    waitOp
	tag   int
	since time.Time
	seq   uint64
}

// publish replaces the published wait point (a nested wait inside a
// spawn run by an outer wait takes it over).
func (b *blockState) publish(op waitOp, tag int, since time.Time) {
	b.clear()
	b.op.Store(uint32(op))
	b.tag.Store(int64(tag))
	b.since.Store(since.UnixNano())
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
	bi = blockInfo{
		op:    waitOp(b.op.Load()),
		tag:   int(b.tag.Load()),
		since: time.Unix(0, b.since.Load()),
		seq:   seq,
	}
	return bi, b.seq.Load() == seq
}

// maybeStartWatchdog starts the supervisor goroutine once, if configured.
func (rt *Runtime) maybeStartWatchdog() {
	if !rt.Supervise.Watchdog {
		return
	}
	rt.watchdogOnce.Do(func() {
		rt.watchdogStop = make(chan struct{})
		go rt.watchdog()
	})
}

// watchdog samples every worker's published block state and records a
// stall the first time a block exceeds the deadline. It reports which
// tag/join the worker is stuck on — the diagnostic half of supervision
// (the timeout variants are the recovery half).
func (rt *Runtime) watchdog() {
	interval := rt.Supervise.WatchdogInterval
	if interval <= 0 {
		interval = 10 * time.Millisecond
	}
	threshold := rt.Supervise.WaitTimeout
	if threshold <= 0 {
		threshold = 4 * interval
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-rt.watchdogStop:
			return
		case <-ticker.C:
		}
		rt.mu.Lock()
		threads := append([]*Thread(nil), rt.threads...)
		rt.mu.Unlock()
		now := time.Now()
		for _, t := range threads {
			t.wmu.RLock()
			workers := append([]*Worker(nil), t.Workers...)
			t.wmu.RUnlock()
			for _, w := range workers {
				bi, ok := w.block.load()
				if !ok {
					continue
				}
				blocked := now.Sub(bi.since)
				if blocked < threshold || w.block.reported.Swap(bi.seq) == bi.seq {
					continue
				}
				rt.trace(obs.EvStall, w.Index, 0, bi.tag, t.epoch.Load(), blocked.Microseconds())
				rt.stats.stallMu.Lock()
				if len(rt.stats.stalls) < 1024 {
					rt.stats.stalls = append(rt.stats.stalls, Stall{
						Worker: w.Index, Op: bi.op.String(), Tag: bi.tag, Blocked: blocked,
					})
				}
				rt.stats.stallMu.Unlock()
				if rt.Supervise.RestartStuck && w.Index > 0 && !t.closed.Load() {
					// Escalate: a stuck enclave worker is torn down and
					// re-created, the epoch fences its stragglers, and
					// the journal replays its in-flight spawns.
					t.RestartWorker(w.Index)
				}
			}
		}
	}
}

// Saturated reports whether any bounded worker queue is at capacity —
// the signal admission control upstream (the memcached front-end) probes
// to start shedding load before producers block.
func (rt *Runtime) Saturated() bool {
	rt.mu.Lock()
	threads := append([]*Thread(nil), rt.threads...)
	rt.mu.Unlock()
	for _, t := range threads {
		t.wmu.RLock()
		workers := append([]*Worker(nil), t.Workers...)
		t.wmu.RUnlock()
		for _, w := range workers {
			if c := w.q.Capacity(); c > 0 && w.q.Depth() >= c {
				return true
			}
		}
	}
	return false
}

// Shutdown closes every thread the runtime created and stops the watchdog.
// Safe to call more than once.
func (rt *Runtime) Shutdown() {
	rt.mu.Lock()
	threads := append([]*Thread(nil), rt.threads...)
	rt.mu.Unlock()
	for _, t := range threads {
		t.Close()
	}
	rt.shutdownOnce.Do(func() {
		if rt.watchdogStop != nil {
			close(rt.watchdogStop)
		}
	})
}
