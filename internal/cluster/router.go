package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"privagic/internal/memcached"
	"privagic/internal/obs"
	"privagic/internal/retry"
)

// Directory is the router's control plane: who the shards are, where the
// current incarnation of each one listens, and whether it is supposed to
// be alive. Cluster implements it in-process; the data plane stays real
// TCP. Addr must be safe for concurrent use.
type Directory interface {
	NumShards() int
	Addr(shard int) (addr string, epoch uint64, running bool)
}

// ErrNoShards is returned when every shard is fenced: the router degrades
// into fast explicit failure rather than stalling callers.
var ErrNoShards = errors.New("cluster: no shards available")

// ErrBreakerOpen is returned (after the retry budget) when the owning
// shard's circuit breaker is refusing requests: the data path has failed
// enough consecutive times that further attempts would only burn their
// full timeout against a known-bad wire. Explicit fast failure — the
// breaker half-opens after its cooldown and live traffic resumes once a
// trial succeeds.
var ErrBreakerOpen = errors.New("cluster: shard circuit breaker open")

// RouterConfig tunes the client router. Zero values take the documented
// defaults.
type RouterConfig struct {
	// PoolConns caps data connections per shard (default 4). Each open
	// connection pins one shard worker, so PoolConns plus the probe
	// connection must stay at or below Config.Workers.
	PoolConns int
	// OpTimeout bounds one attempt of one operation (default 50ms). A
	// fired deadline poisons the connection; the router redials.
	OpTimeout time.Duration
	// Retry is the per-operation retry budget with exponential backoff and
	// jitter (internal/retry). A zero policy defaults to 4 attempts with
	// the policy's standard 100µs-doubling-to-2ms backoff; set
	// MaxAttempts to 1 to disable retries.
	Retry retry.Policy
	// ProbeInterval is the per-shard health-probe period (default 25ms).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one probe round trip (default OpTimeout).
	ProbeTimeout time.Duration
	// ProbeFails is how many consecutive probe failures fence a shard
	// (default 3). Data-path errors never fence directly — they only
	// schedule an immediate probe — so op timeouts under load cannot
	// trigger spurious failovers.
	ProbeFails int
	// OnFence, when set, is called (outside router locks) after a shard is
	// fenced — the supervision hook: wire it to Cluster.RespawnAfter to
	// get automatic replacement shards.
	OnFence func(shard int, epoch uint64)
	// DisableProbes turns health probing off (unit tests that drive
	// fencing by hand).
	DisableProbes bool

	// Breaker tunes the per-shard circuit breaker over the data path.
	// Consecutive data-path failures (timeouts, transport errors,
	// protocol violations) trip it; busy responses count as successes —
	// a shedding shard is alive, so pure overload can never trip the
	// breaker. Defaults: 8 consecutive failures, cooldown 4×ProbeInterval,
	// one half-open trial.
	Breaker retry.BreakerConfig

	// SlowRTT is the latency-health threshold over each shard's EWMA of
	// data-path RTT (default OpTimeout/2). A shard whose EWMA stays above
	// it for demoteStrikes consecutive probe rounds is demoted out of the
	// ring — even while its version probes answer, which is exactly the
	// slow-but-alive gray failure fencing cannot see. A demoted shard
	// whose EWMA falls back below SlowRTT/4 (hysteresis) for
	// promoteStrikes rounds, with its breaker closed, is promoted back;
	// generation stamps make the round trip safe without invalidation.
	SlowRTT time.Duration

	// HedgeDelay controls hedged Gets: a Get whose primary attempt has
	// not answered after this long launches a second identical request
	// on a spare connection to the same shard, first answer wins, loser
	// canceled. 0 means adaptive — max(8× the shard's EWMA RTT,
	// OpTimeout/4), so hedges fire on genuine stalls, not on every
	// routine fluctuation. Negative disables hedging. Only Gets hedge:
	// they are idempotent, a duplicated Set or Delete is not harmless.
	// With Replication ≥ 2 the hedge targets the next replica instead
	// of duplicating against the primary (see hedge.go).
	HedgeDelay time.Duration

	// Replication is the replica-set size R per ring segment (DESIGN.md
	// §16): a primary plus R−1 successors. Writes go through to every
	// in-ring set member and acknowledge only when all stored; reads
	// fall back across the set. Default 2, clamped to the shard count
	// (and to 4, the fixed routing-array bound). 1 reproduces the
	// pre-replication fresh-or-miss behavior exactly.
	Replication int
	// HandoffLimit bounds each down shard's hinted-handoff queue
	// (default 1024 keys). Overflow is explicit backpressure: the
	// queue's hints are discarded (counted, never silent), the shard is
	// marked for a forced full sync at readmission, and writes keep
	// acknowledging off the live members — never a stall.
	HandoffLimit int
	// SyncHook, when set, is called after a shard's anti-entropy sync
	// completes but before it re-enters the ring — a test seam to hold
	// the readmission window open and observe pre-entry routing.
	SyncHook func(shard int)
}

// shardState is the router's view of one shard. Fields are guarded by
// Router.mu except kick and breaker (immutable pointers, internally
// synchronized) and rtt/dataDown (atomics sampled lock-free on the data
// path).
type shardState struct {
	addr      string
	epoch     uint64 // while fenced, the fenced one: only a newer epoch readmits
	pool      *connPool
	health    health    // see setHealthLocked
	fails     int       // consecutive probe failures
	downSince time.Time // first failure of the current streak
	wasDown   bool      // a probe.down was recorded without a probe.up yet
	kick      chan struct{}

	// Gray-failure inputs (DESIGN.md §15). slowStrikes / fastStrikes
	// count consecutive over/under-threshold probe-round evaluations;
	// slowSince anchors the demote-detection histogram.
	breaker     *retry.Breaker
	slowStrikes int
	fastStrikes int
	slowSince   time.Time

	// rtt is the EWMA of data-path RTT in µs (float bits; 0 = no samples
	// yet). Updated with a benign racy read-modify-write: losing a
	// concurrent sample shifts an estimate, never corrupts state.
	rtt atomic.Uint64
	// dataDown is the UnixNano of the first failure of the current
	// data-path failure streak (0 = healthy) — the detection-latency
	// anchor for breaker-driven demotions.
	dataDown atomic.Int64
}

// Router is the consistent-hashing client router: it owns the ring, a
// bounded connection pool per shard, and one prober goroutine per shard.
// Operations carry per-attempt deadlines and a bounded retry budget;
// failover is probe-driven (fence on ProbeFails consecutive failures) and
// readmission requires a fresh incarnation (directory epoch beyond the
// fenced one), so a hung shard that wakes up with stale state is never
// silently re-trusted. All methods are safe for concurrent use.
//
// Every Set stamps the value's flags word with the current ring
// generation; every Get rejects a hit whose stamp predates the owning
// segment's acquisition generation (see ring). One shared Router per
// generation space: clients that must agree on staleness must share the
// instance.
type Router struct {
	cfg RouterConfig
	dir Directory

	mu     sync.Mutex
	ring   *ring
	shards []*shardState

	stop   chan struct{}
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	routes        atomic.Int64
	retries       atomic.Int64
	sheds         atomic.Int64
	routeErrors   atomic.Int64
	staleRejects  atomic.Int64
	failovers     atomic.Int64
	adoptions     atomic.Int64
	readmits      atomic.Int64
	probes        atomic.Int64
	probeFailures atomic.Int64

	demotions       atomic.Int64
	promotions      atomic.Int64
	breakerTrips    atomic.Int64
	breakerFastfail atomic.Int64
	hedges          atomic.Int64
	hedgeWins       atomic.Int64
	corruptRejects  atomic.Int64

	// Replication counters (DESIGN.md §16).
	replicaWrites      atomic.Int64
	replicaWriteErrors atomic.Int64
	lwwRefused         atomic.Int64
	fallbackReads      atomic.Int64
	readRepairs        atomic.Int64
	repairConflicts    atomic.Int64
	tombstones         atomic.Int64
	hintsQueued        atomic.Int64
	hintOverflows      atomic.Int64
	hintsDrained       atomic.Int64
	hintsDiscarded     atomic.Int64
	syncs              atomic.Int64
	syncRetries        atomic.Int64
	syncSegments       atomic.Int64
	syncDivergent      atomic.Int64
	syncKeys           atomic.Int64
	fullSyncs          atomic.Int64
	stampClamps        atomic.Int64
	stampsPruned       atomic.Int64
	tombsPurged        atomic.Int64

	// stamps is the per-key write-stamp oracle: every Set/Delete is
	// stamped max(ring generation, last stamp for the key + 1), so the
	// stamps of one key's writes are strictly increasing and the
	// stores' last-write-wins register (setx) totally orders them — a
	// zombie write the network delivers late can never overwrite newer
	// forward progress, which retires PR-7's segment-aging write fence
	// along with its collateral misses. Guarded by mu.
	stamps map[string]uint32
	// writing counts in-flight write loops per key (guarded by mu).
	// Read-repair consults it to stand down while the key's writer is
	// still fanning out: a member that looks behind mid-fan-out is not
	// divergent, just not-yet-reached, and the ack-all contract means
	// the writer itself converges the set (or retries). Without this,
	// reads racing their own keys' writes register spurious repairs —
	// which the clean-control soak asserts never happen.
	writing map[string]int
	// hints is the bounded hinted-handoff ledger for down shards;
	// enqueues happen under mu, atomically with route resolution, so
	// ring entry can prove the queue is drained (see handoff.go).
	hints *handoff
	// gcGen is the ring generation the last generation-floor sweep ran
	// at (see maintain); guarded by mu. The sweep reclaims stamps-map
	// entries and shard tombstones that the current generation floor
	// has made redundant, so neither grows without bound.
	gcGen uint64

	counterList []obs.NamedCounter

	// inst holds the telemetry sinks Instrument arms. The probers run
	// from NewRouter on, so Instrument publishes a whole set at once and
	// every reader loads it (see ins).
	inst atomic.Pointer[instruments]
}

// instruments are the router's telemetry sinks: the tracer and the
// histograms. A router that was never instrumented has the zero set,
// whose nil sinks record nothing.
type instruments struct {
	tracer     *obs.Tracer
	detectHist *obs.Histogram
	demoteHist *obs.Histogram
	rttHist    *obs.Histogram
	syncHist   *obs.Histogram
	drainHist  *obs.Histogram
}

// ins returns the router's current telemetry sinks.
func (r *Router) ins() *instruments { return r.inst.Load() }

// NewRouter builds a router over dir and starts its probers.
func NewRouter(dir Directory, cfg RouterConfig) (*Router, error) {
	n := dir.NumShards()
	if n <= 0 {
		return nil, fmt.Errorf("cluster: directory has no shards")
	}
	if cfg.PoolConns <= 0 {
		cfg.PoolConns = 4
	}
	if cfg.OpTimeout <= 0 {
		cfg.OpTimeout = 50 * time.Millisecond
	}
	if !cfg.Retry.Enabled() {
		cfg.Retry.MaxAttempts = 4
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = 25 * time.Millisecond
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = cfg.OpTimeout
	}
	if cfg.ProbeFails <= 0 {
		cfg.ProbeFails = 3
	}
	if cfg.Breaker.Failures <= 0 {
		cfg.Breaker.Failures = 8
	}
	if cfg.Breaker.Cooldown <= 0 {
		cfg.Breaker.Cooldown = 4 * cfg.ProbeInterval
	}
	if cfg.SlowRTT <= 0 {
		cfg.SlowRTT = cfg.OpTimeout / 2
	}
	if cfg.Replication <= 0 {
		cfg.Replication = 2
	}
	if cfg.Replication > n {
		cfg.Replication = n
	}
	if cfg.Replication > maxReplication {
		cfg.Replication = maxReplication
	}
	if cfg.HandoffLimit <= 0 {
		cfg.HandoffLimit = 1024
	}
	r := &Router{
		cfg:     cfg,
		dir:     dir,
		ring:    newRing(n, cfg.Replication),
		shards:  make([]*shardState, n),
		stamps:  map[string]uint32{},
		writing: map[string]int{},
		hints:   newHandoff(n, cfg.HandoffLimit),
		gcGen:   1, // the ring's starting generation: nothing to sweep yet
		stop:    make(chan struct{}),
	}
	r.counterList = r.namedCounters()
	r.inst.Store(&instruments{})
	r.ctx, r.cancel = context.WithCancel(context.Background())
	for i := 0; i < n; i++ {
		addr, epoch, running := dir.Addr(i)
		st := &shardState{addr: addr, epoch: epoch, kick: make(chan struct{}, 1)}
		st.breaker = retry.NewBreaker(cfg.Breaker)
		st.pool = newConnPool(addr, cfg.PoolConns, cfg.OpTimeout)
		r.shards[i] = st
		if !running {
			r.setHealthLocked(i, healthFenced, time.Time{})
		}
	}
	if !cfg.DisableProbes {
		for i := 0; i < n; i++ {
			r.wg.Add(1)
			go r.prober(i)
		}
	}
	return r, nil
}

// Close stops the probers and closes pooled connections. Operations
// sleeping in a retry backoff wake immediately (context-aware Sleep).
func (r *Router) Close() {
	r.cancel()
	close(r.stop)
	r.wg.Wait()
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, st := range r.shards {
		st.pool.close()
	}
}

// Instrument registers the router's metrics on reg (the cluster.* block
// of the catalogue: gauges over the router's own atomics plus the
// failover-detection histogram) and arms trace events on tracer.
func (r *Router) Instrument(reg *obs.Registry, tracer *obs.Tracer) {
	r.inst.Store(&instruments{
		tracer:     tracer,
		detectHist: reg.Histogram("cluster.failover_detect_us"),
		demoteHist: reg.Histogram("cluster.demote_detect_us"),
		rttHist:    reg.Histogram("cluster.data_rtt_us"),
		syncHist:   reg.Histogram("repl.sync_us"),
		drainHist:  reg.Histogram("repl.handoff_drain_us"),
	})
	reg.Gauge("cluster.demotions", r.demotions.Load)
	reg.Gauge("cluster.promotions", r.promotions.Load)
	reg.Gauge("cluster.breaker_trips", r.breakerTrips.Load)
	reg.Gauge("cluster.breaker_fastfails", r.breakerFastfail.Load)
	reg.Gauge("cluster.hedges", r.hedges.Load)
	reg.Gauge("cluster.hedge_wins", r.hedgeWins.Load)
	reg.Gauge("cluster.corrupt_rejects", r.corruptRejects.Load)
	reg.Gauge("cluster.routes", r.routes.Load)
	reg.Gauge("cluster.retries", r.retries.Load)
	reg.Gauge("cluster.sheds", r.sheds.Load)
	reg.Gauge("cluster.route_errors", r.routeErrors.Load)
	reg.Gauge("cluster.stale_rejects", r.staleRejects.Load)
	reg.Gauge("cluster.failovers", r.failovers.Load)
	reg.Gauge("cluster.adoptions", r.adoptions.Load)
	reg.Gauge("cluster.readmits", r.readmits.Load)
	reg.Gauge("cluster.probes", r.probes.Load)
	reg.Gauge("cluster.probe_failures", r.probeFailures.Load)
	reg.Gauge("repl.replica_writes", r.replicaWrites.Load)
	reg.Gauge("repl.replica_write_errors", r.replicaWriteErrors.Load)
	reg.Gauge("repl.lww_refused", r.lwwRefused.Load)
	reg.Gauge("repl.fallback_reads", r.fallbackReads.Load)
	reg.Gauge("repl.read_repairs", r.readRepairs.Load)
	reg.Gauge("repl.repair_conflicts", r.repairConflicts.Load)
	reg.Gauge("repl.tombstones", r.tombstones.Load)
	reg.Gauge("repl.hints_queued", r.hintsQueued.Load)
	reg.Gauge("repl.hint_overflows", r.hintOverflows.Load)
	reg.Gauge("repl.hints_drained", r.hintsDrained.Load)
	reg.Gauge("repl.hints_discarded", r.hintsDiscarded.Load)
	reg.Gauge("repl.syncs", r.syncs.Load)
	reg.Gauge("repl.sync_retries", r.syncRetries.Load)
	reg.Gauge("repl.sync_segments", r.syncSegments.Load)
	reg.Gauge("repl.sync_divergent", r.syncDivergent.Load)
	reg.Gauge("repl.sync_keys", r.syncKeys.Load)
	reg.Gauge("repl.full_syncs", r.fullSyncs.Load)
	reg.Gauge("repl.stamp_clamps", r.stampClamps.Load)
	reg.Gauge("repl.stamps_pruned", r.stampsPruned.Load)
	reg.Gauge("repl.tombs_purged", r.tombsPurged.Load)
	reg.Gauge("cluster.shards_up", func() int64 {
		r.mu.Lock()
		defer r.mu.Unlock()
		return int64(r.ring.nUp)
	})
	reg.Gauge("cluster.ring_generation", func() int64 {
		r.mu.Lock()
		defer r.mu.Unlock()
		return int64(r.ring.gen)
	})
}

// namedCounters is the single authoritative list behind Counters and
// Instrument; the repl.* entries keep their catalogue prefix, the rest
// are bare (Counters keys) and gain the cluster. prefix when
// registered.
func (r *Router) namedCounters() []obs.NamedCounter {
	return []obs.NamedCounter{
		{Name: "routes", Load: r.routes.Load},
		{Name: "retries", Load: r.retries.Load},
		{Name: "sheds", Load: r.sheds.Load},
		{Name: "route_errors", Load: r.routeErrors.Load},
		{Name: "stale_rejects", Load: r.staleRejects.Load},
		{Name: "failovers", Load: r.failovers.Load},
		{Name: "adoptions", Load: r.adoptions.Load},
		{Name: "readmits", Load: r.readmits.Load},
		{Name: "probes", Load: r.probes.Load},
		{Name: "probe_failures", Load: r.probeFailures.Load},
		{Name: "demotions", Load: r.demotions.Load},
		{Name: "promotions", Load: r.promotions.Load},
		{Name: "breaker_trips", Load: r.breakerTrips.Load},
		{Name: "breaker_fastfails", Load: r.breakerFastfail.Load},
		{Name: "hedges", Load: r.hedges.Load},
		{Name: "hedge_wins", Load: r.hedgeWins.Load},
		{Name: "corrupt_rejects", Load: r.corruptRejects.Load},
		{Name: "repl.replica_writes", Load: r.replicaWrites.Load},
		{Name: "repl.replica_write_errors", Load: r.replicaWriteErrors.Load},
		{Name: "repl.lww_refused", Load: r.lwwRefused.Load},
		{Name: "repl.fallback_reads", Load: r.fallbackReads.Load},
		{Name: "repl.read_repairs", Load: r.readRepairs.Load},
		{Name: "repl.repair_conflicts", Load: r.repairConflicts.Load},
		{Name: "repl.tombstones", Load: r.tombstones.Load},
		{Name: "repl.hints_queued", Load: r.hintsQueued.Load},
		{Name: "repl.hint_overflows", Load: r.hintOverflows.Load},
		{Name: "repl.hints_drained", Load: r.hintsDrained.Load},
		{Name: "repl.hints_discarded", Load: r.hintsDiscarded.Load},
		{Name: "repl.syncs", Load: r.syncs.Load},
		{Name: "repl.sync_retries", Load: r.syncRetries.Load},
		{Name: "repl.sync_segments", Load: r.syncSegments.Load},
		{Name: "repl.sync_divergent", Load: r.syncDivergent.Load},
		{Name: "repl.sync_keys", Load: r.syncKeys.Load},
		{Name: "repl.full_syncs", Load: r.fullSyncs.Load},
		{Name: "repl.stamp_clamps", Load: r.stampClamps.Load},
		{Name: "repl.stamps_pruned", Load: r.stampsPruned.Load},
		{Name: "repl.tombs_purged", Load: r.tombsPurged.Load},
		{Name: "shards_up", Load: func() int64 {
			r.mu.Lock()
			defer r.mu.Unlock()
			return int64(r.ring.nUp)
		}},
		{Name: "ring_generation", Load: func() int64 {
			r.mu.Lock()
			defer r.mu.Unlock()
			return int64(r.ring.gen)
		}},
	}
}

// Counters exposes the router's tallies for tests and reports (one
// obs.SnapshotCounters over the same list Instrument registers).
func (r *Router) Counters() map[string]int64 {
	return obs.SnapshotCounters(r.counterList)
}

// Owner reports which shard currently owns key (-1 with every shard
// fenced) — a read-only routing probe for tests and the failover
// benchmark. With replication, "owns" means primary: the first member
// of the key's replica set.
func (r *Router) Owner(key string) int {
	h := keyHash(key)
	r.mu.Lock()
	defer r.mu.Unlock()
	s, _, ok := r.ring.lookup(h)
	if !ok {
		return -1
	}
	return s
}

// InRing reports whether shard is currently a routable ring member —
// false while it is fenced, demoted, or mid-anti-entropy. The chaos
// monkey's settle gate polls it so MaxDown accounting covers shards
// that respawned but have not finished readmission.
func (r *Router) InRing(shard int) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ring.up[shard]
}

// Epoch reports the shard incarnation the router currently routes to. It
// catches up with the directory's epoch only once a probe has seen the
// replacement (a readmit after a failover, or an adoption), so a caller
// can wait until the router has noticed a respawn; InRing alone stays true
// for a dead shard the probes have not caught yet.
func (r *Router) Epoch(shard int) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.shards[shard].epoch
}

// routeSet resolves a key's full replica set (primary first) plus the
// member pools, snapshotted under one lock so the set and the pools
// belong to the same ring instant.
func (r *Router) routeSet(key string) (seg segment, pools [maxReplication]*connPool, ok bool) {
	h := keyHash(key)
	r.mu.Lock()
	defer r.mu.Unlock()
	seg, ok = r.ring.lookupSet(h)
	if !ok {
		return segment{}, pools, false
	}
	for k := 0; k < seg.n; k++ {
		pools[k] = r.shards[seg.shard[k]].pool
	}
	return seg, pools, true
}

// finishAttempts applies the shared terminal accounting of a retry
// loop: an exhausted budget ending in busy is a shed, anything else a
// route error.
func (r *Router) finishAttempts(lastErr error) error {
	if errors.Is(lastErr, memcached.ErrBusy) {
		r.sheds.Add(1)
		r.ins().tracer.Record(obs.EvRouteShed, 0, 0, 0, 0, int64(r.cfg.Retry.MaxAttempts))
	} else {
		r.routeErrors.Add(1)
	}
	return lastErr
}

// maintain is the generation-floor garbage sweep (DESIGN.md §16). Both
// per-key state stores grow with key cardinality: the router's stamps
// map keeps one entry per key ever written, and every shard store keeps
// tombstones forever (evicting one via LRU would quietly re-open the
// key to zombie resurrection). A ring-generation advance makes both
// reclaimable below the new generation floor: a stamps entry below the
// floor is redundant (the next mint starts at the floor, which already
// exceeds it), and a tombstone below the floor can be purged once every
// store also refuses to re-insert absent keys below that floor — the
// stamp-floor rule that keeps an expired tombstone from being outrun by
// a zombie of the write it retired (memcached.Store.PurgeTombstones).
//
// The sweep runs only while the cluster is converged — every shard in
// the ring, no hints queued, no overflow flags — so every member holds
// (and then atomically drops + floors) the tombstones being retired; a
// member that is down keeps its tombstones and therefore its
// protection. Purges are best-effort per shard: a failed round trip
// leaves that shard's tombstones (still safe, just unreclaimed) until
// the next generation advance. Every prober calls maintain each round;
// the gcGen gate makes all but the first a mutex-bounce no-op.
func (r *Router) maintain() {
	r.mu.Lock()
	gen := r.ring.gen
	if gen <= r.gcGen || r.ring.nUp != len(r.shards) {
		r.mu.Unlock()
		return
	}
	for i := range r.shards {
		if r.hints.pending(i) > 0 || r.hints.needsFullSync(i) {
			r.mu.Unlock()
			return
		}
	}
	floor := genFloor(gen)
	pruned := 0
	for k, s := range r.stamps {
		if s < floor {
			delete(r.stamps, k)
			pruned++
		}
	}
	pools := make([]*connPool, len(r.shards))
	for i, st := range r.shards {
		pools[i] = st.pool
	}
	r.gcGen = gen
	r.mu.Unlock()
	if pruned > 0 {
		r.stampsPruned.Add(int64(pruned))
	}
	for i, pool := range pools {
		c, err := pool.get()
		if err != nil {
			continue
		}
		n, perr := c.PurgeTombstones(floor)
		switch {
		case perr == nil:
			pool.put(c)
			if n > 0 {
				r.tombsPurged.Add(int64(n))
				r.ins().tracer.Record(obs.EvReplPurge, i, 0, 0, uint64(floor), int64(n))
			}
		case errors.Is(perr, memcached.ErrBusy):
			pool.put(c)
		default:
			pool.discard(c)
		}
	}
}

// nudge schedules an immediate probe of shard (data-path failures speed
// detection up but never fence by themselves).
func (r *Router) nudge(shard int) {
	select {
	case r.shards[shard].kick <- struct{}{}:
	default:
	}
}

// prober is shard i's health loop.
func (r *Router) prober(i int) {
	defer r.wg.Done()
	st := r.shards[i]
	var conn *memcached.Client
	var connAddr string
	// dconn is the canary's persistent data-path connection, distinct
	// from the version-probe conn: an asymmetric partition can leave one
	// path up and the other down, so each is measured on its own socket.
	var dconn *memcached.Client
	var dconnAddr string
	defer func() {
		if conn != nil {
			conn.Close()
		}
		if dconn != nil {
			dconn.Close()
		}
	}()
	timer := time.NewTimer(r.cfg.ProbeInterval)
	defer timer.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-timer.C:
		case <-st.kick:
			if !timer.Stop() {
				select {
				case <-timer.C:
				default:
				}
			}
		}
		r.probeOnce(i, &conn, &connAddr)
		r.canaryOnce(i, &dconn, &dconnAddr)
		r.antiEntropy(i)
		r.maintain()
		timer.Reset(r.cfg.ProbeInterval)
	}
}

// probeOnce sends one health probe to shard i and applies the verdict:
// consecutive failures fence, success after a fresh incarnation readmits.
func (r *Router) probeOnce(i int, conn **memcached.Client, connAddr *string) {
	addr, epoch, running := r.dir.Addr(i)
	healthy := false
	r.probes.Add(1)
	if running {
		if *conn != nil && *connAddr != addr {
			(*conn).Close()
			*conn = nil
		}
		if *conn == nil {
			c, err := memcached.DialTimeout(addr, r.cfg.ProbeTimeout)
			if err == nil {
				c.SetTimeout(r.cfg.ProbeTimeout)
				*conn, *connAddr = c, addr
			}
		}
		if *conn != nil {
			if _, err := (*conn).Version(); err == nil {
				healthy = true
			} else {
				(*conn).Close()
				*conn = nil
			}
		}
	} else if *conn != nil {
		// The directory already declared this incarnation dead.
		(*conn).Close()
		*conn = nil
	}

	var onFence func(int, uint64)
	var fencedEpoch uint64
	st := r.shards[i]
	r.mu.Lock()
	if healthy {
		st.fails = 0
		if st.wasDown {
			st.wasDown = false
			r.ins().tracer.Record(obs.EvProbeUp, i, 0, 0, epoch, 0)
		}
		fenced := st.health == healthFenced
		if epoch == st.epoch || (fenced && epoch < st.epoch) {
			// Nothing new — or the fenced incarnation woke up (a hang
			// passing): its store predates the fence, so it is never
			// re-trusted; only a respawn (epoch bump) readmits.
			r.mu.Unlock()
			return
		}
		// A new incarnation (cold store, new epoch) answered: a respawn
		// after the fence (readmit), or a replacement the fence never
		// caught (adopt). Either way it syncs before serving (see
		// setHealthLocked for R=1).
		to := healthSyncAdopt
		if fenced {
			to = healthSyncReadmit
		}
		st.addr, st.epoch = addr, epoch
		old := st.pool
		st.pool = newConnPool(addr, r.cfg.PoolConns, r.cfg.OpTimeout)
		r.setHealthLocked(i, to, time.Time{})
		r.mu.Unlock()
		old.close()
		return
	}
	r.probeFailures.Add(1)
	st.fails++
	if st.fails == 1 {
		st.downSince = time.Now()
		if !st.wasDown {
			st.wasDown = true
			r.ins().tracer.Record(obs.EvProbeDown, i, 0, 0, st.epoch, 0)
		}
	}
	if st.health != healthFenced && st.fails >= r.cfg.ProbeFails {
		// A mid-sync death restarts from the respawn.
		r.setHealthLocked(i, healthFenced, st.downSince)
		fencedEpoch = st.epoch
		onFence = r.cfg.OnFence
	}
	r.mu.Unlock()
	if onFence != nil {
		onFence(i, fencedEpoch)
	}
}

// connPool is a bounded per-shard connection pool: sem tokens count every
// live connection (idle or in flight), idle holds the reusable subset.
type connPool struct {
	addr    string
	timeout time.Duration
	idle    chan *memcached.Client
	sem     chan struct{}
	mu      sync.Mutex
	closed  bool
}

func newConnPool(addr string, conns int, timeout time.Duration) *connPool {
	return &connPool{
		addr:    addr,
		timeout: timeout,
		idle:    make(chan *memcached.Client, conns),
		sem:     make(chan struct{}, conns),
	}
}

// get returns an idle connection or dials a new one within the bound.
// With the pool exhausted it waits for a peer to finish — every holder is
// under an operation deadline, so the wait is bounded too.
func (p *connPool) get() (*memcached.Client, error) {
	select {
	case c := <-p.idle:
		return c, nil
	default:
	}
	select {
	case c := <-p.idle:
		return c, nil
	case p.sem <- struct{}{}:
		c, err := memcached.DialTimeout(p.addr, p.timeout)
		if err != nil {
			<-p.sem
			return nil, err
		}
		return c, nil
	}
}

// tryGet is get without the wait: an idle connection or an instant dial
// if a slot is free, else (nil, false). The hedge path uses it so a
// hedge can never block behind — or starve — primary traffic.
func (p *connPool) tryGet() (*memcached.Client, bool) {
	select {
	case c := <-p.idle:
		return c, true
	default:
	}
	select {
	case p.sem <- struct{}{}:
		c, err := memcached.DialTimeout(p.addr, p.timeout)
		if err != nil {
			<-p.sem
			return nil, false
		}
		return c, true
	default:
		return nil, false
	}
}

// put returns a healthy connection to the pool (or closes it if the pool
// is full or closed).
func (p *connPool) put(c *memcached.Client) {
	p.mu.Lock()
	if !p.closed {
		select {
		case p.idle <- c:
			p.mu.Unlock()
			return
		default:
		}
	}
	p.mu.Unlock()
	c.Close()
	<-p.sem
}

// discard drops a poisoned connection and frees its slot.
func (p *connPool) discard(c *memcached.Client) {
	c.Close()
	<-p.sem
}

// close marks the pool dead and reaps idle connections; in-flight ones
// are reaped by put/discard.
func (p *connPool) close() {
	p.mu.Lock()
	p.closed = true
	for {
		select {
		case c := <-p.idle:
			c.Close()
			<-p.sem
		default:
			p.mu.Unlock()
			return
		}
	}
}
