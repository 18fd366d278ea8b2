package cluster_test

import (
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"privagic/internal/cluster"
	"privagic/internal/faults"
	"privagic/internal/memcached"
	"privagic/internal/netfaults"
	"privagic/internal/obs"
	"privagic/internal/retry"
	"privagic/internal/ycsb"
)

// The gray-failure soak is the acceptance test of the gray-hardening
// work: the same single-writer sequence oracle as the chaos soak, but
// the adversary never kills a process — it degrades wires. Every shard
// stays alive behind a fault-injecting proxy while seeded schedules mix
// latency spikes, bandwidth throttles, asymmetric partitions (probe path
// up / data path down and vice versa), mid-message resets and byte
// corruption. Under replication (R=2, one degraded link at a time) the
// oracle is zero-loss, every schedule:
//
//  1. zero loss — every acknowledged write stays readable and fresh: a
//     corrupted or delayed wire may cost latency or a typed error, never
//     a wrong answer and never a miss on an acked key;
//  2. zero deadlocks — every schedule finishes inside its deadline;
//  3. zero untyped failures — every error reaching the application is
//     one of the typed vocabulary (busy, timeout, protocol violation,
//     breaker open, CAS conflict, no shards, transport), never an
//     anonymous surprise.
//
// The control sweep runs identical traffic through clean proxies and
// must see zero breaker trips and zero demotions: gray defenses must not
// misfire on a healthy network.

// grayLinks builds one fault-injecting proxy per shard and a Directory
// routing the router through them; epoch and liveness still come from
// the real cluster, so fencing and respawn work unchanged.
type grayLinks struct {
	cl    *cluster.Cluster
	links []*netfaults.Link
}

func newGrayLinks(cl *cluster.Cluster, seed int64) (*grayLinks, error) {
	g := &grayLinks{cl: cl, links: make([]*netfaults.Link, cl.NumShards())}
	for i := range g.links {
		i := i
		l, err := netfaults.NewLink(netfaults.Config{
			Target: func() (string, bool) {
				addr, _, running := cl.Addr(i)
				return addr, running
			},
			Seed: seed*31 + int64(i),
		})
		if err != nil {
			g.close()
			return nil, err
		}
		g.links[i] = l
	}
	return g, nil
}

func (g *grayLinks) close() {
	for _, l := range g.links {
		if l != nil {
			l.Close()
		}
	}
}

func (g *grayLinks) NumShards() int { return g.cl.NumShards() }

func (g *grayLinks) Addr(i int) (string, uint64, bool) {
	_, epoch, running := g.cl.Addr(i)
	return g.links[i].Addr(), epoch, running
}

// typedErr reports whether err belongs to the typed failure vocabulary.
// Anything else is an untyped failure and fails the soak.
func typedErr(err error) bool {
	switch {
	case err == nil,
		errors.Is(err, memcached.ErrBusy),
		errors.Is(err, memcached.ErrProtocol),
		errors.Is(err, memcached.ErrCasConflict),
		errors.Is(err, cluster.ErrNoShards),
		errors.Is(err, cluster.ErrBreakerOpen),
		memcached.IsTimeout(err),
		errors.Is(err, io.EOF),
		errors.Is(err, io.ErrUnexpectedEOF):
		return true
	}
	var ne net.Error // transport errors: refused, reset, severed proxy
	return errors.As(err, &ne)
}

// runGraySchedule executes one seeded gray schedule: a cluster behind
// fault-injecting proxies, soakClients YCSB substreams, and (with
// grayOn) the gray monkey degrading links mid-run.
func runGraySchedule(seed int64, grayOn bool, reg *obs.Registry, tracer *obs.Tracer) (*scheduleResult, int64, error) {
	retry.SeedJitter(seed) // deterministic backoff jitter per schedule
	cl, err := cluster.New(cluster.Config{Shards: soakShards})
	if err != nil {
		return nil, 0, err
	}
	defer cl.Close()
	gl, err := newGrayLinks(cl, seed)
	if err != nil {
		return nil, 0, err
	}
	defer gl.close()

	rcfg := soakRouterConfig()
	// A probe-path partition fences its shard (indistinguishable from a
	// hang); the supervision hook must resurrect it, exactly as in
	// production.
	rcfg.OnFence = func(shard int, epoch uint64) {
		cl.RespawnAfter(shard, epoch, 8*time.Millisecond)
	}
	// 5 consecutive failures trip: at the soak's 1ms probe interval the
	// canary alone clears that well inside a fault's dwell, so blackholed
	// data paths reliably exercise the breaker across the sweep.
	rcfg.Breaker = retry.BreakerConfig{Failures: 5}
	// Latency-health headroom: the default SlowRTT (OpTimeout/2 = 7.5ms)
	// sits close enough to what a race-detector build on a loaded
	// single-core host sustains on a clean network that the control sweep
	// can strike out spuriously. 12ms is unreachable for healthy traffic
	// even under the detector, yet still below the 15ms timeout-penalty
	// sample, so blackholed and 20ms-spiked links demote exactly as
	// before.
	rcfg.SlowRTT = 12 * time.Millisecond
	rt, err := cluster.NewRouter(gl, rcfg)
	if err != nil {
		return nil, 0, err
	}
	rtClosed := false
	defer func() {
		if !rtClosed {
			rt.Close()
		}
	}()
	rt.Instrument(reg, tracer)

	var monkey *faults.GrayChaos
	if grayOn {
		monkey = faults.NewGrayChaos(gl.links, faults.GrayChaosConfig{
			Seed:      seed,
			Actions:   3,
			MinDelay:  time.Millisecond,
			MaxDelay:  4 * time.Millisecond,
			HealAfter: 50 * time.Millisecond, // dwell ≫ strike budget: demotions must fire
			Latency:   20 * time.Millisecond, // > OpTimeout: spikes must hurt
			Jitter:    10 * time.Millisecond,
			// Zero-loss discipline: the oracle below assumes at most R-1=1
			// replica is unavailable at a time, so the monkey degrades one
			// link at a time and holds the next fault until every shard is
			// back in the ring — a probe-path partition fences its shard,
			// and a second fault during its readmission sync would exceed
			// the single-failure budget.
			MaxDegraded: 1,
			SettleFunc: func() bool {
				for s := 0; s < soakShards; s++ {
					if !rt.InRing(s) {
						return false
					}
				}
				return true
			},
		})
	}

	base, err := ycsb.New(ycsb.Config{
		Records:      soakRecords,
		Mix:          ycsb.WorkloadA,
		Distribution: ycsb.Zipfian,
		Seed:         uint64(seed),
	})
	if err != nil {
		return nil, 0, err
	}
	streams := base.Split(soakClients)

	chk := &checker{zeroLoss: true}
	// On a lost-write violation, capture every replica's copy of the key
	// and the router counters — the only evidence that distinguishes "a
	// member served a miss it should not have trusted" from "no member
	// holds the value at all".
	chk.diag = func(k int) string {
		var sb strings.Builder
		key := soakKey(k)
		for s := 0; s < soakShards; s++ {
			v, fl, okv := cl.Store(s).Get(key)
			fmt.Fprintf(&sb, " | shard%d inring=%v hit=%v flags=%x gen=%d len=%d", s, rt.InRing(s), okv, fl, (fl>>16)&0x7fff, len(v))
		}
		c := rt.Counters()
		fmt.Fprintf(&sb, " | ringgen=%d up=%d stale=%d corrupt=%d repairs=%d", c["ring_generation"], c["shards_up"], c["stale_rejects"], c["corrupt_rejects"], c["repl.read_repairs"])
		return sb.String()
	}
	var untyped atomic.Int64
	settled := &atomic.Bool{}
	if monkey == nil {
		settled.Store(true)
	}

	var wg sync.WaitGroup
	for i := 0; i < soakClients; i++ {
		wg.Add(1)
		go func(id int, gen *ycsb.Generator) {
			defer wg.Done()
			for ops := 0; ops < soakMaxOps; ops++ {
				if ops >= soakMinOps && settled.Load() {
					return
				}
				op := gen.Next()
				k := int(op.Key % soakRecords)
				var err error
				if op.Kind == ycsb.OpRead {
					err = chk.readErr(rt, k)
				} else {
					err = chk.writeErr(rt, (k/soakClients)*soakClients+id)
				}
				if err != nil && !typedErr(err) {
					if untyped.Add(1) == 1 {
						chk.violate("untyped failure: %v", err)
					}
				}
			}
		}(i, streams[i])
	}
	if monkey != nil {
		monkey.Start()
		monkey.Wait()
		settled.Store(true)
	}
	wg.Wait()

	// Stop the probers before snapshotting: a late canary round could
	// otherwise record a demote/promote trace event after the counter
	// read, and the sweep reconciles the two exactly.
	rt.Close()
	rtClosed = true

	res := &scheduleResult{
		violations: chk.violations,
		okOps:      chk.okOps.Load(),
		errOps:     chk.errOps.Load(),
		hits:       chk.hits.Load(),
		router:     rt.Counters(),
	}
	if monkey != nil {
		res.chaos = monkey.Counters()
	}
	return res, untyped.Load(), nil
}

// grayAgg is the sweep-wide tally for the gray assertions.
type grayAgg struct {
	okOps, errOps, hits, untyped             int64
	demotions, promotions, trips, fastfails  int64
	hedges, hedgeWins, corrupt, stale        int64
	failovers, readmits                      int64
	repairs, hints, drained, fallbacks       int64
	spikes, throttles, partitions, resetsArm int64
	corruptArm, heals                        int64
}

// runGraySweep drives n gray schedules under the deadlock watchdog.
func runGraySweep(t *testing.T, n int, grayOn bool, reg *obs.Registry, tracer *obs.Tracer) (agg grayAgg) {
	t.Helper()
	for seed := int64(1); seed <= int64(n); seed++ {
		var res *scheduleResult
		var untyped int64
		var err error
		done := make(chan struct{})
		go func() {
			defer close(done)
			res, untyped, err = runGraySchedule(seed, grayOn, reg, tracer)
		}()
		select {
		case <-done:
		case <-time.After(soakDeadline):
			buf := make([]byte, 1<<20)
			m := runtime.Stack(buf, true)
			t.Fatalf("seed %d: deadlock: schedule exceeded %v\n%s", seed, soakDeadline, buf[:m])
		}
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, v := range res.violations {
			t.Errorf("seed %d: %s", seed, v)
		}
		if untyped > 0 {
			t.Errorf("seed %d: %d untyped failures", seed, untyped)
		}
		if res.okOps == 0 {
			t.Errorf("seed %d: no operation ever succeeded", seed)
		}
		if t.Failed() {
			t.FailNow()
		}
		agg.okOps += res.okOps
		agg.errOps += res.errOps
		agg.hits += res.hits
		agg.untyped += untyped
		agg.demotions += res.router["demotions"]
		agg.promotions += res.router["promotions"]
		agg.trips += res.router["breaker_trips"]
		agg.fastfails += res.router["breaker_fastfails"]
		agg.hedges += res.router["hedges"]
		agg.hedgeWins += res.router["hedge_wins"]
		agg.corrupt += res.router["corrupt_rejects"]
		agg.stale += res.router["stale_rejects"]
		agg.failovers += res.router["failovers"]
		agg.readmits += res.router["readmits"]
		agg.repairs += res.router["repl.read_repairs"]
		agg.hints += res.router["repl.hints_queued"]
		agg.drained += res.router["repl.hints_drained"]
		agg.fallbacks += res.router["repl.fallback_reads"]
		agg.spikes += res.chaos["latency_spikes"]
		agg.throttles += res.chaos["throttles"]
		agg.partitions += res.chaos["partitions"]
		agg.resetsArm += res.chaos["resets_armed"]
		agg.corruptArm += res.chaos["corruptions_armed"]
		agg.heals += res.chaos["heals"]
	}
	return agg
}

// TestClusterGrayFailSoak: gray-degradation schedules. Zero wrong
// answers, zero deadlocks, zero untyped failures — and the defenses
// actually exercised: demotions, breaker trips and heals all observed
// across the sweep.
func TestClusterGrayFailSoak(t *testing.T) {
	n := faults.SoakCount(faults.Schedules().GrayChaos, testing.Short())
	reg := obs.NewRegistry()
	tracer := obs.NewTracer(256)
	agg := runGraySweep(t, n, true, reg, tracer)

	if agg.untyped != 0 {
		t.Errorf("%d untyped failures across the sweep", agg.untyped)
	}
	if agg.spikes+agg.throttles+agg.partitions+agg.resetsArm+agg.corruptArm == 0 {
		t.Error("gray sweep never armed a fault; the soak tested nothing")
	}
	if agg.heals == 0 {
		t.Error("no degraded link was ever healed")
	}
	if agg.demotions == 0 {
		t.Error("no slow shard was ever demoted across the whole sweep")
	}
	if agg.trips == 0 {
		t.Error("no breaker ever tripped across the whole sweep")
	}
	// Demote-detection budget: first over-threshold evidence to ring
	// exit. Strike hysteresis needs DemoteStrikes probe rounds (3ms at
	// the soak's 1ms interval); 250ms catches a stalled health loop with
	// wide margin for loaded CI (the bench measures the honest figure).
	if count, _, max := reg.Histogram("cluster.demote_detect_us").Stats(); count > 0 && max > 250_000 {
		t.Errorf("slowest demote detection took %dus, over the 250ms budget", max)
	}
	// Reconciliation: trace events agree with counters.
	if ev := tracer.Counts()["health.demote"]; ev != agg.demotions {
		t.Errorf("tracer saw %d demote events, counters saw %d", ev, agg.demotions)
	}
	if ev := tracer.Counts()["health.promote"]; ev != agg.promotions {
		t.Errorf("tracer saw %d promote events, counters saw %d", ev, agg.promotions)
	}
	t.Logf("%d schedules: ops ok=%d err=%d hits=%d | faults: spikes=%d throttles=%d partitions=%d resets=%d corruptions=%d heals=%d | defenses: demotions=%d promotions=%d trips=%d fastfails=%d hedges=%d hedge_wins=%d corrupt_rejects=%d stale_rejects=%d failovers=%d readmits=%d repairs=%d hints=%d drained=%d fallbacks=%d",
		n, agg.okOps, agg.errOps, agg.hits,
		agg.spikes, agg.throttles, agg.partitions, agg.resetsArm, agg.corruptArm, agg.heals,
		agg.demotions, agg.promotions, agg.trips, agg.fastfails, agg.hedges, agg.hedgeWins, agg.corrupt, agg.stale, agg.failovers, agg.readmits,
		agg.repairs, agg.hints, agg.drained, agg.fallbacks)
}

// TestClusterGrayControlSoak is the relaxed control: identical traffic
// through clean proxies. Gray defenses must stay silent — zero breaker
// trips, zero demotions, zero corruption rejects.
func TestClusterGrayControlSoak(t *testing.T) {
	n := faults.SoakCount(faults.Schedules().GrayControl, testing.Short())
	reg := obs.NewRegistry()
	tracer := obs.NewTracer(256)
	agg := runGraySweep(t, n, false, reg, tracer)

	if agg.trips != 0 {
		t.Errorf("%d spurious breaker trips on a healthy network", agg.trips)
	}
	if agg.demotions != 0 {
		t.Errorf("%d spurious demotions on a healthy network", agg.demotions)
	}
	if agg.corrupt != 0 {
		t.Errorf("%d corruption rejects on a clean wire", agg.corrupt)
	}
	if agg.failovers != 0 {
		t.Errorf("%d spurious failovers on a healthy network", agg.failovers)
	}
	if agg.repairs != 0 {
		t.Errorf("%d spurious read-repairs on a healthy network", agg.repairs)
	}
	if agg.hints != 0 {
		t.Errorf("%d spurious hinted handoffs on a healthy network", agg.hints)
	}
	if agg.stale != 0 {
		t.Errorf("%d stale rejects on a healthy network", agg.stale)
	}
	if agg.untyped != 0 {
		t.Errorf("%d untyped failures on a healthy network", agg.untyped)
	}
	if agg.hits == 0 {
		t.Error("the control sweep never hit; the workload tested nothing")
	}
	t.Logf("%d schedules: ops ok=%d err=%d hits=%d hedges=%d", n, agg.okOps, agg.errOps, agg.hits, agg.hedges)
}
