package cluster_test

import (
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"privagic/internal/cluster"
	"privagic/internal/faults"
	"privagic/internal/obs"
	"privagic/internal/retry"
	"privagic/internal/ycsb"
)

// The cluster soak is the acceptance test of the failover work: a YCSB
// workload runs against a 3-shard cluster while a chaos monkey kills,
// hangs and respawns shards mid-run, across hundreds of seeded schedules.
// With replication (R=2) the oracle is zero-loss, not just
// fresh-or-miss: under MaxDown=1 — enforced by the monkey's settle gate,
// which holds a victim's budget until the router readmits it — every Get
// of a key with an acknowledged write must return a value at least as
// new as the acked floor at read start. A miss on an acked key is a lost
// write; a stale hit is a silent wrong answer; either fails the suite. A
// schedule that exceeds its deadline is a deadlock and fails the suite.
// The relaxed control sweep runs pure overload (admission sheds, no
// faults) and must see zero failovers, zero read-repairs, and zero
// hinted handoffs: backpressure must never read as death, and the
// replication defenses must never fire without a fault to defend
// against.

const (
	soakShards   = 3
	soakClients  = 3
	soakRecords  = 60 // divisible by soakClients: the writer remap stays in range
	soakMinOps   = 40 // per client, before it may stop
	soakMaxOps   = 4000
	soakDeadline = 30 * time.Second // per schedule; hit = deadlock
)

func soakRouterConfig() cluster.RouterConfig {
	return cluster.RouterConfig{
		OpTimeout:     15 * time.Millisecond,
		ProbeInterval: time.Millisecond,
		// 8ms, not 5: the probe is a trivial version round trip, but on a
		// loaded single-core host the whole process can stall past 5ms,
		// and two such hiccups in a row would fence a healthy shard. 8ms
		// is unreachable for a live shard yet instant against a killed
		// one (connection refused) and still bounds hang detection at
		// ~2×(interval+timeout) ≈ 18ms.
		ProbeTimeout: 8 * time.Millisecond,
		ProbeFails:   2,
		// Latency-health headroom, same rationale as the gray soak: the
		// default SlowRTT (OpTimeout/2 = 7.5ms) is reachable by honest
		// queue-wait under pure overload on a loaded host, and three
		// strikes would demote a healthy-but-busy shard. 12ms is
		// unreachable for traffic that is merely queued, yet below the
		// 15ms timeout-penalty sample, so dead and truly slow links
		// still demote exactly as before.
		SlowRTT: 12 * time.Millisecond,
		Retry: retry.Policy{
			MaxAttempts: 6,
			Backoff:     200 * time.Microsecond,
			MaxBackoff:  2 * time.Millisecond,
		},
	}
}

// checker is the per-schedule oracle. Keys are partitioned by writer
// (client i owns keys with k%soakClients == i), so attempted sequence
// numbers are single-writer and strictly ordered; acked is the CAS-max of
// sequences whose Set was acknowledged. Values encode "key|seq".
type checker struct {
	attempted [soakRecords]atomic.Int64
	acked     [soakRecords]atomic.Int64

	// zeroLoss upgrades the read oracle from fresh-or-miss to zero-loss:
	// a miss on a key with an acked write becomes a violation. Valid only
	// when the schedule keeps the failure model inside what R replicas
	// tolerate (MaxDown/MaxDegraded ≤ R-1 with settle-gated budgets).
	zeroLoss bool

	// diag, when set, is called on a zero-loss miss violation and its
	// return appended to the violation message. A lost-write report
	// without the per-replica store state is undebuggable after the
	// fact on CI, so soaks wire this to dump each shard's copy of the
	// key and the router's counters at the moment of the miss.
	diag func(k int) string

	mu         sync.Mutex
	violations []string

	okOps  atomic.Int64
	errOps atomic.Int64
	misses atomic.Int64
	hits   atomic.Int64
}

func (c *checker) violate(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.violations) < 10 {
		c.violations = append(c.violations, fmt.Sprintf(format, args...))
	}
}

func soakKey(k int) string { return fmt.Sprintf("k%04d", k) }

// write issues one checked Set of key k.
func (c *checker) write(rt *cluster.Router, k int) { _ = c.writeErr(rt, k) }

// writeErr is write returning the Set's error, so callers with an
// error-typing oracle (the gray soak) can classify it.
func (c *checker) writeErr(rt *cluster.Router, k int) error {
	seq := c.attempted[k].Add(1)
	err := rt.Set(soakKey(k), []byte(fmt.Sprintf("%d|%d", k, seq)))
	if err != nil {
		c.errOps.Add(1)
		return err
	}
	c.okOps.Add(1)
	for {
		cur := c.acked[k].Load()
		if seq <= cur || c.acked[k].CompareAndSwap(cur, seq) {
			return nil
		}
	}
}

// read issues one checked Get of key k and applies the fresh-or-miss
// oracle.
func (c *checker) read(rt *cluster.Router, k int) { _ = c.readErr(rt, k) }

// readErr is read returning the Get's error for error-typing oracles.
func (c *checker) readErr(rt *cluster.Router, k int) error {
	floor := c.acked[k].Load()
	v, ok, err := rt.Get(soakKey(k))
	if err != nil {
		c.errOps.Add(1)
		return err
	}
	c.okOps.Add(1)
	if !ok {
		if c.zeroLoss && floor > 0 {
			// Zero-loss: the write at seq=floor was acknowledged, and the
			// schedule never exceeded the failure budget — some replica
			// must still hold it. A miss means it was lost.
			extra := ""
			if c.diag != nil {
				extra = c.diag(k)
			}
			c.violate("key %d: lost acked write: miss with acked floor %d%s", k, floor, extra)
			return nil
		}
		c.misses.Add(1) // below the acked floor a cache may always miss
		return nil
	}
	c.hits.Add(1)
	kk, seq, perr := parseSoakValue(v)
	if perr != nil {
		c.violate("key %d: unparseable value %q", k, v)
		return nil
	}
	if kk != k {
		c.violate("key %d: served key %d's value %q (cross-key corruption)", k, kk, v)
		return nil
	}
	if seq > c.attempted[k].Load() {
		c.violate("key %d: served seq %d, never attempted", k, seq)
		return nil
	}
	if seq < floor {
		c.violate("key %d: served stale seq %d, acked floor was %d at read start", k, seq, floor)
	}
	return nil
}

func parseSoakValue(v []byte) (key int, seq int64, err error) {
	a, b, found := strings.Cut(string(v), "|")
	if !found {
		return 0, 0, fmt.Errorf("no separator")
	}
	key, err = strconv.Atoi(a)
	if err != nil {
		return 0, 0, err
	}
	seq, err = strconv.ParseInt(b, 10, 64)
	return key, seq, err
}

// scheduleResult is everything a schedule reports back for assertion on
// the test goroutine.
type scheduleResult struct {
	violations []string
	okOps      int64
	errOps     int64
	hits       int64
	router     map[string]int64
	chaos      map[string]int64
}

// runClusterSchedule executes one seeded schedule: boot a cluster and
// router, run soakClients YCSB substreams against it, and (with chaosOn)
// unleash the shard monkey mid-run. reg/tracer accumulate across
// schedules.
func runClusterSchedule(seed int64, chaosOn bool, reg *obs.Registry, tracer *obs.Tracer) (*scheduleResult, error) {
	cfg := cluster.Config{Shards: soakShards}
	if !chaosOn {
		// The relaxed sweep is pure overload: every fifth command finds
		// the backend saturated and is shed with SERVER_ERROR busy. The
		// shed rate is high enough that a fence-on-busy bug cannot hide.
		cfg.MaxInflight = 1
		cfg.Saturated = func(int) func() bool {
			var n atomic.Int64
			return func() bool { return n.Add(1)%5 == 0 }
		}
	}
	cl, err := cluster.New(cfg)
	if err != nil {
		return nil, err
	}
	defer cl.Close()
	rt, err := cluster.NewRouter(cl, soakRouterConfig())
	if err != nil {
		return nil, err
	}
	defer rt.Close()
	rt.Instrument(reg, tracer)

	var monkey *faults.Chaos
	if chaosOn {
		monkey = faults.NewChaos(cl, faults.ChaosConfig{
			Seed:         seed,
			Actions:      2,
			MinDelay:     time.Millisecond,
			MaxDelay:     4 * time.Millisecond,
			HangFraction: 0.3,
			HangFor:      25 * time.Millisecond,
			RespawnAfter: 8 * time.Millisecond,
			// The zero-loss failure model: at most R-1=1 shard outside
			// the ring at any instant. The settle gate keeps a respawned
			// victim's budget held until the router has seen its new
			// incarnation (a readmit after a failover, or an adoption)
			// and readmitted it (anti-entropy complete), so a second
			// fault can never overlap the sync window and the schedule
			// cannot end before the router noticed its last kill.
			MaxDown: 1,
			SettleFunc: func(s int) bool {
				return rt.Epoch(s) == cl.Epoch(s) && rt.InRing(s)
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
		return nil, err
	}
	streams := base.Split(soakClients)

	// Zero-loss holds in both modes: with chaos on, MaxDown=1 keeps the
	// faults inside what R=2 tolerates; without it nothing ever dies, so
	// no acked write may go missing either way.
	chk := &checker{zeroLoss: true}
	chk.diag = func(k int) string {
		var sb strings.Builder
		key := soakKey(k)
		for s := 0; s < soakShards; s++ {
			v, fl, okv := cl.Store(s).Get(key)
			fmt.Fprintf(&sb, " | shard%d inring=%v hit=%v flags=%x gen=%d len=%d",
				s, rt.InRing(s), okv, fl, (fl>>16)&0x7fff, len(v))
		}
		c := rt.Counters()
		fmt.Fprintf(&sb, " | ringgen=%d up=%d stale=%d corrupt=%d repairs=%d",
			c["ring_generation"], c["shards_up"], c["stale_rejects"], c["corrupt_rejects"], c["repl.read_repairs"])
		return sb.String()
	}
	settled := &atomic.Bool{} // chaos injected and cluster whole again
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
				if op.Kind == ycsb.OpRead {
					chk.read(rt, k)
				} else {
					// Remap onto this client's write partition: single
					// writer per key keeps the oracle's sequences ordered.
					chk.write(rt, (k/soakClients)*soakClients+id)
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
	return res, nil
}

// runSweep drives n schedules under the per-schedule deadlock watchdog
// and returns aggregate tallies.
func runSweep(t *testing.T, n int, chaosOn bool, reg *obs.Registry, tracer *obs.Tracer) (agg struct {
	okOps, errOps, hits, failovers, adoptions, readmits, stale, retries, kills, hangs int64
	demotions, repairs, hints, fallbacks, drained                                     int64
}) {
	t.Helper()
	for seed := int64(1); seed <= int64(n); seed++ {
		var res *scheduleResult
		var err error
		done := make(chan struct{})
		go func() {
			defer close(done)
			res, err = runClusterSchedule(seed, chaosOn, reg, tracer)
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
			t.Errorf("seed %d: wrong answer: %s", seed, v)
		}
		if res.okOps == 0 {
			t.Errorf("seed %d: no operation ever succeeded", seed)
		}
		// Every kill is detected: the settle gate holds the schedule open
		// until the router has seen each respawn, either by fencing the
		// dead incarnation first (a failover) or, when the respawn beat
		// the fence, by adopting the new one.
		if chaosOn && res.chaos["kills"] >= 1 && res.router["failovers"]+res.router["adoptions"] < 1 {
			t.Errorf("seed %d: %d kills but no failover or adoption (counters %v)", seed, res.chaos["kills"], res.router)
		}
		if t.Failed() {
			t.FailNow() // one schedule's diagnosis is enough; stop the sweep
		}
		agg.okOps += res.okOps
		agg.errOps += res.errOps
		agg.hits += res.hits
		agg.failovers += res.router["failovers"]
		agg.adoptions += res.router["adoptions"]
		agg.readmits += res.router["readmits"]
		agg.stale += res.router["stale_rejects"]
		agg.retries += res.router["retries"]
		agg.demotions += res.router["demotions"]
		agg.repairs += res.router["repl.read_repairs"]
		agg.hints += res.router["repl.hints_queued"]
		agg.fallbacks += res.router["repl.fallback_reads"]
		agg.drained += res.router["repl.hints_drained"]
		agg.kills += res.chaos["kills"]
		agg.hangs += res.chaos["hangs"]
	}
	return agg
}

// TestClusterChaosSoak: kill-a-shard schedules under the zero-loss
// oracle. Zero lost acked writes, zero stale reads, zero deadlocks,
// failovers actually exercised and detected within budget, and the
// replication defenses (hinted handoff, drain) visibly doing the work
// that makes zero-loss true.
func TestClusterChaosSoak(t *testing.T) {
	n := faults.SoakCount(faults.Schedules().ClusterChaos, testing.Short())
	reg := obs.NewRegistry()
	tracer := obs.NewTracer(256)
	agg := runSweep(t, n, true, reg, tracer)

	if agg.kills == 0 {
		t.Error("chaos sweep never killed a shard; the soak tested nothing")
	}
	if agg.failovers == 0 {
		t.Error("no failover across the whole sweep")
	}
	if agg.readmits == 0 {
		t.Error("no respawned shard was ever readmitted")
	}
	if agg.hints == 0 {
		t.Error("no write ever queued a hinted handoff; the down-replica path went untested")
	}
	if agg.drained == 0 {
		t.Error("no hinted handoff was ever drained into a readmitted shard")
	}
	if agg.fallbacks == 0 {
		t.Error("no read ever fell back to a non-primary replica")
	}
	// Detection budget: time from first failed probe to fence. With a 1ms
	// probe interval, 5ms probe timeout and 2-strike fencing the expected
	// detection is single-digit milliseconds; 250ms catches a stalled
	// prober with a wide margin for loaded CI.
	if count, _, max := reg.Histogram("cluster.failover_detect_us").Stats(); count > 0 && max > 250_000 {
		t.Errorf("slowest failover detection took %dus, over the 250ms budget", max)
	}
	// Reconciliation: the trace event stream agrees with the counters.
	if ev := tracer.Counts()["failover"]; ev != agg.failovers {
		t.Errorf("tracer saw %d failover events, counters saw %d", ev, agg.failovers)
	}
	t.Logf("%d schedules: ops ok=%d err=%d hits=%d | kills=%d hangs=%d failovers=%d adoptions=%d readmits=%d stale_rejects=%d retries=%d | hints=%d drained=%d fallbacks=%d repairs=%d",
		n, agg.okOps, agg.errOps, agg.hits, agg.kills, agg.hangs, agg.failovers, agg.adoptions, agg.readmits, agg.stale, agg.retries,
		agg.hints, agg.drained, agg.fallbacks, agg.repairs)
}

// TestClusterRelaxedSoak is the control: pure admission-control overload,
// no faults. Busy must surface as retries and sheds — never as a
// failover, a readmission, a demotion, a stale rejection, a read-repair,
// or a hinted handoff. With the ring never flipping there is no
// membership change for a value to be stale against and no divergence
// for the replication defenses to heal, so any of them firing means
// overload was misread as failure.
func TestClusterRelaxedSoak(t *testing.T) {
	n := faults.SoakCount(faults.Schedules().ClusterRelaxed, testing.Short())
	reg := obs.NewRegistry()
	tracer := obs.NewTracer(256)
	agg := runSweep(t, n, false, reg, tracer)

	if agg.failovers != 0 {
		t.Errorf("%d spurious failovers under pure overload", agg.failovers)
	}
	if agg.readmits != 0 {
		t.Errorf("%d spurious readmits under pure overload", agg.readmits)
	}
	if agg.demotions != 0 {
		t.Errorf("%d spurious demotions under pure overload", agg.demotions)
	}
	if agg.stale != 0 {
		t.Errorf("%d stale rejections with no membership change to be stale against", agg.stale)
	}
	if agg.repairs != 0 {
		t.Errorf("%d spurious read-repairs under pure overload", agg.repairs)
	}
	if agg.hints != 0 {
		t.Errorf("%d spurious hinted handoffs under pure overload", agg.hints)
	}
	if agg.hits == 0 {
		t.Error("the control sweep never hit; the workload tested nothing")
	}
	if agg.retries == 0 {
		t.Error("the control sweep never shed an operation; the overload tested nothing")
	}
	t.Logf("%d schedules: ops ok=%d err=%d hits=%d retries=%d stale=%d repairs=%d hints=%d",
		n, agg.okOps, agg.errOps, agg.hits, agg.retries, agg.stale, agg.repairs, agg.hints)
}
