package cluster

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"
	"time"

	"privagic/internal/memcached"
	"privagic/internal/obs"
)

// healthRig drives one router's shard-health machine by hand: probes
// are off, and each step calls the prober's own verdict code (probeOnce,
// evaluateHealth, antiEntropy) or feeds the breaker through sample, so a
// transition happens exactly when the test says.
type healthRig struct {
	t  *testing.T
	c  *Cluster
	r  *Router
	tr *obs.Tracer
}

// newHealthRig starts the cluster and its router; with down set, shard
// 0 is killed first, so the router starts with it fenced.
func newHealthRig(t *testing.T, shards, rf int, down bool) *healthRig {
	t.Helper()
	c := newTestCluster(t, shards)
	if down {
		if err := c.Kill(0); err != nil {
			t.Fatalf("Kill(0): %v", err)
		}
	}
	cfg := fastProbes()
	cfg.DisableProbes = true
	cfg.Replication = rf
	// Every verdict is driven by hand, so the timeouts only bound round
	// trips to live shards; generous ones keep a slow host from failing
	// a probe or a sync the test expects to succeed. A killed shard
	// still refuses at once.
	cfg.OpTimeout = time.Second
	cfg.ProbeTimeout = time.Second
	r := newTestRouter(t, c, cfg)
	tr := obs.NewTracer(obs.DefaultTraceBuffer)
	r.Instrument(obs.NewRegistry(), tr)
	return &healthRig{t: t, c: c, r: r, tr: tr}
}

// probe runs one version probe of shard i on a fresh connection.
func (h *healthRig) probe(i int) {
	var conn *memcached.Client
	var addr string
	h.r.probeOnce(i, &conn, &addr)
	if conn != nil {
		conn.Close()
	}
}

// fence kills shard i and probes it until the router fences it.
func (h *healthRig) fence(i int) {
	if err := h.c.Kill(i); err != nil {
		h.t.Fatalf("Kill(%d): %v", i, err)
	}
	for k := 0; k < h.r.cfg.ProbeFails; k++ {
		h.probe(i)
	}
}

// respawn replaces shard i with a fresh incarnation and probes it once:
// a readmit when the router had fenced it, an adoption otherwise.
func (h *healthRig) respawn(i int) {
	if err := h.c.Respawn(i); err != nil {
		h.t.Fatalf("Respawn(%d): %v", i, err)
	}
	h.probe(i)
}

// rtt pins shard i's latency estimate and runs n health verdicts.
func (h *healthRig) rtt(i int, us float64, n int) {
	h.r.shards[i].rtt.Store(math.Float64bits(us))
	for k := 0; k < n; k++ {
		h.r.evaluateHealth(i)
	}
}

// slow holds shard i's EWMA above SlowRTT for demoteStrikes verdicts.
func (h *healthRig) slow(i int) {
	h.rtt(i, float64(10*h.r.cfg.SlowRTT.Microseconds()), demoteStrikes)
}

// recover holds shard i's EWMA under SlowRTT/4 for two verdicts, the
// promotion requirement.
func (h *healthRig) recover(i int) { h.rtt(i, 1, 2) }

// trip feeds shard i's breaker consecutive data-path failures until it
// opens.
func (h *healthRig) trip(i int) {
	st := h.r.shards[i]
	for k := 0; k < h.r.cfg.Breaker.Failures; k++ {
		h.r.sample(i, st, time.Millisecond, false)
	}
}

// sync runs shard i's anti-entropy flow once.
func (h *healthRig) sync(i int) { h.r.antiEntropy(i) }

// healthKinds are the trace events a health transition records.
var healthKinds = map[obs.EventKind]bool{
	obs.EvFailover:     true,
	obs.EvDemote:       true,
	obs.EvPromote:      true,
	obs.EvReadmit:      true,
	obs.EvReplSyncDone: true,
}

// events lists shard i's health trace events in record order (one
// worker's events share a trace shard, so Seq orders them exactly).
func (h *healthRig) events(i int) []string {
	evs := h.tr.Events()
	sort.Slice(evs, func(a, b int) bool { return evs[a].Seq < evs[b].Seq })
	var out []string
	for _, e := range evs {
		if healthKinds[e.Kind] && int(e.Worker) == i {
			out = append(out, e.Kind.String())
		}
	}
	return out
}

// healthCounters are the tallies a health transition bumps.
var healthCounters = []string{"failovers", "demotions", "promotions", "readmits", "adoptions", "repl.syncs", "breaker_trips"}

// TestHealthTransitions drives, at R=1 and R=2, the shard-health
// transitions no lifecycle test pins on its own: demotion and fencing
// of a shard mid-sync or already demoted, adoption from every state,
// the refusal to demote the last shard in the ring, and R=1 re-entering
// the ring without a sync. After each step the shard's ring membership
// is checked; at the end, every health counter (unlisted ones must be
// zero) and the shard's ordered health trace events. A shard already
// dead when the router starts is fenced without counting a failover.
func TestHealthTransitions(t *testing.T) {
	type step struct {
		do     func(h *healthRig, i int)
		inRing bool
	}
	fence := func(h *healthRig, i int) { h.fence(i) }
	respawn := func(h *healthRig, i int) { h.respawn(i) }
	slow := func(h *healthRig, i int) { h.slow(i) }
	recover := func(h *healthRig, i int) { h.recover(i) }
	trip := func(h *healthRig, i int) { h.trip(i) }
	sync := func(h *healthRig, i int) { h.sync(i) }
	fenceOther := func(h *healthRig, i int) { h.fence(1 - i) }

	cases := []struct {
		name     string
		shards   int
		rf       int
		down     bool // shard 0 is dead when the router starts
		steps    []step
		counters map[string]int64
		events   []string
	}{
		{
			name: "R2 demoted while syncing a readmit, then promoted through a sync",
			rf:   2,
			steps: []step{
				{fence, false}, {respawn, false}, {slow, false},
				{sync, false}, // demoted: the sync stands down
				{recover, false}, {sync, true},
			},
			counters: map[string]int64{"failovers": 1, "demotions": 1, "promotions": 1, "repl.syncs": 1},
			events:   []string{"failover", "health.demote", "health.promote", "repl.sync.done"},
		},
		{
			name:     "R2 breaker trip while syncing an adoption",
			rf:       2,
			steps:    []step{{respawn, false}, {trip, false}, {sync, false}},
			counters: map[string]int64{"adoptions": 1, "demotions": 1, "breaker_trips": 1},
			events:   []string{"health.demote"},
		},
		{
			name:     "R2 adopted while up leaves the ring and readmits after a sync",
			rf:       2,
			steps:    []step{{respawn, false}, {sync, true}},
			counters: map[string]int64{"adoptions": 1, "readmits": 1, "repl.syncs": 1},
			events:   []string{"readmit", "repl.sync.done"},
		},
		{
			name:     "R2 adopted while demoted syncs as an adoption",
			rf:       2,
			steps:    []step{{slow, false}, {respawn, false}, {sync, true}},
			counters: map[string]int64{"demotions": 1, "adoptions": 1, "readmits": 1, "repl.syncs": 1},
			events:   []string{"health.demote", "readmit", "repl.sync.done"},
		},
		{
			name: "R2 fenced while syncing restarts from the next respawn",
			rf:   2,
			steps: []step{
				{fence, false}, {respawn, false}, {fence, false},
				{sync, false}, {respawn, false}, {sync, true},
			},
			counters: map[string]int64{"failovers": 2, "readmits": 1, "repl.syncs": 1},
			events:   []string{"failover", "failover", "readmit", "repl.sync.done"},
		},
		{
			name:     "R2 fenced while demoted needs a respawn, not a promotion",
			rf:       2,
			steps:    []step{{slow, false}, {fence, false}, {recover, false}, {sync, false}, {respawn, false}, {sync, true}},
			counters: map[string]int64{"demotions": 1, "failovers": 1, "readmits": 1, "repl.syncs": 1},
			events:   []string{"health.demote", "failover", "readmit", "repl.sync.done"},
		},
		{
			name:     "R2 a breaker trip on a fenced shard leaves it fenced",
			rf:       2,
			steps:    []step{{fence, false}, {trip, false}, {respawn, false}, {sync, true}},
			counters: map[string]int64{"failovers": 1, "breaker_trips": 1, "readmits": 1, "repl.syncs": 1},
			events:   []string{"failover", "readmit", "repl.sync.done"},
		},
		{
			name:     "R2 down at construction: fenced uncounted, readmitted after a sync",
			rf:       2,
			down:     true,
			steps:    []step{{respawn, false}, {sync, true}},
			counters: map[string]int64{"readmits": 1, "repl.syncs": 1},
			events:   []string{"readmit", "repl.sync.done"},
		},
		{
			name:     "R2 the last shard in the ring is never demoted",
			shards:   2,
			rf:       2,
			steps:    []step{{fenceOther, true}, {slow, true}, {trip, true}},
			counters: map[string]int64{"failovers": 1, "breaker_trips": 1},
		},
		{
			name:     "R1 readmit enters without a sync",
			rf:       1,
			steps:    []step{{fence, false}, {respawn, true}, {sync, true}},
			counters: map[string]int64{"failovers": 1, "readmits": 1},
			events:   []string{"failover", "readmit"},
		},
		{
			name:     "R1 promotion enters without a sync",
			rf:       1,
			steps:    []step{{slow, false}, {recover, true}},
			counters: map[string]int64{"demotions": 1, "promotions": 1},
			events:   []string{"health.demote", "health.promote"},
		},
		{
			name:     "R1 adopted while demoted re-enters at once",
			rf:       1,
			steps:    []step{{slow, false}, {respawn, true}},
			counters: map[string]int64{"demotions": 1, "adoptions": 1},
			events:   []string{"health.demote"},
		},
		{
			name:     "R1 adopted while up stays in the ring",
			rf:       1,
			steps:    []step{{respawn, true}},
			counters: map[string]int64{"adoptions": 1},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			shards := tc.shards
			if shards == 0 {
				shards = 3
			}
			h := newHealthRig(t, shards, tc.rf, tc.down)
			const i = 0
			for k, s := range tc.steps {
				s.do(h, i)
				if got := h.r.InRing(i); got != s.inRing {
					t.Fatalf("after step %d: InRing(%d) = %v, want %v", k, i, got, s.inRing)
				}
			}
			m := h.r.Counters()
			for _, name := range healthCounters {
				if got, want := m[name], tc.counters[name]; got != want {
					t.Errorf("%s = %d, want %d", name, got, want)
				}
			}
			if got := h.events(i); !reflect.DeepEqual(got, tc.events) {
				t.Errorf("health events = %v, want %v", got, tc.events)
			}
		})
	}
}

// TestSyncRestartsWhenAdoptedMidSync: a respawn the prober adopts while
// a readmit's sync runs unlocked replaces the pool the sync copied into.
// The sync must take another round against the new incarnation before
// the shard enters the ring, so every key it serves is there.
func TestSyncRestartsWhenAdoptedMidSync(t *testing.T) {
	h := newHealthRig(t, 3, 2, false)
	keys := make([]string, 50)
	for k := range keys {
		keys[k] = fmt.Sprintf("k%d", k)
		if err := h.r.Set(keys[k], []byte("v")); err != nil {
			t.Fatalf("Set(%s): %v", keys[k], err)
		}
	}
	h.fence(0)
	h.respawn(0) // readmit: the shard syncs before it enters
	h.r.cfg.SyncHook = func(shard int) { h.respawn(shard) }
	h.sync(0)
	if !h.r.InRing(0) {
		t.Fatal("shard 0 did not enter the ring after its sync")
	}
	if m := h.r.Counters(); m["adoptions"] != 1 {
		t.Fatalf("adoptions = %d, want 1 (the respawn in the sync window)", m["adoptions"])
	}
	store := h.c.Store(0)
	served := 0
	for _, key := range keys {
		h.r.mu.Lock()
		seg, _ := h.r.ring.lookupSet(keyHash(key))
		h.r.mu.Unlock()
		for k := 0; k < seg.n; k++ {
			if seg.shard[k] != 0 {
				continue
			}
			served++
			if _, _, ok := store.Get(key); !ok {
				t.Errorf("shard 0 serves %s but its store lacks it", key)
			}
		}
		if v, ok, err := h.r.Get(key); err != nil || !ok || string(v) != "v" {
			t.Errorf("Get(%s) = %q, %v, %v; want v", key, v, ok, err)
		}
	}
	if served == 0 {
		t.Fatal("shard 0 serves none of the keys")
	}
}
