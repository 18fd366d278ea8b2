package cluster

import (
	"fmt"
	"testing"
	"time"

	"privagic/internal/obs"
)

// fastProbes is the aggressive probe config the lifecycle tests use so a
// failover lands in single-digit milliseconds.
func fastProbes() RouterConfig {
	return RouterConfig{
		OpTimeout:     25 * time.Millisecond,
		ProbeInterval: time.Millisecond,
		ProbeTimeout:  5 * time.Millisecond,
		ProbeFails:    2,
	}
}

func newTestCluster(t *testing.T, shards int) *Cluster {
	t.Helper()
	c, err := New(Config{Shards: shards})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(c.Close)
	return c
}

func newTestRouter(t *testing.T, dir Directory, cfg RouterConfig) *Router {
	t.Helper()
	r, err := NewRouter(dir, cfg)
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	t.Cleanup(r.Close)
	return r
}

// waitFor polls cond up to d.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestRouterBasicOps: set/get/delete round-trip through the router across
// several shards.
func TestRouterBasicOps(t *testing.T) {
	c := newTestCluster(t, 3)
	r := newTestRouter(t, c, fastProbes())
	for i := 0; i < 200; i++ {
		k, v := fmt.Sprintf("key%d", i), []byte(fmt.Sprintf("val%d", i))
		if err := r.Set(k, v); err != nil {
			t.Fatalf("Set %s: %v", k, err)
		}
	}
	for i := 0; i < 200; i++ {
		k := fmt.Sprintf("key%d", i)
		v, ok, err := r.Get(k)
		if err != nil || !ok || string(v) != fmt.Sprintf("val%d", i) {
			t.Fatalf("Get %s = %q ok=%v err=%v", k, v, ok, err)
		}
	}
	if found, err := r.Delete("key0"); err != nil || !found {
		t.Fatalf("Delete: found=%v err=%v", found, err)
	}
	if _, ok, err := r.Get("key0"); err != nil || ok {
		t.Fatalf("Get after delete: ok=%v err=%v", ok, err)
	}
	// Confirm the data actually spread: at least two shards hold items.
	populated := 0
	for i := 0; i < c.NumShards(); i++ {
		if c.Store(i).Len() > 0 {
			populated++
		}
	}
	if populated < 2 {
		t.Fatalf("only %d shards hold data; router is not sharding", populated)
	}
}

// TestRouterFailover: killing a shard fences it within the probe budget
// and every key remains servable via the survivors.
func TestRouterFailover(t *testing.T) {
	c := newTestCluster(t, 3)
	r := newTestRouter(t, c, fastProbes())
	for i := 0; i < 100; i++ {
		if err := r.Set(fmt.Sprintf("key%d", i), []byte("v")); err != nil {
			t.Fatalf("Set: %v", err)
		}
	}
	if err := c.Kill(1); err != nil {
		t.Fatalf("Kill: %v", err)
	}
	waitFor(t, time.Second, "fence of shard 1", func() bool {
		return r.Counters()["failovers"] >= 1
	})
	for i := 0; i < 100; i++ {
		k := fmt.Sprintf("key%d", i)
		if _, _, err := r.Get(k); err != nil {
			t.Fatalf("Get %s after failover: %v", k, err)
		}
		if r.Owner(k) == 1 {
			t.Fatalf("key %s still routed to the fenced shard", k)
		}
	}
	if up := r.Counters()["shards_up"]; up != 2 {
		t.Fatalf("shards_up = %d after one kill of three, want 2", up)
	}
}

// TestRouterReadmitAfterRespawn: a respawned shard (fresh epoch) rejoins
// the ring and serves again.
func TestRouterReadmitAfterRespawn(t *testing.T) {
	c := newTestCluster(t, 2)
	r := newTestRouter(t, c, fastProbes())
	if err := c.Kill(0); err != nil {
		t.Fatalf("Kill: %v", err)
	}
	waitFor(t, time.Second, "fence", func() bool { return r.Counters()["failovers"] >= 1 })
	if err := c.Respawn(0); err != nil {
		t.Fatalf("Respawn: %v", err)
	}
	waitFor(t, time.Second, "readmit", func() bool { return r.Counters()["readmits"] >= 1 })
	if up := r.Counters()["shards_up"]; up != 2 {
		t.Fatalf("shards_up = %d after readmit, want 2", up)
	}
	if err := r.Set("k", []byte("v")); err != nil {
		t.Fatalf("Set after readmit: %v", err)
	}
}

// TestRouterHungShardFencedNotReadmitted: a hang trips the fence, and the
// same incarnation waking up again is NOT readmitted (its store predates
// the fence); only a respawn is.
func TestRouterHungShardFencedNotReadmitted(t *testing.T) {
	c := newTestCluster(t, 2)
	r := newTestRouter(t, c, fastProbes())
	if err := c.Hang(0, 100*time.Millisecond); err != nil {
		t.Fatalf("Hang: %v", err)
	}
	waitFor(t, time.Second, "fence of the hung shard", func() bool {
		return r.Counters()["failovers"] >= 1
	})
	// Let the hang pass and give the prober ample time to see the shard
	// answering again at the same epoch.
	time.Sleep(150 * time.Millisecond)
	cs := r.Counters()
	if cs["readmits"] != 0 {
		t.Fatalf("hung shard was readmitted at its old epoch (readmits=%d)", cs["readmits"])
	}
	if cs["shards_up"] != 1 {
		t.Fatalf("shards_up = %d, want the hung shard still fenced", cs["shards_up"])
	}
	if err := c.Respawn(0); err != nil {
		t.Fatalf("Respawn: %v", err)
	}
	waitFor(t, time.Second, "readmit of the respawned shard", func() bool {
		return r.Counters()["readmits"] >= 1
	})
}

// TestRouterStaleReject is the headline safety property of the
// unreplicated router: after kill -> survivor writes -> respawn/failback
// -> re-kill, the survivor's old copy must surface as a miss, never as
// the value. Pinned to R=1 — with replication the same window is closed
// by write-through instead (see the replication tests), and on a 2-shard
// ring both shards would be in every replica set, so the kill/failback
// choreography below would not exercise the fence at all.
func TestRouterStaleReject(t *testing.T) {
	c := newTestCluster(t, 2)
	cfg := fastProbes()
	cfg.Replication = 1
	r := newTestRouter(t, c, cfg)

	// A key owned by shard 0 under the full ring.
	var key string
	for i := 0; ; i++ {
		k := fmt.Sprintf("stale%d", i)
		if r.Owner(k) == 0 {
			key = k
			break
		}
	}
	if err := r.Set(key, []byte("old")); err != nil {
		t.Fatalf("Set old: %v", err)
	}

	// Kill 0: the key fails over to shard 1; write the window value there.
	if err := c.Kill(0); err != nil {
		t.Fatalf("Kill: %v", err)
	}
	waitFor(t, time.Second, "fence", func() bool { return r.Owner(key) == 1 })
	if err := r.Set(key, []byte("window")); err != nil {
		t.Fatalf("Set window: %v", err)
	}

	// Respawn 0: the key fails back (cold store: a miss is fine).
	if err := c.Respawn(0); err != nil {
		t.Fatalf("Respawn: %v", err)
	}
	waitFor(t, time.Second, "failback", func() bool { return r.Owner(key) == 0 })
	if v, ok, err := r.Get(key); err != nil {
		t.Fatalf("Get after failback: %v", err)
	} else if ok {
		t.Fatalf("respawned shard served %q from a cold store", v)
	}

	// Kill 0 again: shard 1 still holds "window" from the first failover,
	// but its tenure is new — the old copy must be rejected as stale.
	if err := c.Kill(0); err != nil {
		t.Fatalf("Kill again: %v", err)
	}
	waitFor(t, time.Second, "second fence", func() bool { return r.Owner(key) == 1 })
	v, ok, err := r.Get(key)
	if err != nil {
		t.Fatalf("Get after re-kill: %v", err)
	}
	if ok {
		t.Fatalf("survivor served stale %q across tenures", v)
	}
	if n := r.Counters()["stale_rejects"]; n < 1 {
		t.Fatalf("stale_rejects = %d, want >= 1", n)
	}
}

// TestRouterBusyRetriesNotFailover: admission-control sheds are transient
// — the router retries them and never fences a merely-busy shard.
func TestRouterBusyRetriesNotFailover(t *testing.T) {
	c, err := New(Config{Shards: 1, MaxInflight: 1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(c.Close)
	r := newTestRouter(t, c, fastProbes())
	done := make(chan error, 4)
	for g := 0; g < 4; g++ {
		go func(g int) {
			var firstErr error
			for i := 0; i < 50; i++ {
				if err := r.Set(fmt.Sprintf("g%dk%d", g, i), []byte("v")); err != nil && firstErr == nil {
					firstErr = err
				}
			}
			done <- firstErr
		}(g)
	}
	busyFinal := 0
	for g := 0; g < 4; g++ {
		if err := <-done; err != nil {
			// The retry budget can be exhausted under contention; that
			// surfaces as an explicit busy error, which is the documented
			// degraded mode — but never as a failover.
			busyFinal++
		}
	}
	cs := r.Counters()
	if cs["failovers"] != 0 {
		t.Fatalf("a busy shard was fenced (failovers=%d)", cs["failovers"])
	}
	if cs["routes"] == 0 {
		t.Fatal("no operation ever succeeded under contention")
	}
	t.Logf("routes=%d retries=%d sheds=%d clients-saw-busy=%d", cs["routes"], cs["retries"], cs["sheds"], busyFinal)
}

// TestClusterEpochsAdvance: each respawn is a fresh incarnation.
func TestClusterEpochsAdvance(t *testing.T) {
	c := newTestCluster(t, 1)
	e1 := c.Epoch(0)
	if err := c.Respawn(0); err != nil {
		t.Fatalf("Respawn: %v", err)
	}
	if e2 := c.Epoch(0); e2 <= e1 {
		t.Fatalf("epoch did not advance: %d -> %d", e1, e2)
	}
	if !c.Running(0) {
		t.Fatal("respawned shard not running")
	}
}

// TestInstrumentWhileProbing arms a router's telemetry while its prober
// runs: the prober samples once uninstrumented, Instrument publishes the
// sinks, and the next sample must land in the new RTT histogram. Nothing
// orders Instrument against the prober but the publication itself, so
// under -race an unsynchronised write of the sinks fails here.
func TestInstrumentWhileProbing(t *testing.T) {
	c := newTestCluster(t, 1)
	r := newTestRouter(t, c, fastProbes())
	st := r.shards[0]
	waitFor(t, 2*time.Second, "an uninstrumented canary sample", func() bool { return st.rtt.Load() != 0 })
	reg := obs.NewRegistry()
	r.Instrument(reg, obs.NewTracer(64))
	rtt := reg.Histogram("cluster.data_rtt_us")
	waitFor(t, 2*time.Second, "an instrumented canary sample", func() bool {
		n, _, _ := rtt.Stats()
		return n > 0
	})
}
