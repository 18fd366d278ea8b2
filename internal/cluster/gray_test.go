package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"privagic/internal/netfaults"
)

// proxyDirectory interposes one fault-injecting netfaults.Link per shard
// between the router and the cluster: the router dials the stable proxy
// addresses while epoch and liveness still come from the real directory.
// Each link resolves its backing shard per connection, so respawns (new
// port, same proxy) are transparent.
type proxyDirectory struct {
	c     *Cluster
	links []*netfaults.Link
	group *netfaults.Group
}

func newProxyDirectory(t testing.TB, c *Cluster, seed int64) *proxyDirectory {
	t.Helper()
	n := c.NumShards()
	pd := &proxyDirectory{c: c, links: make([]*netfaults.Link, n)}
	for i := 0; i < n; i++ {
		i := i
		l, err := netfaults.NewLink(netfaults.Config{
			Target: func() (string, bool) {
				addr, _, running := c.Addr(i)
				return addr, running
			},
			Seed: seed + int64(i),
		})
		if err != nil {
			t.Fatalf("netfaults.NewLink: %v", err)
		}
		pd.links[i] = l
	}
	pd.group = netfaults.NewGroup(pd.links...)
	t.Cleanup(pd.group.Close)
	return pd
}

func (pd *proxyDirectory) NumShards() int { return pd.c.NumShards() }

func (pd *proxyDirectory) Addr(i int) (string, uint64, bool) {
	_, epoch, running := pd.c.Addr(i)
	return pd.links[i].Addr(), epoch, running
}

// grayRouterConfig: fast probes plus tight latency-health thresholds so
// the unit tests resolve demote/promote decisions in tens of
// milliseconds.
func grayRouterConfig() RouterConfig {
	cfg := fastProbes()
	cfg.SlowRTT = 4 * time.Millisecond
	return cfg
}

// TestRouterDemotesSlowShard: a shard whose data path turns slow — while
// its version probes stay instant — is demoted out of the ring within a
// few probe rounds, and traffic for its keys moves to the survivors.
func TestRouterDemotesSlowShard(t *testing.T) {
	c := newTestCluster(t, 3)
	pd := newProxyDirectory(t, c, 1)
	r := newTestRouter(t, pd, grayRouterConfig())

	if err := r.Set("k", []byte("v")); err != nil {
		t.Fatalf("Set: %v", err)
	}
	victim := r.Owner("k")
	// Slow only the data class: probes must keep succeeding so fencing
	// stays out of the picture — this is the pure gray failure.
	pd.links[victim].SetFaults(netfaults.Data, netfaults.Faults{Latency: 10 * time.Millisecond})

	waitFor(t, 2*time.Second, "slow shard demoted", func() bool {
		return r.Counters()["demotions"] >= 1 && r.Owner("k") != victim
	})
	if got := r.Counters()["failovers"]; got != 0 {
		t.Fatalf("slow shard was fenced (failovers=%d), want demotion only", got)
	}

	// Keys now route to a survivor and still answer (fresh-or-miss).
	if err := r.Set("k", []byte("v2")); err != nil {
		t.Fatalf("Set after demotion: %v", err)
	}
	v, ok, err := r.Get("k")
	if err != nil || !ok || !bytes.Equal(v, []byte("v2")) {
		t.Fatalf("Get after demotion = %q,%v,%v", v, ok, err)
	}
}

// TestRouterPromotesRecoveredShard: healing the slow link promotes the
// demoted shard back into the ring without an epoch bump.
func TestRouterPromotesRecoveredShard(t *testing.T) {
	c := newTestCluster(t, 2)
	pd := newProxyDirectory(t, c, 2)
	r := newTestRouter(t, pd, grayRouterConfig())

	pd.links[0].SetFaults(netfaults.Data, netfaults.Faults{Latency: 10 * time.Millisecond})
	waitFor(t, 2*time.Second, "shard 0 demoted", func() bool {
		return r.Counters()["demotions"] >= 1
	})
	pd.links[0].Heal()
	waitFor(t, 2*time.Second, "shard 0 promoted", func() bool {
		m := r.Counters()
		return m["promotions"] >= 1 && m["shards_up"] == 2
	})
	if got := r.Counters()["readmits"]; got != 0 {
		t.Fatalf("promotion consumed a readmit (%d): promotion must not need an epoch bump", got)
	}
}

// TestRouterBreakerTripsOnDataBlackhole: an asymmetric partition —
// answers blackholed on the data path, probe path untouched — trips the
// shard's breaker and demotes it, even though fencing never fires.
func TestRouterBreakerTripsOnDataBlackhole(t *testing.T) {
	c := newTestCluster(t, 2)
	pd := newProxyDirectory(t, c, 3)
	cfg := grayRouterConfig()
	cfg.Breaker.Failures = 3
	r := newTestRouter(t, pd, cfg)

	pd.links[0].SetFaults(netfaults.Data, netfaults.Faults{DropS2C: true})
	waitFor(t, 5*time.Second, "breaker tripped and shard demoted", func() bool {
		m := r.Counters()
		return m["breaker_trips"] >= 1 && m["demotions"] >= 1
	})
	if got := r.Counters()["failovers"]; got != 0 {
		t.Fatalf("asymmetric partition fenced the shard (failovers=%d)", got)
	}
	// Operations still work against the survivor.
	if err := r.Set("x", []byte("y")); err != nil {
		t.Fatalf("Set during partition: %v", err)
	}
}

// TestRouterCorruptValueServedAsMiss: a value damaged at rest (or, in
// production, on the wire past the protocol framing) fails the integrity
// tag and is served as a miss, never as the damaged bytes.
func TestRouterCorruptValueServedAsMiss(t *testing.T) {
	c := newTestCluster(t, 1)
	r := newTestRouter(t, c, fastProbes())

	if err := r.Set("k", []byte("payload")); err != nil {
		t.Fatalf("Set: %v", err)
	}
	// Damage the sealed value directly in the shard's store, keeping its
	// stamp so the reject is the integrity check, not the staleness fence.
	stored, flags, ok := c.Store(0).Get("k")
	if !ok {
		t.Fatal("stored value missing")
	}
	bad := append([]byte(nil), stored...)
	bad[len(bad)-1] ^= 0xFF
	c.Store(0).Set("k", bad, flags)

	v, ok, err := r.Get("k")
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if ok {
		t.Fatalf("corrupt value served as a hit: %q", v)
	}
	if got := r.Counters()["corrupt_rejects"]; got < 1 {
		t.Fatalf("corrupt_rejects = %d, want >= 1", got)
	}
	// The reject never deletes: the stored copy may be the genuine newest
	// value with only its transit bytes flipped, and erasing it would let
	// an older zombie write win the LWW register. It stays, is re-rejected
	// on every read, and only a write (or repair) overwrites it.
	if _, _, ok := c.Store(0).Get("k"); !ok {
		t.Fatal("corrupt value was deleted; rejects must leave the LWW register intact")
	}
	if _, ok, _ := r.Get("k"); ok {
		t.Fatal("corrupt value served on second read")
	}
	// A fresh write mints a higher stamp and reclaims the key.
	if err := r.Set("k", []byte("anew")); err != nil {
		t.Fatalf("Set after reject: %v", err)
	}
	v, ok, err = r.Get("k")
	if err != nil || !ok || string(v) != "anew" {
		t.Fatalf("Get after rewrite = %q, %v, %v; want fresh hit", v, ok, err)
	}
}

// TestRouterHedgedGetWins: with the primary's response path stalled well
// past the hedge delay, the hedge (on a fresh connection, which the
// fault schedule lets through faster) must win and the Get still answer
// fresh-or-miss within the attempt budget.
func TestRouterHedgedGetWins(t *testing.T) {
	c := newTestCluster(t, 1)
	r := newTestRouter(t, c, RouterConfig{
		OpTimeout:     200 * time.Millisecond,
		ProbeInterval: 5 * time.Millisecond,
		ProbeTimeout:  50 * time.Millisecond,
		HedgeDelay:    5 * time.Millisecond,
	})
	if err := r.Set("k", []byte("v")); err != nil {
		t.Fatalf("Set: %v", err)
	}
	// Seed the pool with a connection, then hang the shard briefly: the
	// pooled (primary) connection stalls, the hedge dials fresh — both
	// stall actually, so this exercises the first-wins plumbing rather
	// than a guaranteed winner; the assertion is on hedges firing and the
	// answer staying correct.
	if err := c.Hang(0, 30*time.Millisecond); err != nil {
		t.Fatalf("Hang: %v", err)
	}
	var sawHedge bool
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		v, ok, err := r.Get("k")
		if err == nil && ok && !bytes.Equal(v, []byte("v")) {
			t.Fatalf("hedged Get returned wrong value %q", v)
		}
		if r.Counters()["hedges"] >= 1 {
			sawHedge = true
			break
		}
	}
	if !sawHedge {
		t.Fatal("no hedge fired against a hung shard")
	}
}

// TestRouterBreakerFastFailLastShard: with every shard's breaker open
// (single shard, data blackhole) the router fails fast with the typed
// ErrBreakerOpen instead of burning full timeouts per attempt.
func TestRouterBreakerFastFailLastShard(t *testing.T) {
	c := newTestCluster(t, 1)
	pd := newProxyDirectory(t, c, 4)
	cfg := grayRouterConfig()
	cfg.Breaker.Failures = 2
	cfg.Breaker.Cooldown = time.Second
	r := newTestRouter(t, pd, cfg)

	pd.links[0].SetFaults(netfaults.Data, netfaults.Faults{DropS2C: true})
	waitFor(t, 5*time.Second, "breaker tripped", func() bool {
		return r.Counters()["breaker_trips"] >= 1
	})
	var lastErr error
	fastFailed := func() bool {
		_, _, err := r.Get("k")
		lastErr = err
		return errors.Is(err, ErrBreakerOpen)
	}
	waitFor(t, 5*time.Second, "typed breaker fast-fail", fastFailed)
	if !errors.Is(lastErr, ErrBreakerOpen) {
		t.Fatalf("err = %v, want ErrBreakerOpen", lastErr)
	}
	if r.Counters()["breaker_fastfails"] < 1 {
		t.Fatal("no breaker fast-fails counted")
	}
}

// TestRouterPoolNeverReusesPoisonedConn: operations that time out leave
// their response in flight; the router must discard those connections,
// never pool them. If one leaked back, the post-heal Gets below would
// read a queued stale response — surfacing as ErrProtocol (key echo) or,
// worse, a wrong answer. Correct values for every key afterwards prove
// the discard discipline held.
func TestRouterPoolNeverReusesPoisonedConn(t *testing.T) {
	c := newTestCluster(t, 1)
	pd := newProxyDirectory(t, c, 6)
	cfg := fastProbes()
	cfg.OpTimeout = 20 * time.Millisecond
	cfg.Breaker.Failures = 1 << 30 // keep the breaker out of this test
	r := newTestRouter(t, pd, cfg)

	const keys = 10
	for i := 0; i < keys; i++ {
		if err := r.Set(fmt.Sprintf("k%d", i), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatalf("Set: %v", err)
		}
	}
	// Stretch the data path past OpTimeout: every Get times out while its
	// response is still queued behind the proxy's delay.
	pd.links[0].SetFaults(netfaults.Data, netfaults.Faults{Latency: 60 * time.Millisecond})
	for i := 0; i < 5; i++ {
		if _, _, err := r.Get(fmt.Sprintf("k%d", i)); err == nil {
			t.Fatal("Get succeeded through a 60ms link under a 20ms deadline")
		}
	}
	pd.links[0].Heal()
	time.Sleep(100 * time.Millisecond) // let any in-flight stale responses land

	for i := 0; i < keys; i++ {
		k, want := fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i)
		var v []byte
		var ok bool
		var err error
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
			if v, ok, err = r.Get(k); err == nil {
				break
			}
			if time.Now().After(deadline) {
				// Name the cause: the last error, the router's counters
				// and where each shard stands in its health machine.
				t.Fatalf("timed out waiting for post-heal get %s: last error %v; counters %v; shard health %s",
					k, err, r.Counters(), shardHealth(r))
			}
		}
		if !ok || string(v) != want {
			t.Fatalf("Get(%s) = %q,%v after heal, want %q (poisoned conn reused?)", k, v, ok, want)
		}
	}
	if got := r.Counters()["corrupt_rejects"]; got != 0 {
		t.Fatalf("corrupt_rejects = %d after clean heal, want 0", got)
	}
}

// shardHealth lists each shard's health state by name.
func shardHealth(r *Router) string {
	names := [...]string{
		healthUp: "up", healthSyncReadmit: "sync-readmit", healthSyncPromote: "sync-promote",
		healthSyncAdopt: "sync-adopt", healthDemoted: "demoted", healthFenced: "fenced",
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, len(r.shards))
	for i, st := range r.shards {
		out[i] = names[st.health]
	}
	return fmt.Sprint(out)
}

// TestRouterNoSpuriousGrayTripsOnHealthyNetwork: the relaxed control in
// miniature — steady traffic through clean proxies must never trip a
// breaker, demote a shard, or reject a value.
func TestRouterNoSpuriousGrayTripsOnHealthyNetwork(t *testing.T) {
	c := newTestCluster(t, 3)
	pd := newProxyDirectory(t, c, 5)
	r := newTestRouter(t, pd, grayRouterConfig())

	for i := 0; i < 500; i++ {
		k := fmt.Sprintf("k%d", i%50)
		if err := r.Set(k, []byte("v")); err != nil {
			t.Fatalf("Set: %v", err)
		}
		if _, _, err := r.Get(k); err != nil {
			t.Fatalf("Get: %v", err)
		}
	}
	m := r.Counters()
	for _, k := range []string{"breaker_trips", "demotions", "corrupt_rejects", "stale_rejects", "route_errors"} {
		if m[k] != 0 {
			t.Fatalf("%s = %d on a healthy network, want 0 (counters: %v)", k, m[k], m)
		}
	}
}
