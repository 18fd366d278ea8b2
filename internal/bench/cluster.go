package bench

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"privagic/internal/cluster"
	"privagic/internal/memcached"
	"privagic/internal/obs"
	"privagic/internal/retry"
	"privagic/internal/ycsb"
)

// The cluster experiment measures what the sharded deployment buys and
// costs, in three parts:
//
//   - Router tax: YCSB-A throughput against a direct single server (every
//     client its own raw connection) vs through the router at one shard
//     with an equally wide pool. The delta is pure router overhead: hash,
//     pool, generation stamping and one ring lookup per op, plus — since
//     the gray-failure hardening — an FNV integrity seal/verify on every
//     value, an RTT sample on every op, breaker accounting, and a hedge
//     timer arm/disarm on every Get. The acceptance bar is a regression
//     within 10% (it was 5% for the pre-hardening router, which measured
//     ~-3%; the defenses are priced in deliberately — see EXPERIMENTS.md
//     for the per-hook CPU breakdown).
//   - Scaling curve: 1..8 shards with FIXED per-shard capacity (2 data
//     connections each — a connection pins a server worker, so conns are
//     the shard's parallelism). Clients outnumber any one shard's
//     capacity; throughput should grow with the shard count.
//   - Failover blackout: how long a killed shard's keys stay unservable
//     before probes fence it and retries land on survivors.

// ClusterConfig parameterizes the experiment.
type ClusterConfig struct {
	// Ops is the total operation count per throughput row.
	Ops int
	// Clients is the concurrent client count (each runs its own YCSB
	// substream via Generator.Split).
	Clients int
	// Shards lists the cluster sizes of the scaling curve.
	Shards []int
	// Kills is how many kill/respawn cycles the blackout measurement runs.
	Kills int
	// Reps runs each throughput row this many times and keeps the
	// fastest, damping scheduler noise on small hosts.
	Reps int
}

// DefaultCluster returns the full-scale setup.
func DefaultCluster() ClusterConfig {
	return ClusterConfig{Ops: 40000, Clients: 6, Shards: []int{1, 2, 4, 8}, Kills: 10, Reps: 3}
}

// ClusterRow is one throughput measurement.
type ClusterRow struct {
	Scenario  string
	Shards    int
	Ops       int
	Errors    int64
	WallMs    float64
	OpsPerSec float64
	Retries   int64
	Sheds     int64
}

// ClusterReport holds the scaling curve and the failover blackout.
type ClusterReport struct {
	Config ClusterConfig
	Rows   []ClusterRow

	// TaxPct is the router tax at one shard as the median of per-rep
	// paired ratios (routed/direct within the same rep), in percent.
	// The pairing cancels host drift that a best-of-each comparison
	// splits unfairly across the two scenarios.
	TaxPct float64

	// Blackout: per kill, the time from Kill to the first successful Get
	// of a key the victim owned.
	BlackoutMs    []float64
	DetectAvgUs   float64
	DetectMaxUs   int64
	FailoversSeen int64
}

const benchValueSize = 128

// scaleClients is the fixed offered load of the scaling curve: enough
// concurrent clients that even the largest cluster's total capacity
// (shards x 2 connections) is saturated, so throughput reflects shard
// capacity rather than client count.
const scaleClients = 16

// benchRouterConfig is the throughput-row config: probes gentle enough
// (25ms) that their dial/close churn does not tax the measured path.
func benchRouterConfig() cluster.RouterConfig {
	return cluster.RouterConfig{
		PoolConns:     8,
		OpTimeout:     25 * time.Millisecond,
		ProbeInterval: 25 * time.Millisecond,
		ProbeTimeout:  5 * time.Millisecond,
		ProbeFails:    2,
		// Pinned to R=1: this experiment prices the ROUTER (hash, pool,
		// stamps, seal, health hooks) against a raw connection, and its
		// scaling curve assumes each op costs one server op. The write
		// amplification of R=2 is priced separately by -exp replication.
		Replication: 1,
		Retry: retry.Policy{
			MaxAttempts: 6,
			Backoff:     200 * time.Microsecond,
			MaxBackoff:  2 * time.Millisecond,
		},
	}
}

// fastProbeConfig is the blackout-row config: 1ms probes and a 2-strike
// fence, so detection latency — the quantity under measurement — is
// bounded by the probe loop, not by it being lazy.
func fastProbeConfig() cluster.RouterConfig {
	cfg := benchRouterConfig()
	cfg.ProbeInterval = time.Millisecond
	return cfg
}

// Cluster runs the experiment.
func Cluster(cfg ClusterConfig) (*ClusterReport, error) {
	if cfg.Ops < 1 {
		cfg.Ops = 1
	}
	if cfg.Clients < 1 {
		cfg.Clients = 1
	}
	if len(cfg.Shards) == 0 {
		cfg.Shards = []int{1, 2, 4, 8}
	}
	if cfg.Kills < 1 {
		cfg.Kills = 1
	}
	if cfg.Reps < 1 {
		cfg.Reps = 1
	}
	rep := &ClusterReport{Config: cfg}

	// The tax pair gets extra reps beyond the scale rows: a small
	// difference of two noisy numbers needs more samples than an
	// absolute row does.
	var direct, routed []ClusterRow
	p, err := paired(max(cfg.Reps, 7),
		keep(&direct, func(s *span) (ClusterRow, error) { return clusterDirectRow(s, cfg) }),
		keep(&routed, func(s *span) (ClusterRow, error) { return clusterRouterRow(s, cfg, 1, true) }))
	if err != nil {
		return nil, err
	}
	rep.TaxPct = 100 * (1/p.Ratio - 1)
	rep.Rows = append(rep.Rows, direct[p.A.Best], routed[p.B.Best])
	for _, shards := range cfg.Shards {
		var rows []ClusterRow
		t, err := measure(cfg.Reps,
			keep(&rows, func(s *span) (ClusterRow, error) { return clusterRouterRow(s, cfg, shards, false) }))
		if err != nil {
			return nil, err
		}
		rep.Rows = append(rep.Rows, rows[t.Best])
	}
	if err := clusterBlackout(cfg, rep); err != nil {
		return nil, err
	}
	return rep, nil
}

// keep adapts a row-producing run to measure/paired, appending every
// rep's row to rows so the caller can report rows[Best].
func keep(rows *[]ClusterRow, run func(*span) (ClusterRow, error)) func(*span) error {
	return func(s *span) error {
		row, err := run(s)
		*rows = append(*rows, row)
		return err
	}
}

// kv is the client surface the YCSB driver loads.
type kv interface {
	Get(key string) ([]byte, bool, error)
	Set(key string, value []byte) error
}

// directKV adapts a raw memcached connection to kv.
type directKV struct{ *memcached.Client }

func (d directKV) Set(key string, value []byte) error { return d.Client.Set(key, value, 0) }

// ycsbA is the closed-loop YCSB-A driver of every throughput row: one
// goroutine per client, each on its own deterministic substream of a
// Zipfian 50/50 read/update mix over 4096 records, ops/len(clients)
// operations each. Only the load loop is timed under s; the row reports
// the ops it actually ran.
func ycsbA(s *span, scenario string, shards, ops int, clients []kv) (ClusterRow, error) {
	row := ClusterRow{Scenario: scenario, Shards: shards}
	base, err := ycsb.New(ycsb.Config{
		Records:      4096,
		Mix:          ycsb.WorkloadA,
		Distribution: ycsb.Zipfian,
		Seed:         42,
	})
	if err != nil {
		return row, err
	}
	streams := base.Split(len(clients))
	value := make([]byte, benchValueSize)
	perClient := ops / len(clients)
	errs := make([]int64, len(clients))
	var wg sync.WaitGroup
	s.start()
	for i := range clients {
		wg.Add(1)
		go func(c kv, gen *ycsb.Generator, errs *int64) {
			defer wg.Done()
			for n := 0; n < perClient; n++ {
				op := gen.Next()
				key := fmt.Sprintf("k%d", op.Key)
				var err error
				if op.Kind == ycsb.OpRead {
					_, _, err = c.Get(key)
				} else {
					err = c.Set(key, value)
				}
				if err != nil {
					*errs++
				}
			}
		}(clients[i], streams[i], &errs[i])
	}
	wg.Wait()
	s.stop()
	for _, e := range errs {
		row.Errors += e
	}
	row.Ops = perClient * len(clients)
	row.WallMs = float64(s.d.Microseconds()) / 1e3
	row.OpsPerSec = float64(row.Ops) / s.d.Seconds()
	return row, nil
}

// clusterDirectRow is the no-router baseline: every client owns a raw
// connection to one server.
func clusterDirectRow(s *span, cfg ClusterConfig) (ClusterRow, error) {
	srv, err := memcached.NewServer("127.0.0.1:0", memcached.NewStore(1<<12, 0), cfg.Clients*2)
	if err != nil {
		return ClusterRow{}, err
	}
	defer srv.Close()
	clients := make([]kv, cfg.Clients)
	for i := range clients {
		c, err := memcached.DialTimeout(srv.Addr(), 25*time.Millisecond)
		if err != nil {
			return ClusterRow{}, err
		}
		defer c.Close()
		clients[i] = directKV{c}
	}
	return ycsbA(s, "direct", 1, cfg.Ops, clients)
}

// clusterRouterRow measures the routed path at a given shard count. With
// wide set, the per-shard pool matches the client count (the router-tax
// comparison against the direct row); otherwise each shard gets the fixed
// 2-connection capacity of the scaling curve under scaleClients clients.
func clusterRouterRow(s *span, cfg ClusterConfig, shards int, wide bool) (ClusterRow, error) {
	scenario := fmt.Sprintf("scale x%d", shards)
	workers, poolConns, clients := 4, 2, scaleClients
	if wide {
		scenario = "router x1"
		workers, poolConns, clients = cfg.Clients*2, cfg.Clients+2, cfg.Clients
	}
	rcfg := benchRouterConfig()
	rcfg.PoolConns = poolConns
	return routedRow(s, scenario, shards, workers, clients, cfg.Ops, rcfg)
}

// routedRow loads a fresh cluster of the given shape through one shared
// router and adds the router's retry and shed counters to the row.
func routedRow(s *span, scenario string, shards, workers, clients, ops int, rcfg cluster.RouterConfig) (ClusterRow, error) {
	cl, err := cluster.New(cluster.Config{Shards: shards, Workers: workers})
	if err != nil {
		return ClusterRow{}, err
	}
	defer cl.Close()
	rt, err := cluster.NewRouter(cl, rcfg)
	if err != nil {
		return ClusterRow{}, err
	}
	defer rt.Close()
	kvs := make([]kv, clients)
	for i := range kvs {
		kvs[i] = rt
	}
	row, err := ycsbA(s, scenario, shards, ops, kvs)
	cs := rt.Counters()
	row.Retries, row.Sheds = cs["retries"], cs["sheds"]
	return row, err
}

// clusterBlackout measures the user-visible window around a shard kill:
// the time from Kill to the first successful Get of a key the victim
// owned (retries riding through the fence onto a survivor).
func clusterBlackout(cfg ClusterConfig, rep *ClusterReport) error {
	cl, err := cluster.New(cluster.Config{Shards: 2})
	if err != nil {
		return err
	}
	defer cl.Close()
	rt, err := cluster.NewRouter(cl, fastProbeConfig())
	if err != nil {
		return err
	}
	defer rt.Close()
	reg := obs.NewRegistry()
	rt.Instrument(reg, nil)

	for k := 0; k < cfg.Kills; k++ {
		// A key currently owned by shard 0 (re-resolved per cycle: the
		// ring is whole again after each readmit).
		var key string
		for i := 0; ; i++ {
			key = fmt.Sprintf("bl%d-%d", k, i)
			if rt.Owner(key) == 0 {
				break
			}
		}
		if err := rt.Set(key, []byte("v")); err != nil {
			return fmt.Errorf("bench: blackout set: %w", err)
		}
		start := time.Now()
		if err := cl.Kill(0); err != nil {
			return err
		}
		for {
			if _, _, err := rt.Get(key); err == nil {
				break
			}
		}
		rep.BlackoutMs = append(rep.BlackoutMs, float64(time.Since(start).Microseconds())/1e3)
		if err := cl.Respawn(0); err != nil {
			return err
		}
		deadline := time.Now().Add(2 * time.Second)
		for rt.Counters()["shards_up"] != 2 {
			if time.Now().After(deadline) {
				return fmt.Errorf("bench: respawned shard was not readmitted")
			}
			time.Sleep(time.Millisecond)
		}
	}
	count, sum, max := reg.Histogram("cluster.failover_detect_us").Stats()
	if count > 0 {
		rep.DetectAvgUs = float64(sum) / float64(count)
	}
	rep.DetectMaxUs = max
	rep.FailoversSeen = rt.Counters()["failovers"]
	return nil
}

// String renders the report.
func (r *ClusterReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Sharded cluster — YCSB-A, %d ops, %d clients (shared router, split substreams)\n",
		r.Config.Ops, r.Config.Clients)
	fmt.Fprintf(&b, "scale rows: %d clients against a fixed 2-connection capacity per shard\n", scaleClients)
	fmt.Fprintf(&b, "%-12s %7s %10s %12s %9s %9s %8s\n",
		"scenario", "shards", "wall-ms", "ops/sec", "errors", "retries", "sheds")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-12s %7d %10.1f %12.0f %9d %9d %8d\n",
			row.Scenario, row.Shards, row.WallMs, row.OpsPerSec, row.Errors, row.Retries, row.Sheds)
	}
	fmt.Fprintf(&b, "router tax at one shard: %+.1f%% (median of paired ratios)\n", r.TaxPct)
	if n := len(r.BlackoutMs); n > 0 {
		sum := 0.0
		for _, v := range r.BlackoutMs {
			sum += v
		}
		fmt.Fprintf(&b, "failover blackout over %d kills: min %.1fms avg %.1fms max %.1fms (probe interval 1ms, 2-strike fence)\n",
			n, slices.Min(r.BlackoutMs), sum/float64(n), slices.Max(r.BlackoutMs))
		fmt.Fprintf(&b, "fence detection: avg %.0fus max %dus across %d failovers\n",
			r.DetectAvgUs, r.DetectMaxUs, r.FailoversSeen)
	}
	return b.String()
}

// Gates holds the hardened router to a throughput regression within 10%
// of a raw connection.
func (r *ClusterReport) Gates() []Gate {
	return []Gate{timing(atLeast("router tax at one shard", r.TaxPct, -10, "%"))}
}
