package bench

import (
	"fmt"
	"strings"
	"time"

	"privagic/internal/cluster"
	"privagic/internal/obs"
)

// The replication experiment (DESIGN.md §16) prices and proves the
// replicated router, in two parts:
//
//   - Replication tax: YCSB-A throughput through the router at R=2 vs
//     R=1 on the same 3-shard cluster. R=2 doubles write fan-out (every
//     Set acks two members) and leaves reads on the primary, so the mix
//     pays roughly half its ops twice. The acceptance bar is a tax
//     within 35% of R=1, measured as the median of per-rep paired
//     ratios (same damping as the cluster experiment's router tax).
//   - Outage drill: a deterministic kill → write-through-outage →
//     respawn → readmit cycle, repeated. Every acknowledged write must
//     read back (zero loss: reads during the outage fall back, reads
//     after readmission may land on the returned shard), hints must
//     queue and drain, the readmission sync and drain windows come from
//     the repl.* histograms, and one staged divergence must heal
//     through CAS-guarded read-repair. Every defense the soaks rely on
//     is asserted nonzero here, on a clean deterministic schedule.

// ReplicationConfig parameterizes the experiment.
type ReplicationConfig struct {
	// Ops is the total operation count per throughput row.
	Ops int
	// Clients is the concurrent client count.
	Clients int
	// Reps runs each R=1/R=2 pair this many times (median of paired
	// ratios; minimum 5 enforced).
	Reps int
	// Outages is how many kill/respawn cycles the drill runs.
	Outages int
	// KeysPerOutage is how many keys are written before and during each
	// outage (each checked for zero loss).
	KeysPerOutage int
}

// DefaultReplication returns the full-scale setup.
func DefaultReplication() ReplicationConfig {
	return ReplicationConfig{Ops: 24000, Clients: 6, Reps: 7, Outages: 5, KeysPerOutage: 50}
}

// ReplicationReport holds the tax pair and the outage drill's evidence.
type ReplicationReport struct {
	Config ReplicationConfig
	Rows   []ClusterRow // scenario "R=1" / "R=2", best rep of each

	// TaxPct is the throughput cost of R=2 vs R=1 as the median of
	// per-rep paired ratios, in percent (positive = R=2 slower).
	TaxPct float64

	// Outage drill evidence.
	LostReads     int   // acked writes that ever read back as a miss (must be 0)
	CheckedReads  int   // zero-loss reads performed
	Outages       int   // completed kill/respawn cycles
	ReplicaWrites int64 // fan-out writes beyond the primary
	Fallbacks     int64 // reads answered by a non-primary member
	HintsQueued   int64
	HintsDrained  int64
	Syncs         int64 // anti-entropy readmissions completed
	ReadRepairs   int64 // staged divergences healed at read time

	// Readmission windows from the repl.* histograms, microseconds.
	SyncAvgUs, SyncMaxUs   float64
	DrainAvgUs, DrainMaxUs float64
}

// Replication runs the experiment.
func Replication(cfg ReplicationConfig) (*ReplicationReport, error) {
	if cfg.Ops < 1 {
		cfg.Ops = 1
	}
	if cfg.Clients < 1 {
		cfg.Clients = 1
	}
	if cfg.Reps < 5 {
		cfg.Reps = 5
	}
	if cfg.Outages < 1 {
		cfg.Outages = 1
	}
	if cfg.KeysPerOutage < 1 {
		cfg.KeysPerOutage = 1
	}
	rep := &ReplicationReport{Config: cfg}

	var r1, r2 []ClusterRow
	p, err := paired(cfg.Reps,
		keep(&r1, func(s *span) (ClusterRow, error) { return replicationRow(s, cfg, 1) }),
		keep(&r2, func(s *span) (ClusterRow, error) { return replicationRow(s, cfg, 2) }))
	if err != nil {
		return nil, err
	}
	rep.TaxPct = 100 * (1 - 1/p.Ratio)
	rep.Rows = append(rep.Rows, r1[p.A.Best], r2[p.B.Best])

	if err := replicationDrill(cfg, rep); err != nil {
		return nil, err
	}
	return rep, nil
}

// replicationRow measures YCSB-A throughput at the given replication
// factor on a 3-shard cluster with client-wide pools (capacity is not
// the bottleneck; the fan-out is what differs between rows).
func replicationRow(s *span, cfg ReplicationConfig, replication int) (ClusterRow, error) {
	rcfg := benchRouterConfig()
	rcfg.PoolConns = cfg.Clients + 2
	rcfg.Replication = replication
	return routedRow(s, fmt.Sprintf("R=%d", replication), 3, cfg.Clients*2, cfg.Clients, cfg.Ops, rcfg)
}

// replicationDrill is the deterministic outage cycle: write, kill,
// verify zero loss through fallback, write through the outage (hints),
// respawn, wait for the anti-entropy readmission, verify zero loss
// again, and finally stage one divergence and watch read-repair heal
// it. Counters and histograms come from one instrumented router across
// all cycles.
func replicationDrill(cfg ReplicationConfig, rep *ReplicationReport) error {
	cl, err := cluster.New(cluster.Config{Shards: 3})
	if err != nil {
		return err
	}
	defer cl.Close()
	rcfg := fastProbeConfig()
	rcfg.Replication = 2
	rt, err := cluster.NewRouter(cl, rcfg)
	if err != nil {
		return err
	}
	defer rt.Close()
	reg := obs.NewRegistry()
	rt.Instrument(reg, nil)

	checkAll := func(prefix string, n int) error {
		for i := 0; i < n; i++ {
			key := fmt.Sprintf("%s%d", prefix, i)
			var lastErr error
			deadline := time.Now().Add(2 * time.Second)
			for time.Now().Before(deadline) {
				v, ok, err := rt.Get(key)
				if err != nil {
					lastErr = err
					time.Sleep(time.Millisecond) // transient (mid-fence); retry
					continue
				}
				rep.CheckedReads++
				if !ok || string(v) != "v" {
					rep.LostReads++
				}
				lastErr = nil
				break
			}
			if lastErr != nil {
				return fmt.Errorf("bench: replication drill: get %s: %w", key, lastErr)
			}
		}
		return nil
	}

	victim := 0
	for cycle := 0; cycle < cfg.Outages; cycle++ {
		pre := fmt.Sprintf("rd%d-", cycle)
		for i := 0; i < cfg.KeysPerOutage; i++ {
			if err := rt.Set(fmt.Sprintf("%s%d", pre, i), []byte("v")); err != nil {
				return fmt.Errorf("bench: replication drill: set: %w", err)
			}
		}
		if err := cl.Kill(victim); err != nil {
			return err
		}
		// Zero loss through the outage: every acked key must read back
		// while the victim is dead (fallback) and fencing is racing.
		if err := checkAll(pre, cfg.KeysPerOutage); err != nil {
			return err
		}
		// Writes during the outage queue hints for the victim.
		during := fmt.Sprintf("rw%d-", cycle)
		for i := 0; i < cfg.KeysPerOutage; i++ {
			if err := rt.Set(fmt.Sprintf("%s%d", during, i), []byte("v")); err != nil {
				return fmt.Errorf("bench: replication drill: outage set: %w", err)
			}
		}
		if err := cl.Respawn(victim); err != nil {
			return err
		}
		deadline := time.Now().Add(2 * time.Second)
		for !rt.InRing(victim) {
			if time.Now().After(deadline) {
				return fmt.Errorf("bench: replication drill: shard %d was not readmitted", victim)
			}
			time.Sleep(time.Millisecond)
		}
		// Zero loss after readmission: reads may now land on the
		// returned shard, which must have synced and drained.
		if err := checkAll(pre, cfg.KeysPerOutage); err != nil {
			return err
		}
		if err := checkAll(during, cfg.KeysPerOutage); err != nil {
			return err
		}
		rep.Outages++
	}

	// Staged divergence: a member loses its copy; one read must heal it.
	if err := rt.Set("repair-me", []byte("v")); err != nil {
		return err
	}
	cl.Store(rt.Owner("repair-me")).Delete("repair-me")
	if _, ok, err := rt.Get("repair-me"); err != nil || !ok {
		return fmt.Errorf("bench: replication drill: read of damaged key: ok=%v err=%v", ok, err)
	}

	cs := rt.Counters()
	rep.ReplicaWrites = cs["repl.replica_writes"]
	rep.Fallbacks = cs["repl.fallback_reads"]
	rep.HintsQueued = cs["repl.hints_queued"]
	rep.HintsDrained = cs["repl.hints_drained"]
	rep.Syncs = cs["repl.syncs"]
	rep.ReadRepairs = cs["repl.read_repairs"]
	if count, sum, max := reg.Histogram("repl.sync_us").Stats(); count > 0 {
		rep.SyncAvgUs, rep.SyncMaxUs = float64(sum)/float64(count), float64(max)
	}
	if count, sum, max := reg.Histogram("repl.handoff_drain_us").Stats(); count > 0 {
		rep.DrainAvgUs, rep.DrainMaxUs = float64(sum)/float64(count), float64(max)
	}
	return nil
}

// String renders the report.
func (r *ReplicationReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Replication — YCSB-A, %d ops, %d clients, 3 shards, R=2 vs R=1\n",
		r.Config.Ops, r.Config.Clients)
	fmt.Fprintf(&b, "%-12s %7s %10s %12s %9s %9s %8s\n",
		"scenario", "shards", "wall-ms", "ops/sec", "errors", "retries", "sheds")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-12s %7d %10.1f %12.0f %9d %9d %8d\n",
			row.Scenario, row.Shards, row.WallMs, row.OpsPerSec, row.Errors, row.Retries, row.Sheds)
	}
	fmt.Fprintf(&b, "replication tax (R=2 vs R=1): %.1f%% (median of paired ratios)\n", r.TaxPct)
	fmt.Fprintf(&b, "outage drill: %d cycles, %d zero-loss reads, %d lost\n",
		r.Outages, r.CheckedReads, r.LostReads)
	fmt.Fprintf(&b, "defenses: replica_writes=%d fallbacks=%d hints_queued=%d hints_drained=%d syncs=%d read_repairs=%d\n",
		r.ReplicaWrites, r.Fallbacks, r.HintsQueued, r.HintsDrained, r.Syncs, r.ReadRepairs)
	fmt.Fprintf(&b, "readmission windows: sync avg %.0fus max %.0fus | hint drain avg %.0fus max %.0fus\n",
		r.SyncAvgUs, r.SyncMaxUs, r.DrainAvgUs, r.DrainMaxUs)
	return b.String()
}

// Gates holds R=2 to a throughput tax within 35% of R=1, the outage drill
// to zero lost reads, and every defense the soaks rely on to have fired.
func (r *ReplicationReport) Gates() []Gate {
	fired := r.ReplicaWrites
	for _, c := range []int64{r.Fallbacks, r.HintsQueued, r.HintsDrained, r.Syncs, r.ReadRepairs} {
		fired = min(fired, c)
	}
	return []Gate{
		timing(atMost("replication tax (R=2 vs R=1)", r.TaxPct, 35, "%")),
		atMost("replication lost reads", float64(r.LostReads), 0, ""),
		atLeast("replication defense counters (least fired)", float64(fired), 1, ""),
	}
}
