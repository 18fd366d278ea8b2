package bench

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"privagic/internal/cluster"
	"privagic/internal/netfaults"
	"privagic/internal/obs"
)

// The grayfail experiment measures the two latency-health mechanisms PR 7
// added to the router, each against its acceptance bar:
//
//   - Demotion latency: a shard whose data path turns slow — while its
//     version probes stay instant, so epoch fencing never fires — must be
//     demoted out of the ring within 5× the probe interval, measured from
//     the first slow sample the health loop observed (the
//     cluster.demote_detect_us histogram). The cycle is run repeatedly,
//     with a heal + promotion between cycles, so the number reported is a
//     max over independent detections, not one lucky run.
//   - Hedged-read tail: under a link with base jitter plus brief latency
//     spikes (a chunk caught by a spike is held 15ms — the transient
//     stall hedging exists for; a hedge launched moments later rides a
//     fresh path that the spike has already released), the same Get loop
//     runs with hedging disabled and enabled and reports p50/p99; the
//     acceptance bar is a p99 win.

// GrayFailConfig parameterizes the experiment.
type GrayFailConfig struct {
	// Cycles is how many demote/heal/promote rounds the detection
	// measurement runs.
	Cycles int
	// Ops is the Get count per hedge scenario row.
	Ops int
}

// DefaultGrayFail returns the full-scale setup.
func DefaultGrayFail() GrayFailConfig {
	return GrayFailConfig{Cycles: 8, Ops: 4000}
}

// grayProbeInterval is the demotion row's probe cadence; the acceptance
// budget is five of these. It is chosen so the budget is honest: with a
// 10ms injected one-way latency a canary round trip costs ~20ms, and
// three demote strikes at that cadence land well inside 5×20ms = 100ms.
const grayProbeInterval = 20 * time.Millisecond

// HedgeRow is one tail-latency measurement.
type HedgeRow struct {
	Scenario string
	Ops      int
	Errors   int64
	P50Ms    float64
	P99Ms    float64
	Hedges   int64
	Wins     int64
}

// GrayFailReport holds both measurements.
type GrayFailReport struct {
	Config GrayFailConfig

	// Demotion detection latency across Config.Cycles independent cycles.
	ProbeIntervalMs float64
	BudgetMs        float64
	DemoteAvgMs     float64
	DemoteMaxMs     float64
	Demotions       int64
	Promotions      int64

	Rows []HedgeRow
}

// grayProxyDir fronts each shard with a fault-injecting netfaults.Link:
// the router dials the stable proxy addresses while epoch and liveness
// come from the real directory (the bench twin of the cluster package's
// test proxyDirectory).
type grayProxyDir struct {
	c     *cluster.Cluster
	links []*netfaults.Link
	group *netfaults.Group
}

func newGrayProxyDir(c *cluster.Cluster, seed int64) (*grayProxyDir, error) {
	n := c.NumShards()
	pd := &grayProxyDir{c: c, links: make([]*netfaults.Link, n)}
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
			for _, prev := range pd.links {
				if prev != nil {
					prev.Close()
				}
			}
			return nil, err
		}
		pd.links[i] = l
	}
	pd.group = netfaults.NewGroup(pd.links...)
	return pd, nil
}

func (pd *grayProxyDir) NumShards() int { return pd.c.NumShards() }

func (pd *grayProxyDir) Addr(i int) (string, uint64, bool) {
	_, epoch, running := pd.c.Addr(i)
	return pd.links[i].Addr(), epoch, running
}

// GrayFail runs the experiment.
func GrayFail(cfg GrayFailConfig) (*GrayFailReport, error) {
	if cfg.Cycles < 1 {
		cfg.Cycles = 1
	}
	if cfg.Ops < 100 {
		cfg.Ops = 100
	}
	rep := &GrayFailReport{Config: cfg}
	if err := grayDemotion(cfg, rep); err != nil {
		return nil, err
	}
	for _, hedged := range []bool{false, true} {
		row, err := grayHedgeRow(cfg, hedged)
		if err != nil {
			return nil, err
		}
		rep.Rows = append(rep.Rows, row)
	}
	return rep, nil
}

// grayWait polls cond at 1ms until it holds or the deadline passes.
func grayWait(d time.Duration, what string, cond func() bool) error {
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			return fmt.Errorf("bench: grayfail: timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// grayDemotion measures slow-shard detection: inject a 10ms one-way data
// latency on one shard of three (probe path untouched), wait for the
// health loop to demote it, heal, wait for the promotion, repeat. The
// canary alone drives the measurement — no client traffic — so the
// number is the health loop's own reaction time.
func grayDemotion(cfg GrayFailConfig, rep *GrayFailReport) error {
	cl, err := cluster.New(cluster.Config{Shards: 3})
	if err != nil {
		return err
	}
	defer cl.Close()
	pd, err := newGrayProxyDir(cl, 1)
	if err != nil {
		return err
	}
	defer pd.group.Close()
	rcfg := cluster.RouterConfig{
		OpTimeout:     50 * time.Millisecond,
		ProbeInterval: grayProbeInterval,
		ProbeTimeout:  5 * time.Millisecond,
		SlowRTT:       8 * time.Millisecond,
	}
	rt, err := cluster.NewRouter(pd, rcfg)
	if err != nil {
		return err
	}
	defer rt.Close()
	reg := obs.NewRegistry()
	rt.Instrument(reg, nil)

	for k := 0; k < cfg.Cycles; k++ {
		want := int64(k + 1)
		pd.links[0].SetFaults(netfaults.Data, netfaults.Faults{Latency: 10 * time.Millisecond})
		if err := grayWait(10*time.Second, "demotion", func() bool {
			return rt.Counters()["demotions"] >= want
		}); err != nil {
			return err
		}
		pd.links[0].Heal()
		// Promotion needs the EWMA to decay below SlowRTT/4 and then two
		// clean strikes — slower than detection by design (hysteresis).
		if err := grayWait(10*time.Second, "promotion", func() bool {
			m := rt.Counters()
			return m["promotions"] >= want && m["shards_up"] == 3
		}); err != nil {
			return err
		}
	}
	count, sum, max := reg.Histogram("cluster.demote_detect_us").Stats()
	if count > 0 {
		rep.DemoteAvgMs = float64(sum) / float64(count) / 1e3
	}
	rep.DemoteMaxMs = float64(max) / 1e3
	rep.ProbeIntervalMs = float64(grayProbeInterval.Microseconds()) / 1e3
	rep.BudgetMs = 5 * rep.ProbeIntervalMs
	m := rt.Counters()
	rep.Demotions, rep.Promotions = m["demotions"], m["promotions"]
	return nil
}

// graySpikes flips a 15ms latency fault on for 1ms out of every 16ms
// until stop closes. A chunk forwarded inside the window is held the
// full 15ms even though the link heals underneath it — exactly the
// transient stall where a hedge's fresh request, forwarded after the
// heal, answers immediately while the primary's bytes are still asleep.
func graySpikes(l *netfaults.Link, base netfaults.Faults, stop chan struct{}) {
	spike := base
	spike.Latency = 15 * time.Millisecond
	for {
		l.SetFaults(netfaults.Data, spike)
		select {
		case <-stop:
			l.SetFaults(netfaults.Data, base)
			return
		case <-time.After(time.Millisecond):
		}
		l.SetFaults(netfaults.Data, base)
		select {
		case <-stop:
			return
		case <-time.After(15 * time.Millisecond):
		}
	}
}

// grayHedgeRow runs the Get loop over one shard behind a spiky link
// (2ms base jitter, periodic 15ms stalls) with hedging disabled or
// enabled, and reports the latency percentiles.
func grayHedgeRow(cfg GrayFailConfig, hedged bool) (HedgeRow, error) {
	row := HedgeRow{Scenario: "hedge off", Ops: cfg.Ops}
	hedgeDelay := -time.Millisecond // negative disables
	if hedged {
		row.Scenario = "hedge 3ms"
		hedgeDelay = 3 * time.Millisecond
	}
	cl, err := cluster.New(cluster.Config{Shards: 1})
	if err != nil {
		return row, err
	}
	defer cl.Close()
	pd, err := newGrayProxyDir(cl, 7)
	if err != nil {
		return row, err
	}
	defer pd.group.Close()
	rcfg := cluster.RouterConfig{
		OpTimeout:     100 * time.Millisecond,
		ProbeInterval: 10 * time.Millisecond,
		ProbeTimeout:  50 * time.Millisecond,
		// Keep latency health out of the row: the spiky wire is what is
		// under test, not a shard to demote (and a lone shard is never
		// demoted anyway).
		SlowRTT:    80 * time.Millisecond,
		HedgeDelay: hedgeDelay,
	}
	rt, err := cluster.NewRouter(pd, rcfg)
	if err != nil {
		return row, err
	}
	defer rt.Close()

	const keys = 64
	value := make([]byte, benchValueSize)
	for i := 0; i < keys; i++ {
		if err := rt.Set(fmt.Sprintf("g%d", i), value); err != nil {
			return row, fmt.Errorf("bench: grayfail load: %w", err)
		}
	}
	base := netfaults.Faults{Jitter: 2 * time.Millisecond}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		graySpikes(pd.links[0], base, stop)
	}()
	defer func() {
		close(stop)
		<-done
	}()

	lat := make([]float64, 0, cfg.Ops)
	for n := 0; n < cfg.Ops; n++ {
		key := fmt.Sprintf("g%d", n%keys)
		start := time.Now()
		_, _, err := rt.Get(key)
		lat = append(lat, float64(time.Since(start).Microseconds())/1e3)
		if err != nil {
			row.Errors++
		}
	}
	sort.Float64s(lat)
	row.P50Ms = lat[len(lat)/2]
	row.P99Ms = lat[len(lat)*99/100]
	m := rt.Counters()
	row.Hedges, row.Wins = m["hedges"], m["hedge_wins"]
	return row, nil
}

// String renders the report.
func (r *GrayFailReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Gray-failure hardening — demotion latency and hedged-read tail\n")
	fmt.Fprintf(&b, "slow-shard demotion over %d cycles (10ms one-way data latency, probes clean, %dms probe interval):\n",
		r.Config.Cycles, int(r.ProbeIntervalMs))
	fmt.Fprintf(&b, "  detect avg %.1fms max %.1fms\n", r.DemoteAvgMs, r.DemoteMaxMs)
	fmt.Fprintf(&b, "  demotions %d, promotions %d (every cycle healed and promoted back)\n",
		r.Demotions, r.Promotions)
	fmt.Fprintf(&b, "hedged Gets under a spiky link (2ms jitter + 15ms stalls 1ms-in-16), %d ops each:\n", r.Config.Ops)
	fmt.Fprintf(&b, "  %-10s %9s %9s %9s %9s %8s\n", "scenario", "p50-ms", "p99-ms", "hedges", "wins", "errors")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-10s %9.1f %9.1f %9d %9d %8d\n",
			row.Scenario, row.P50Ms, row.P99Ms, row.Hedges, row.Wins, row.Errors)
	}
	return b.String()
}

// Gates holds slow-shard demotion to 5x the probe interval and requires
// hedging to cut the p99 of Gets under a spiky link.
func (r *GrayFailReport) Gates() []Gate {
	win := 0.0
	if off := r.Rows[0].P99Ms; off > 0 {
		win = 100 * (1 - r.Rows[1].P99Ms/off)
	}
	hedged := timing(Gate{Name: "hedged p99 win over unhedged", Value: win, Unit: "%", Bar: "> 0%", Pass: win > 0})
	return []Gate{timing(atMost("gray demotion detect max", r.DemoteMaxMs, r.BudgetMs, "ms")), hedged}
}
