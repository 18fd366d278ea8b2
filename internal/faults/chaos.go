package faults

import (
	"time"

	"privagic/internal/obs"
)

// ShardCluster is the fault surface of a sharded deployment: what the
// chaos monkey needs to crash, wedge and resurrect whole shards mid-run.
// internal/cluster.Cluster implements it; declaring the interface here
// keeps the dependency arrow pointing the same way as the rest of the
// fault layer (faults knows shapes, never the cluster package).
type ShardCluster interface {
	NumShards() int
	Kill(shard int) error
	Hang(shard int, d time.Duration) error
	Respawn(shard int) error
	Running(shard int) bool
}

// ChaosConfig tunes the shard-level chaos monkey. The zero value injects
// one kill with the default timing.
type ChaosConfig struct {
	Seed int64

	// Actions is how many shard faults to inject (default 1).
	Actions int

	// MinDelay/MaxDelay bound the pause before each action (defaults
	// 1ms/5ms): faults land at seeded-random points of the run, not at
	// fixed phases.
	MinDelay, MaxDelay time.Duration

	// HangFraction is the probability an action wedges the shard instead
	// of killing it (default 0: kills only). Hangs exercise the
	// fenced-but-alive path — the shard recovers on its own but must stay
	// quarantined until a respawn.
	HangFraction float64
	// HangFor is how long a hung shard stalls (default 20ms). Must exceed
	// the router's probe budget or the hang is survivable noise.
	HangFor time.Duration

	// RespawnAfter is how long a disrupted shard stays down before the
	// monkey resurrects it with a cold store and a fresh epoch (default
	// 10ms). The respawn is the recovery half of the experiment: it must
	// trigger readmission, and its cold store must never surface stale
	// data.
	RespawnAfter time.Duration

	// MaxDown caps concurrently disrupted shards (default NumShards-1, so
	// at least one survivor always holds the keyspace).
	MaxDown int

	// SettleFunc, when set, gates the release of a victim's MaxDown
	// budget after its respawn: the monkey polls it until true before
	// counting the shard recovered. Replication soaks wire it to the
	// router's ring membership, so MaxDown bounds shards missing from
	// the ROUTER's view — a respawned shard still waiting on
	// anti-entropy readmission holds its budget, keeping the injected
	// faults inside the failure model the zero-loss oracle assumes
	// (R replicas tolerate R-1 concurrent losses).
	SettleFunc func(shard int) bool
}

// Chaos kills, hangs and respawns shards of a ShardCluster at seeded
// random times. Like the message-level Injector it reports what it did
// through Counters; unlike the Injector it operates on wall-clock time —
// shard failure detection is itself a timing phenomenon, so the soak
// asserts invariants that hold for every interleaving rather than
// replaying one. Start, Wait, Stop and Counters come from the shared
// scheduler (see monkey).
type Chaos struct {
	monkey
	cfg     ChaosConfig
	cluster ShardCluster

	disrupted map[int]bool // guarded by mu
	kills     int64
	hangs     int64
	respawns  int64
}

// NewChaos builds a chaos monkey over cluster. Call Start to unleash it.
func NewChaos(cluster ShardCluster, cfg ChaosConfig) *Chaos {
	if cfg.HangFor <= 0 {
		cfg.HangFor = 20 * time.Millisecond
	}
	if cfg.RespawnAfter <= 0 {
		cfg.RespawnAfter = 10 * time.Millisecond
	}
	if cfg.MaxDown <= 0 || cfg.MaxDown >= cluster.NumShards() {
		cfg.MaxDown = cluster.NumShards() - 1
		if cfg.MaxDown < 1 {
			cfg.MaxDown = 1
		}
	}
	c := &Chaos{
		monkey:    newMonkey(cfg.Seed, cfg.Actions, cfg.MinDelay, cfg.MaxDelay),
		cfg:       cfg,
		cluster:   cluster,
		disrupted: map[int]bool{},
	}
	c.act = c.strike
	c.counterList = []obs.NamedCounter{
		{Name: "kills", Load: c.locked(&c.kills)},
		{Name: "hangs", Load: c.locked(&c.hangs)},
		{Name: "respawns", Load: c.locked(&c.respawns)},
	}
	return c
}

// strike injects one fault against a random undisrupted shard, honoring
// the survivor floor, and schedules the victim's resurrection.
func (c *Chaos) strike() {
	hang := c.rng.Float64() < c.cfg.HangFraction

	c.mu.Lock()
	if len(c.disrupted) >= c.cfg.MaxDown {
		c.mu.Unlock()
		return
	}
	var candidates []int
	for i := 0; i < c.cluster.NumShards(); i++ {
		if !c.disrupted[i] {
			candidates = append(candidates, i)
		}
	}
	if len(candidates) == 0 {
		c.mu.Unlock()
		return
	}
	victim := candidates[c.rng.Intn(len(candidates))]
	c.disrupted[victim] = true
	c.mu.Unlock()

	var err error
	if hang {
		err = c.cluster.Hang(victim, c.cfg.HangFor)
	} else {
		err = c.cluster.Kill(victim)
	}
	if err != nil {
		c.mu.Lock()
		delete(c.disrupted, victim)
		c.mu.Unlock()
		return
	}
	if hang {
		c.count(&c.hangs)
	} else {
		c.count(&c.kills)
	}

	// Resurrection restores capacity and — because Respawn always means a
	// cold store at a fresh epoch — is the only path back into the ring.
	c.after(c.cfg.RespawnAfter, func() {
		if c.cluster.Respawn(victim) == nil {
			c.count(&c.respawns)
		}
		// A respawned shard is not recovered until it settles: with
		// replication the router readmits it only after anti-entropy
		// sync, and releasing the MaxDown budget before that would let
		// the monkey take down a second shard while this one is still
		// outside the ring — silently exceeding the failure model the
		// zero-loss oracle assumes. A stop releases the budget at once.
		if f := c.cfg.SettleFunc; f != nil {
			c.settle(func() bool { return f(victim) })
		}
		c.mu.Lock()
		delete(c.disrupted, victim)
		c.mu.Unlock()
	})
}

// RegisterMetrics folds the monkey's counters into reg under the chaos.
// prefix (the chaos.* block of the metric catalogue).
func (c *Chaos) RegisterMetrics(reg *obs.Registry) {
	reg.RegisterSource("chaos", c)
}

var _ CounterSource = (*Chaos)(nil)
