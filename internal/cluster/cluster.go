// Package cluster is the partitioned, multi-instance memcached of
// ROADMAP item 2: N independent shard instances — each with its own
// store, worker pool and PR-2 admission control — behind a
// consistent-hashing client router with health probes, per-operation
// deadlines, bounded retry-with-backoff (the shared internal/retry
// policy), and shard failover. A shard can be killed, hung or respawned
// mid-run; the router fences the dead incarnation's epoch, re-routes its
// key ranges to survivors, and readmits only a respawned replacement —
// with ownership-generation stamping guaranteeing that no client ever
// reads a survivor's stale copy as a live value (DESIGN.md §14).
//
// The split into router + shards mirrors the decompose-into-components
// design space of Atamli-Reineh & Martin (PAPERS.md): each shard is one
// failure domain, the router is the untrusted interconnect, and the
// headline property is that a domain can die without a silent wrong
// answer escaping.
package cluster

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"privagic/internal/memcached"
	"privagic/internal/obs"
)

// Config sizes a cluster. The zero value of every field gets a sane
// default except Shards, which is required.
type Config struct {
	// Shards is the number of independent memcached instances.
	Shards int
	// Workers is each shard's connection-serving pool (default 8). One
	// worker serves one connection at a time, so it bounds per-shard
	// concurrency the same way the paper's worker threads do.
	Workers int
	// MaxInflight is each shard's admission cap (PR-2 backpressure):
	// commands beyond it shed with SERVER_ERROR busy. 0 disables.
	MaxInflight int32
	// Saturated, when set, is each shard's backend-pressure probe (wired
	// into memcached.Admission.Saturated).
	Saturated func(shard int) func() bool
}

// storeBuckets is each shard's hash-table bucket count.
const storeBuckets = 1 << 12

// shardSlot is one shard's lifecycle cell.
type shardSlot struct {
	mu      sync.Mutex
	store   *memcached.Store
	srv     *memcached.Server
	addr    string
	epoch   uint64
	running bool
}

// Cluster manages N shard instances and implements the router's
// Directory (control plane) and the chaos monkey's kill/hang/respawn
// surface (data-plane faults).
type Cluster struct {
	cfg    Config
	shards []*shardSlot

	kills    atomic.Int64
	hangs    atomic.Int64
	respawns atomic.Int64

	counterList []obs.NamedCounter

	tracer *obs.Tracer

	closed atomic.Bool
}

// New starts a cluster of cfg.Shards live shard instances.
func New(cfg Config) (*Cluster, error) {
	if cfg.Shards <= 0 {
		return nil, fmt.Errorf("cluster: need at least one shard")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 8
	}
	c := &Cluster{cfg: cfg, shards: make([]*shardSlot, cfg.Shards)}
	c.counterList = []obs.NamedCounter{
		{Name: "kills", Load: c.kills.Load},
		{Name: "hangs", Load: c.hangs.Load},
		{Name: "respawns", Load: c.respawns.Load},
	}
	for i := range c.shards {
		c.shards[i] = &shardSlot{}
		if err := c.start(i); err != nil {
			c.Close()
			return nil, err
		}
	}
	return c, nil
}

// start boots shard i's backend: a cold store, a fresh server on a fresh
// port, and the next epoch. Caller holds no locks.
func (c *Cluster) start(i int) error {
	sl := c.shards[i]
	sl.mu.Lock()
	defer sl.mu.Unlock()
	store := memcached.NewStore(storeBuckets, 0) // no LRU bound
	srv, err := memcached.NewServer("127.0.0.1:0", store, c.cfg.Workers)
	if err != nil {
		return fmt.Errorf("cluster: shard %d: %w", i, err)
	}
	if c.cfg.MaxInflight > 0 || c.cfg.Saturated != nil {
		adm := memcached.Admission{MaxInflight: c.cfg.MaxInflight}
		if c.cfg.Saturated != nil {
			adm.Saturated = c.cfg.Saturated(i)
		}
		srv.SetAdmission(adm)
	}
	sl.store, sl.srv, sl.addr = store, srv, srv.Addr()
	sl.epoch++
	sl.running = true
	return nil
}

// Close kills every shard.
func (c *Cluster) Close() {
	if !c.closed.CompareAndSwap(false, true) {
		return
	}
	for i := range c.shards {
		_ = c.Kill(i)
	}
}

// Instrument arms shard-lifecycle trace events (shard.kill,
// shard.respawn) on tracer. Router instrumentation is separate — a
// router is a client and may outlive or be outnumbered by clusters.
func (c *Cluster) Instrument(tracer *obs.Tracer) { c.tracer = tracer }

// NumShards reports the shard count (fixed for the cluster's lifetime).
func (c *Cluster) NumShards() int { return len(c.shards) }

// Addr is the Directory control plane: shard i's current address and
// epoch, with running=false while it is dead.
func (c *Cluster) Addr(i int) (addr string, epoch uint64, running bool) {
	sl := c.shards[i]
	sl.mu.Lock()
	defer sl.mu.Unlock()
	return sl.addr, sl.epoch, sl.running
}

// Epoch returns shard i's incarnation number.
func (c *Cluster) Epoch(i int) uint64 {
	sl := c.shards[i]
	sl.mu.Lock()
	defer sl.mu.Unlock()
	return sl.epoch
}

// Running reports whether shard i currently serves.
func (c *Cluster) Running(i int) bool {
	sl := c.shards[i]
	sl.mu.Lock()
	defer sl.mu.Unlock()
	return sl.running
}

// Store exposes shard i's store for tests and benchmarks (nil while the
// shard is dead).
func (c *Cluster) Store(i int) *memcached.Store {
	sl := c.shards[i]
	sl.mu.Lock()
	defer sl.mu.Unlock()
	if !sl.running {
		return nil
	}
	return sl.store
}

// Kill crashes shard i: every live connection is severed mid-operation
// and the listener closes. The store is discarded — a dead cache shard
// loses its contents, which is exactly why readmission must be cold.
func (c *Cluster) Kill(i int) error {
	sl := c.shards[i]
	sl.mu.Lock()
	if !sl.running {
		sl.mu.Unlock()
		return fmt.Errorf("cluster: shard %d already dead", i)
	}
	srv, epoch := sl.srv, sl.epoch
	sl.running = false
	sl.srv, sl.store = nil, nil
	sl.mu.Unlock()
	srv.Kill()
	c.kills.Add(1)
	c.tracer.Record(obs.EvShardKill, i, 0, 0, epoch, 0)
	return nil
}

// Hang stalls shard i for d: connections stay open and commands are
// read, but nothing is answered until d passes — the wedged-not-dead
// failure mode. The router's deadlines and probes must convert it into a
// fence; the shard itself recovers on its own, but once fenced only a
// respawn (fresh epoch, cold store) is readmitted.
func (c *Cluster) Hang(i int, d time.Duration) error {
	sl := c.shards[i]
	sl.mu.Lock()
	defer sl.mu.Unlock()
	if !sl.running {
		return fmt.Errorf("cluster: shard %d is dead", i)
	}
	sl.srv.Pause(d)
	c.hangs.Add(1)
	return nil
}

// Respawn replaces shard i with a fresh incarnation: cold store, new
// listener, epoch+1. A still-running shard is killed first, so Respawn
// is also the recovery path for a fenced-but-alive (hung) shard.
func (c *Cluster) Respawn(i int) error {
	if c.closed.Load() {
		return fmt.Errorf("cluster: closed")
	}
	sl := c.shards[i]
	sl.mu.Lock()
	running := sl.running
	sl.mu.Unlock()
	if running {
		_ = c.Kill(i)
	}
	if err := c.start(i); err != nil {
		return err
	}
	c.respawns.Add(1)
	c.tracer.Record(obs.EvShardRespawn, i, 0, 0, c.Epoch(i), 0)
	return nil
}

// RespawnAfter schedules a respawn of shard i once delay passes, but
// only if the shard is still at epoch (a newer incarnation means someone
// else already recovered it). This is the supervision hook the router's
// OnFence callback wires to — the recovery layer's bounded-restart idea
// applied to whole shards.
func (c *Cluster) RespawnAfter(i int, epoch uint64, delay time.Duration) {
	time.AfterFunc(delay, func() {
		if c.closed.Load() || c.Epoch(i) != epoch {
			return
		}
		_ = c.Respawn(i)
	})
}

// ShedOps sums SERVER_ERROR busy refusals across live shards.
func (c *Cluster) ShedOps() int64 {
	var total int64
	for _, sl := range c.shards {
		sl.mu.Lock()
		if sl.running {
			total += sl.srv.ShedOps()
		}
		sl.mu.Unlock()
	}
	return total
}

// Counters is the chaos-visible lifecycle tally (CounterSource shape;
// obs.SnapshotCounters over the static list built in New).
func (c *Cluster) Counters() map[string]int64 {
	return obs.SnapshotCounters(c.counterList)
}
