package faults

import (
	"time"

	"privagic/internal/netfaults"
	"privagic/internal/obs"
)

// GrayChaos is the network-level twin of the shard-level Chaos monkey:
// instead of killing processes it degrades wires. It arms seeded-random
// gray faults — latency spikes, bandwidth throttles, asymmetric
// partitions, mid-message resets, byte corruption — on the
// fault-injecting links in front of a cluster's shards, then heals them
// after a bounded dwell. Every shard stays alive the whole time; only
// the network lies. The gray soak runs the router's traffic through
// these links and asserts the same oracle as the crash soak: every read
// fresh-or-miss, every failure typed, never a wrong answer. Start, Wait,
// Stop and Counters come from the shared scheduler (see monkey).
type GrayChaos struct {
	monkey
	cfg   GrayChaosConfig
	links []*netfaults.Link

	degraded         map[int]bool // guarded by mu
	latencySpikes    int64
	throttles        int64
	partitions       int64
	resetsArmed      int64
	corruptionsArmed int64
	heals            int64
}

// GrayChaosConfig tunes the gray monkey. The zero value arms one fault
// with the default timing and magnitudes.
type GrayChaosConfig struct {
	Seed int64

	// Actions is how many gray faults to arm (default 1).
	Actions int

	// MinDelay/MaxDelay bound the pause before each action (defaults
	// 1ms/5ms), so faults land at seeded-random points of the run.
	MinDelay, MaxDelay time.Duration

	// HealAfter is how long an armed fault dwells before the link is
	// healed (default 15ms). Dwell must comfortably exceed the router's
	// probe interval or the degradation is survivable noise that never
	// exercises demotion.
	HealAfter time.Duration

	// MaxDegraded caps concurrently degraded links (default NumLinks-1,
	// so at least one clean path always exists).
	MaxDegraded int

	// Latency/Jitter are the magnitude of an armed latency spike
	// (defaults 10ms / Latency/2). Spikes are armed on the data class
	// only: the probe path answering while data crawls is the definition
	// of the gray failure under test.
	Latency time.Duration
	Jitter  time.Duration

	// BytesPerSec is the armed throttle rate (default 8 KiB/s — slow
	// enough that a multi-hundred-byte response visibly stretches).
	BytesPerSec int

	// ResetEvery / CorruptEvery are the per-chunk periods of armed
	// reset and corruption faults (defaults 3 / 3).
	ResetEvery   int
	CorruptEvery int

	// SettleFunc, when set, gates each action: the monkey polls it until
	// true before arming the next fault. Replication soaks wire it to
	// "every shard is back in the router's ring", so a second gray fault
	// never lands while a fenced-and-respawned shard is still syncing —
	// a link heal alone does not mean the system recovered, and without
	// the gate sequential faults can compound past the single-failure
	// budget the zero-loss oracle assumes.
	SettleFunc func() bool
}

// NewGrayChaos builds a gray monkey over links. Call Start to unleash it.
func NewGrayChaos(links []*netfaults.Link, cfg GrayChaosConfig) *GrayChaos {
	if cfg.HealAfter <= 0 {
		cfg.HealAfter = 15 * time.Millisecond
	}
	if cfg.MaxDegraded <= 0 || cfg.MaxDegraded >= len(links) {
		cfg.MaxDegraded = len(links) - 1
		if cfg.MaxDegraded < 1 {
			cfg.MaxDegraded = 1
		}
	}
	if cfg.Latency <= 0 {
		cfg.Latency = 10 * time.Millisecond
	}
	if cfg.Jitter <= 0 {
		cfg.Jitter = cfg.Latency / 2
	}
	if cfg.BytesPerSec <= 0 {
		cfg.BytesPerSec = 8 << 10
	}
	if cfg.ResetEvery <= 0 {
		cfg.ResetEvery = 3
	}
	if cfg.CorruptEvery <= 0 {
		cfg.CorruptEvery = 3
	}
	g := &GrayChaos{
		monkey:   newMonkey(cfg.Seed, cfg.Actions, cfg.MinDelay, cfg.MaxDelay),
		cfg:      cfg,
		links:    links,
		degraded: map[int]bool{},
	}
	g.act = g.arm
	g.counterList = []obs.NamedCounter{
		{Name: "latency_spikes", Load: g.locked(&g.latencySpikes)},
		{Name: "throttles", Load: g.locked(&g.throttles)},
		{Name: "partitions", Load: g.locked(&g.partitions)},
		{Name: "resets_armed", Load: g.locked(&g.resetsArmed)},
		{Name: "corruptions_armed", Load: g.locked(&g.corruptionsArmed)},
		{Name: "heals", Load: g.locked(&g.heals)},
	}
	return g
}

// arm arms one gray fault against a random clean link, honoring the
// clean-path floor, and schedules the link's heal. With a SettleFunc it
// first waits for the system to settle; a stop during the wait arms
// nothing.
func (g *GrayChaos) arm() {
	if !g.settle(g.cfg.SettleFunc) {
		return
	}
	g.mu.Lock()
	if len(g.degraded) >= g.cfg.MaxDegraded {
		g.mu.Unlock()
		return
	}
	var candidates []int
	for i := range g.links {
		if !g.degraded[i] {
			candidates = append(candidates, i)
		}
	}
	if len(candidates) == 0 {
		g.mu.Unlock()
		return
	}
	victim := candidates[g.rng.Intn(len(candidates))]
	g.degraded[victim] = true
	kind := g.rng.Intn(5)
	g.mu.Unlock()

	link := g.links[victim]
	switch kind {
	case 0:
		// Latency spike on the data class only: probes answer instantly
		// while data crawls — the canonical gray failure.
		link.SetFaults(netfaults.Data, netfaults.Faults{
			Latency: g.cfg.Latency,
			Jitter:  g.cfg.Jitter,
		})
		g.count(&g.latencySpikes)
	case 1:
		link.SetFaults(netfaults.Data, netfaults.Faults{BytesPerSec: g.cfg.BytesPerSec})
		g.count(&g.throttles)
	case 2:
		// Asymmetric partition, three flavors: answers lost, requests
		// lost, or the probe path dead while data flows (the router must
		// not confuse any of them with overload or a crash).
		f := netfaults.Faults{DropS2C: true}
		class := netfaults.Data
		switch g.rng.Intn(3) {
		case 1:
			f = netfaults.Faults{DropC2S: true}
		case 2:
			class = netfaults.Probe
		}
		link.SetFaults(class, f)
		g.count(&g.partitions)
	case 3:
		link.SetFaults(netfaults.Data, netfaults.Faults{ResetEvery: g.cfg.ResetEvery})
		g.count(&g.resetsArmed)
	case 4:
		link.SetFaults(netfaults.Data, netfaults.Faults{CorruptEvery: g.cfg.CorruptEvery})
		g.count(&g.corruptionsArmed)
	}

	g.after(g.cfg.HealAfter, func() {
		link.Heal()
		g.mu.Lock()
		g.heals++
		delete(g.degraded, victim)
		g.mu.Unlock()
	})
}

// RegisterMetrics folds the monkey's counters into reg under the gray.
// prefix (the gray.* block of the metric catalogue).
func (g *GrayChaos) RegisterMetrics(reg *obs.Registry) {
	reg.RegisterSource("gray", g)
}

var _ CounterSource = (*GrayChaos)(nil)
