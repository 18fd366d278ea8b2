package cluster

import (
	"errors"
	"math"
	"time"

	"privagic/internal/memcached"
	"privagic/internal/obs"
	"privagic/internal/retry"
)

// Latency-aware health (DESIGN.md §15). Fencing catches dead and hung
// shards; this file catches the gray ones — alive enough to answer a
// version probe, too slow to serve data. Every data-path operation
// (client traffic and the prober's canary get) feeds a per-shard EWMA of
// round-trip time; failed operations contribute a penalty sample equal
// to the operation timeout, which is the latency the caller actually
// paid. Once per probe round the EWMA is compared against the
// demote/promote thresholds with consecutive-strike hysteresis, so
// membership flips at probe cadence on sustained evidence, never on one
// noisy sample.

// ewmaKeep is the EWMA retention factor: new = keep·old + (1-keep)·sample.
// 0.7 makes ~3 consecutive bad samples dominate the estimate — fast
// detection — while a single outlier moves it less than a third of the
// way to the threshold.
const ewmaKeep = 0.7

// canaryKey is the reserved key of the prober's data-path canary get. It
// is never Set, so the canary is always a miss — the point is the
// round trip, not the value. Routed directly at the probed shard,
// bypassing the ring (ownership is irrelevant to an RTT measure).
const canaryKey = "__privagic_canary__"

// demoteStrikes is how many consecutive probe-round verdicts over
// SlowRTT demote a shard, and promoteStrikes how many under SlowRTT/4,
// with the breaker closed, promote a demoted one: one scheduler hiccup
// never flips membership.
const (
	demoteStrikes  = 3
	promoteStrikes = 2
)

// health is a shard's place in the router's one health state machine
// (docs/design/distribution.md has the full transition table). The
// three health signals — version probes (fence), the latency EWMA and
// the circuit breaker (demote) — are its inputs; setHealthLocked is its
// only writer. A shard is a ring member exactly when its health is
// healthUp.
type health uint8

const (
	healthUp          health = iota // in the ring, serving
	healthSyncReadmit               // respawned after a fence: cold store, syncing before entry
	healthSyncPromote               // recovered from a demotion: store missed writes, syncing
	healthSyncAdopt                 // replaced without a fence: cold store, syncing
	healthDemoted                   // too slow or breaker tripped: out, incarnation still trusted
	healthFenced                    // probes failed: out until a fresh epoch answers
)

// syncing reports whether the shard awaits anti-entropy before entry.
// The syncing values double as the repl.sync.start trace argument.
func (h health) syncing() bool { return h >= healthSyncReadmit && h <= healthSyncAdopt }

// setHealthLocked moves shard i to health to — every health transition
// goes through here. It moves ring membership, bumps the transition's
// counter, records its trace event and observes its histogram, where
// since anchors the measurement: detection start for a fence or a
// demotion (zero: nothing measured), sync start for entry. Caller holds
// r.mu and has already pointed st at a new incarnation (addr, epoch,
// pool) when to is healthSyncReadmit or healthSyncAdopt.
//
// A syncing target is where R=1 and R≥2 part. With replication the
// shard leaves the ring (if it has not already) and the prober's
// antiEntropy enters it with full trust once its store is proven
// complete (to == healthUp, ring.enter). R=1 has no live member to sync
// from, so the shard re-enters at once through ring.setUp — distrusted
// until the fresh generation, costing misses, never wrong answers.
func (r *Router) setHealthLocked(i int, to health, since time.Time) {
	st := r.shards[i]
	from := st.health
	if to == healthDemoted && (from == healthDemoted || from == healthFenced || r.ring.nUp <= 1) {
		// Only a serving or syncing shard demotes, and never the last
		// one in the ring: a degraded answer path beats ErrNoShards.
		return
	}
	if to == healthSyncReadmit || to == healthSyncAdopt {
		// The new incarnation shares no history with the wire that earned
		// the old one its latency estimate or breaker debt.
		st.rtt.Store(0)
		st.dataDown.Store(0)
		st.breaker.Reset()
	}
	if to == healthSyncAdopt {
		r.adoptions.Add(1)
	}
	if to != healthUp {
		// Entry keeps the slow strikes counted while syncing: the same
		// wire stays under the same verdict.
		st.slowStrikes, st.fastStrikes = 0, 0
	}
	ins := r.ins()
	switch {
	case to == healthFenced:
		gen := r.ring.setUp(i, false)
		if !since.IsZero() {
			// A zero since is a shard already dead when the router
			// started: no failure was detected, so none is counted.
			r.failovers.Add(1)
			ins.detectHist.Observe(time.Since(since).Microseconds())
			ins.tracer.Record(obs.EvFailover, i, 0, 0, st.epoch, int64(gen))
		}
	case to == healthDemoted:
		gen := r.ring.setUp(i, false)
		r.demotions.Add(1)
		if !since.IsZero() {
			ins.demoteHist.Observe(time.Since(since).Microseconds())
		}
		ins.tracer.Record(obs.EvDemote, i, 0, 0, st.epoch, int64(gen))
	case to == healthUp:
		gen := r.ring.enter(i)
		r.syncs.Add(1)
		r.countEntry(i, from, gen)
		elapsed := time.Since(since).Microseconds()
		ins.tracer.Record(obs.EvReplSyncDone, i, 0, 0, gen, elapsed)
		ins.syncHist.Observe(elapsed)
	case r.cfg.Replication > 1:
		r.ring.setUp(i, false)
	default:
		gen := r.ring.setUp(i, true)
		if to != healthSyncAdopt {
			r.countEntry(i, to, gen)
		}
		to = healthUp
	}
	st.health = to
}

// countEntry counts shard i's entry into the ring at generation gen by
// why it was out: a promotion after a demotion, a readmission after a
// new incarnation (respawn or adoption).
func (r *Router) countEntry(i int, why health, gen uint64) {
	if why == healthSyncPromote {
		r.promotions.Add(1)
		r.ins().tracer.Record(obs.EvPromote, i, 0, 0, r.shards[i].epoch, int64(gen))
		return
	}
	r.readmits.Add(1)
	r.ins().tracer.Record(obs.EvReadmit, i, 0, 0, r.shards[i].epoch, int64(gen))
}

// sample records the outcome of one data-path operation against shard:
// the RTT estimate, the RTT histogram (successes only — a penalty sample
// is a modeling device, not a measurement), the failure-streak anchor,
// and the circuit breaker. Breaker transitions surface here: a trip
// demotes the shard out of the ring immediately (keeping its
// incarnation trusted, unlike a fence) — consecutive hard
// failures are stronger evidence than a slow EWMA, and the asymmetric
// partition that kills only the data path never trips the fence at all.
func (r *Router) sample(shard int, st *shardState, rtt time.Duration, ok bool) {
	us := rtt.Microseconds()
	if us < 1 {
		us = 1
	}
	old := math.Float64frombits(st.rtt.Load())
	next := float64(us)
	if old > 0 {
		next = ewmaKeep*old + (1-ewmaKeep)*float64(us)
	}
	st.rtt.Store(math.Float64bits(next))

	if ok {
		st.dataDown.Store(0)
		r.ins().rttHist.Observe(us)
		if st.breaker.Success() {
			r.ins().tracer.Record(obs.EvBreakerClose, shard, 0, 0, 0, 0)
		}
		return
	}
	st.dataDown.CompareAndSwap(0, time.Now().UnixNano())
	if st.breaker.Failure() {
		r.breakerTrips.Add(1)
		r.ins().tracer.Record(obs.EvBreakerOpen, shard, 0, 0, 0, 0)
		since := time.Time{}
		if ns := st.dataDown.Load(); ns > 0 {
			since = time.Unix(0, ns)
		}
		r.mu.Lock()
		r.setHealthLocked(shard, healthDemoted, since)
		r.mu.Unlock()
	}
}

// evaluateHealth runs shard i's per-probe-round latency verdict:
// demoteStrikes consecutive rounds with the EWMA above SlowRTT demote;
// promoteStrikes consecutive rounds below SlowRTT/4 (with the breaker
// closed) promote a demoted shard back.
func (r *Router) evaluateHealth(i int) {
	st := r.shards[i]
	ewma := math.Float64frombits(st.rtt.Load())
	slow := float64(r.cfg.SlowRTT.Microseconds())
	fast := slow / 4

	r.mu.Lock()
	defer r.mu.Unlock()
	switch st.health {
	case healthFenced:
		// Only a respawn leaves a fence; latency has no say.
	case healthDemoted:
		// Look for sustained recovery. The breaker must be closed — a
		// half-open wire is not a recovered wire.
		if ewma > 0 && ewma < fast && st.breaker.State() == retry.BreakerClosed {
			st.fastStrikes++
			if st.fastStrikes >= promoteStrikes {
				r.setHealthLocked(i, healthSyncPromote, time.Time{})
			}
		} else {
			st.fastStrikes = 0
		}
	default: // up or syncing
		if ewma > slow {
			if st.slowStrikes == 0 {
				st.slowSince = time.Now()
			}
			st.slowStrikes++
			if st.slowStrikes >= demoteStrikes {
				r.setHealthLocked(i, healthDemoted, st.slowSince)
			}
		} else {
			st.slowStrikes = 0
		}
	}
}

// canaryOnce sends shard i's data-path canary get and runs the health
// verdict. The canary is what keeps latency health live without client
// traffic: a demoted shard sees no data ops, so only the canary can
// observe its recovery — and only the canary exercises the breaker's
// half-open trial when traffic has been routed away. It respects
// breaker admission, so an open breaker is probed exactly at its
// cooldown-governed pace, never stampeded.
func (r *Router) canaryOnce(i int, dconn **memcached.Client, dconnAddr *string) {
	st := r.shards[i]
	addr, _, running := r.dir.Addr(i)
	r.mu.Lock()
	fenced := st.health == healthFenced
	r.mu.Unlock()
	if !running || fenced {
		if *dconn != nil {
			(*dconn).Close()
			*dconn = nil
		}
		return
	}
	if !st.breaker.Allow() {
		return // open breaker, cooldown running: no sample this round
	}
	if *dconn != nil && *dconnAddr != addr {
		(*dconn).Close()
		*dconn = nil
	}
	// A failed canary is charged OpTimeout, not ProbeTimeout: the sample
	// models what a data operation would have paid on this wire, and it
	// must be able to clear SlowRTT (which defaults to OpTimeout/2) or
	// the canary could never demote an unreachable data path on its own.
	if *dconn == nil {
		c, err := memcached.DialTimeout(addr, r.cfg.ProbeTimeout)
		if err != nil {
			r.sample(i, st, r.cfg.OpTimeout, false)
			r.evaluateHealth(i)
			return
		}
		c.SetTimeout(r.cfg.ProbeTimeout)
		*dconn, *dconnAddr = c, addr
	}
	start := time.Now()
	_, _, err := (*dconn).Get(canaryKey)
	if err != nil && !errors.Is(err, memcached.ErrBusy) {
		(*dconn).Close()
		*dconn = nil
		r.sample(i, st, r.cfg.OpTimeout, false)
	} else {
		// A miss (the normal case) and a busy shed both prove the data
		// path answers; their RTT is the measurement.
		r.sample(i, st, time.Since(start), true)
	}
	r.evaluateHealth(i)
}
