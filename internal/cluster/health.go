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

// sample records the outcome of one data-path operation against shard:
// the RTT estimate, the RTT histogram (successes only — a penalty sample
// is a modeling device, not a measurement), the failure-streak anchor,
// and the circuit breaker. Breaker transitions surface here: a trip
// demotes the shard out of the ring immediately — consecutive hard
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
		r.demote(shard, since)
	}
}

// demote takes shard out of the ring for latency/breaker reasons while
// keeping its incarnation trusted (contrast fence: a demoted shard's
// store is intact and generation stamps age out nothing it owns, so
// promotion back at the same epoch is safe). The last up shard is never
// demoted — a degraded answer path beats ErrNoShards.
func (r *Router) demote(shard int, since time.Time) {
	st := r.shards[shard]
	r.mu.Lock()
	if st.fenced || st.demoted || r.ring.nUp <= 1 {
		r.mu.Unlock()
		return
	}
	st.demoted = true
	st.slowStrikes, st.fastStrikes = 0, 0
	gen := r.ring.setUp(shard, false)
	r.demotions.Add(1)
	if !since.IsZero() {
		r.ins().demoteHist.Observe(time.Since(since).Microseconds())
	}
	r.ins().tracer.Record(obs.EvDemote, shard, 0, 0, st.epoch, int64(gen))
	r.mu.Unlock()
}

// evaluateHealth runs shard i's per-probe-round latency verdict:
// DemoteStrikes consecutive rounds with the EWMA above SlowRTT demote;
// PromoteStrikes consecutive rounds below FastRTT (with the breaker
// closed) promote a demoted shard back.
func (r *Router) evaluateHealth(i int) {
	st := r.shards[i]
	ewma := math.Float64frombits(st.rtt.Load())
	slow := float64(r.cfg.SlowRTT.Microseconds())
	fast := float64(r.cfg.FastRTT.Microseconds())

	r.mu.Lock()
	if st.fenced {
		st.slowStrikes, st.fastStrikes = 0, 0
		r.mu.Unlock()
		return
	}
	if !st.demoted {
		if ewma > slow {
			if st.slowStrikes == 0 {
				st.slowSince = time.Now()
			}
			st.slowStrikes++
			if st.slowStrikes >= r.cfg.DemoteStrikes && r.ring.nUp > 1 {
				st.demoted = true
				st.slowStrikes, st.fastStrikes = 0, 0
				gen := r.ring.setUp(i, false)
				r.demotions.Add(1)
				r.ins().demoteHist.Observe(time.Since(st.slowSince).Microseconds())
				r.ins().tracer.Record(obs.EvDemote, i, 0, 0, st.epoch, int64(gen))
			}
		} else {
			st.slowStrikes = 0
		}
		r.mu.Unlock()
		return
	}
	// Demoted: look for sustained recovery. The breaker must be closed —
	// a half-open wire is not a recovered wire.
	if ewma > 0 && ewma < fast && st.breaker.State() == retry.BreakerClosed {
		st.fastStrikes++
		if st.fastStrikes >= r.cfg.PromoteStrikes {
			st.demoted = false
			st.slowStrikes, st.fastStrikes = 0, 0
			if r.cfg.Replication > 1 {
				// The store missed every write acked while the shard was
				// demoted; under replication it must sync before serving
				// (promotions ticks at ring entry, see antientropy.go).
				st.syncPending = syncPromote
			} else {
				gen := r.ring.setUp(i, true)
				r.promotions.Add(1)
				r.ins().tracer.Record(obs.EvPromote, i, 0, 0, st.epoch, int64(gen))
			}
		}
	} else {
		st.fastStrikes = 0
	}
	r.mu.Unlock()
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
	fenced := st.fenced
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
