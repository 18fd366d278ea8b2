package cluster

import (
	"errors"
	"math"
	"sync"
	"time"

	"privagic/internal/memcached"
	"privagic/internal/obs"
)

// Hedged reads (DESIGN.md §15). A Get whose primary attempt stalls past
// an adaptive delay launches one duplicate on a spare pooled connection
// to the same shard; the first answer wins and the loser is aborted.
// Hedging trims the tail that latency health is too slow to catch — the
// single stalled round trip on an otherwise healthy shard — and is safe
// precisely because Gets are idempotent. The canceled loser never feeds
// the breaker or the latency EWMA: its failure is an artifact of the
// abort, and counting it would trip breakers on perfectly healthy
// networks.

// errHedgeCanceled marks the loser of a hedged pair. It never escapes
// getAttempt — only the winner's result is returned.
var errHedgeCanceled = errors.New("cluster: hedged attempt canceled")

// getRes is one Get attempt's outcome.
type getRes struct {
	v      []byte
	hit    bool
	tomb   bool   // a trusted tombstone: the key was deleted — authoritative miss
	stamp  uint32 // the served value's generation stamp (for read-repair)
	err    error
	hedged bool // true for the hedge (second) request of a pair
}

// hedgeTarget names the replica a stalled read hedges against. With
// replication the hedge goes to the NEXT set member (different shard,
// pool, and trust floor) instead of a second connection to the same
// shard — a stalled primary is exactly when the backup should answer.
type hedgeTarget struct {
	shard    int
	st       *shardState
	pool     *connPool
	acquired uint64
	// cross is true when the target is a different shard than the
	// primary. A cross-replica hedge may win only with a hit or a
	// trusted tombstone: its miss is not the primary's miss (the
	// replica may have joined the set later), so adopting it could
	// turn a primary hit into a served miss — a zero-loss violation.
	cross bool
}

// hedgeCtl lets getAttempt abort whichever half of a hedged pair loses.
// arm publishes the in-flight connection; finish marks the attempt
// settled and reports whether it was canceled first; cancel aborts the
// connection unless the attempt already finished. Abort (not Close) is
// the cancellation primitive: it only severs the socket, so it is safe
// against a concurrent blocked read.
type hedgeCtl struct {
	mu       sync.Mutex
	conn     *memcached.Client
	finished bool
	canceled bool
}

func (h *hedgeCtl) arm(c *memcached.Client) {
	h.mu.Lock()
	h.conn = c
	canceled := h.canceled
	h.mu.Unlock()
	if canceled {
		c.Abort()
	}
}

func (h *hedgeCtl) finish() (canceled bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.finished = true
	return h.canceled
}

func (h *hedgeCtl) cancel() {
	h.mu.Lock()
	conn, finished := h.conn, h.finished
	h.canceled = true
	h.mu.Unlock()
	if !finished && conn != nil {
		conn.Abort()
	}
}

// hedgeDelay picks how long the primary may stall before hedging:
// negative disables, positive is fixed, zero adapts to the shard —
// 8× its EWMA RTT, floored at OpTimeout/4 and capped at OpTimeout, so
// hedges fire on genuine stalls rather than routine fluctuation.
func (r *Router) hedgeDelay(st *shardState) time.Duration {
	if r.cfg.HedgeDelay != 0 {
		return r.cfg.HedgeDelay
	}
	ewma := math.Float64frombits(st.rtt.Load())
	if ewma <= 0 {
		return r.cfg.OpTimeout / 2
	}
	d := time.Duration(ewma*8) * time.Microsecond
	if min := r.cfg.OpTimeout / 4; d < min {
		d = min
	}
	if d > r.cfg.OpTimeout {
		d = r.cfg.OpTimeout
	}
	return d
}

// hedgePair is the per-Get hedge machinery: the two abort handles, the
// result channel, and the armed timer. Pairs are pooled and the timer is
// reused across Gets (Reset/Stop, never recreated), so the fast path —
// primary answers before the delay elapses — allocates nothing. The
// per-call fields are written before Reset and read by fire; the timer's
// internal lock orders the two, so fire always sees the current call's
// values.
type hedgePair struct {
	primary, hedge hedgeCtl
	ch             chan getRes
	timer          *time.Timer

	// Armed per call, before timer.Reset.
	r      *Router
	target hedgeTarget // where the hedge fires (the next replica, or the primary's own shard)
	key    string
	delay  time.Duration
}

var hedgePairPool = sync.Pool{New: func() any { return newHedgePair() }}

func newHedgePair() *hedgePair {
	p := &hedgePair{ch: make(chan getRes, 1)}
	p.timer = time.AfterFunc(time.Hour, p.fire)
	p.timer.Stop()
	return p
}

// fire runs in the timer goroutine when the primary has stalled past the
// hedge delay. It hedges only on a spare connection — tryGet never
// waits, so hedging can't cannibalize the pool under load — and on a
// genuine answer aborts the primary to unblock the caller. The channel
// send strictly precedes the cancel, so a caller that sees its primary
// canceled can always receive the hedge's result without blocking
// forever.
func (p *hedgePair) fire() {
	r := p.r
	t := p.target
	hc, ok := t.pool.tryGet()
	if !ok {
		p.ch <- getRes{err: errHedgeCanceled, hedged: true}
		return
	}
	r.hedges.Add(1)
	r.ins().tracer.Record(obs.EvHedge, t.shard, 0, 0, 0, p.delay.Microseconds())
	res := r.getOnConn(t.shard, t.st, t.pool, t.acquired, p.key, hc, &p.hedge, true)
	p.ch <- res
	// A cross-replica hedge may only preempt the primary with a hit or a
	// trusted tombstone (see hedgeTarget.cross); a same-shard hedge keeps
	// the original any-success-wins semantics.
	if res.err == nil && (!t.cross || res.hit || res.tomb) {
		p.primary.cancel()
	}
}

// release resets a pair and returns it to the pool. Only legal on the
// fast path, after timer.Stop() reported the timer never fired: fire is
// then guaranteed neither running nor pending, so nothing else can touch
// the pair's fields or channel.
func (p *hedgePair) release() {
	p.primary.conn, p.primary.finished, p.primary.canceled = nil, false, false
	p.hedge.conn, p.hedge.finished, p.hedge.canceled = nil, false, false
	p.r, p.target, p.key = nil, hedgeTarget{}, ""
	hedgePairPool.Put(p)
}

// getAttempt runs one (possibly hedged) Get attempt against shard.
//
// The primary runs inline on the calling goroutine; the hedge machinery
// is a pooled pair with a reused armed timer, so a Get that answers
// promptly — the overwhelmingly common case — pays a timer Reset/Stop
// and nothing else: no goroutine spawn, no channel round trip, no
// allocation (the router-tax acceptance bar in EXPERIMENTS.md is what
// forced this shape). When the timer does fire, the hedge runs in the
// timer's goroutine; the primary's canceled read surfaces as
// errHedgeCanceled and the caller adopts the hedge's result from the
// buffered channel. A pair whose timer fired is never re-pooled — fire
// may still be settling it — and is left to the collector; those Gets
// already cost a multi-millisecond stall, so the garbage is noise.
func (r *Router) getAttempt(shard int, st *shardState, pool *connPool, acquired uint64, key string, alt *hedgeTarget) getRes {
	delay := r.hedgeDelay(st)
	if delay < 0 || delay >= r.cfg.OpTimeout {
		// Disabled, or the primary would time out before the hedge ever
		// launched — either way the hedge could never win.
		return r.getOnce(shard, st, pool, acquired, key, nil, false)
	}
	p := hedgePairPool.Get().(*hedgePair)
	p.r, p.key, p.delay = r, key, delay
	if alt != nil {
		p.target = *alt
	} else {
		p.target = hedgeTarget{shard: shard, st: st, pool: pool, acquired: acquired}
	}
	p.timer.Reset(delay)
	res := r.getOnce(shard, st, pool, acquired, key, &p.primary, false)
	if p.timer.Stop() {
		p.release()
		return res // fast path: the hedge never launched
	}
	adopt := func(hres getRes) bool {
		// A failed primary adopts any hedge answer from its own shard,
		// but from another replica only a hit or tombstone (its miss
		// proves nothing about the primary's keyspace history).
		return hres.err == nil && (!p.target.cross || hres.hit || hres.tomb)
	}
	if !errors.Is(res.err, errHedgeCanceled) {
		// The primary settled on its own. If the hedge raced it to a
		// real answer while the primary failed, prefer the answer.
		if res.err != nil {
			select {
			case hres := <-p.ch:
				if adopt(hres) {
					r.hedgeWins.Add(1)
					r.ins().tracer.Record(obs.EvHedgeWin, p.target.shard, 0, 0, 0, delay.Microseconds())
					return hres
				}
			default:
			}
		}
		p.hedge.cancel()
		return res
	}
	// The primary was aborted by a winning hedge, whose result is
	// already in the channel.
	hres := <-p.ch
	if hres.err == nil {
		r.hedgeWins.Add(1)
		r.ins().tracer.Record(obs.EvHedgeWin, p.target.shard, 0, 0, 0, delay.Microseconds())
	}
	return hres
}

// getOnce acquires a connection and runs one Get round trip on it.
func (r *Router) getOnce(shard int, st *shardState, pool *connPool, acquired uint64, key string, ctl *hedgeCtl, hedged bool) getRes {
	c, err := pool.get()
	if err != nil {
		r.sample(shard, st, r.cfg.OpTimeout, false)
		r.nudge(shard)
		return getRes{err: err, hedged: hedged}
	}
	return r.getOnConn(shard, st, pool, acquired, key, c, ctl, hedged)
}

// getOnConn runs one Get round trip on c, applying the staleness fence
// and the integrity check, and settles the connection back into (or out
// of) the pool. Every settled outcome feeds sample() exactly once —
// required to complete half-open breaker trials — except a canceled
// hedge loser, which feeds nothing.
func (r *Router) getOnConn(shard int, st *shardState, pool *connPool, acquired uint64, key string, c *memcached.Client, ctl *hedgeCtl, hedged bool) getRes {
	if ctl != nil {
		ctl.arm(c)
	}
	start := time.Now()
	stored, flags, hit, err := c.GetFlags(key)
	rtt := time.Since(start)
	if ctl != nil && ctl.finish() {
		pool.discard(c) // aborted mid-flight; the socket is gone
		return getRes{err: errHedgeCanceled, hedged: hedged}
	}
	switch {
	case err == nil:
	case errors.Is(err, memcached.ErrBusy):
		pool.put(c) // shed responses leave the stream framed
		r.sample(shard, st, rtt, true)
		return getRes{err: err, hedged: hedged}
	default:
		pool.discard(c) // timeout, transport error or protocol violation
		r.sample(shard, st, r.cfg.OpTimeout, false)
		r.nudge(shard)
		return getRes{err: err, hedged: hedged}
	}
	res := getRes{hedged: hedged}
	if hit {
		if stampGen(flags) < acquired {
			// A survivor's copy from before the serving member (re)joined
			// the replica set: failover-window staleness, served as a
			// miss. The tombstone bit is excluded — the stamp alone
			// orders the value against the member's tenure.
			r.staleRejects.Add(1)
		} else if payload, okv := openValue(key, flags, stored); !okv {
			// The integrity tag does not verify: the bytes were damaged
			// somewhere between the original Set and this read — possibly
			// only on the wire, with the stored copy intact. Served as a
			// miss, never deleted: a reject may name the GENUINE newest
			// value whose transit copy got flipped, and deleting it would
			// erase the LWW register's memory — a delayed zombie write or
			// a racing repair could then resurrect an older value.
			// Rejected values are instead overwritten in place by
			// read-repair (equal or older stamps lose to the served copy)
			// or by the next write's higher stamp.
			r.corruptRejects.Add(1)
			r.ins().tracer.Record(obs.EvCorruptReject, shard, 0, 0, uint64(flags), int64(len(stored)))
		} else if flags&tombBit != 0 {
			// A trusted tombstone: the key was deleted, and the stamp
			// proves no newer write exists here — an authoritative miss
			// that stops the replica fallback. The tombstone is what keeps
			// a zombie of the deleted write out.
			res.tomb, res.stamp = true, flags
		} else {
			res.v, res.hit, res.stamp = payload, true, flags
		}
	}
	pool.put(c)
	r.sample(shard, st, rtt, true)
	return res
}
