package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"time"

	"privagic/internal/memcached"
	"privagic/internal/obs"
)

// Replicated writes and reads (DESIGN.md §16). Every ring segment is
// served by a replica set (primary plus successors, see ring.go); a
// write goes through to every in-ring set member and acknowledges only
// when all of them hold it, so the failure of any single member never
// loses an acknowledged write — reads fall back across the set and some
// live member always answers. Writes are ordered per key by a strictly
// increasing stamp and stored through the LWW register verb (setx), so
// a zombie write — a timed-out attempt the network delivers late —
// loses the comparison instead of overwriting newer progress. Deletes
// are tombstones: a write of the same shape whose flags carry tombBit,
// replicated and stamped like any other, so "deleted" wins over the
// write it supersedes on every member.

// tombBit marks a flags word as a tombstone; the remaining 31 bits
// (stampMask) are the generation stamp. The bit is excluded from LWW
// and staleness comparisons so a delete at stamp s beats the stamp-s
// write it supersedes, and is checked on reads to turn a trusted
// tombstone into an authoritative miss.
//
// The stamp itself is generation-major: the high 15 bits are the ring
// generation at write time, the low 16 a per-key sequence within that
// generation (carrying into the generation bits on overflow). The two
// layers answer different questions and must not be conflated. LWW
// compares the whole stamp — per-key writes are totally ordered, so a
// zombie write always loses. The staleness trust check compares ONLY
// the generation part against the serving member's joined floor: a
// reshuffle-joiner must reject values written before its tenure, and a
// hot key's sequence numbers would otherwise outrun the ring generation
// and smuggle pre-tenure residue past the floor. The 15 generation bits
// bound a router's lifetime at 32k membership changes — far beyond any
// soak; widen the split before shipping a router that churns more.
const (
	tombBit      = uint32(1) << 31
	stampMask    = tombBit - 1
	stampSeqBits = 16
	stampGenMax  = stampMask >> stampSeqBits
)

// stampGen extracts a stamp's write-time ring generation (the staleness
// trust coordinate).
func stampGen(flags uint32) uint64 {
	return uint64((flags & stampMask) >> stampSeqBits)
}

// genFloor is the smallest stamp a write minted at ring generation g can
// carry (the generation saturates at stampGenMax; see the lifetime note
// on stampSeqBits). Both the stamp oracle and the generation-floor GC
// derive their floors from it, so "prunable" and "re-mintable above"
// agree by construction.
func genFloor(g uint64) uint32 {
	if g > uint64(stampGenMax) {
		g = uint64(stampGenMax)
	}
	return uint32(g) << stampSeqBits
}

// writePlan is one write attempt's routing snapshot: the replica set,
// its pools, the stamped flags word, and the sealed bytes — resolved
// atomically under the router mutex (prepareWrite) so the stamp, the
// set, and any hinted handoffs belong to the same ring instant.
type writePlan struct {
	seg    segment
	pools  [maxReplication]*connPool
	flags  uint32
	sealed []byte
	gen    uint64
}

// prepareWrite resolves a write under the router mutex: picks the
// replica set, mints the key's next stamp, seals the value, and queues
// hinted handoffs for any down shard that belongs to the key's
// converged (all-up) set. Queueing under the same mutex as routing is
// what makes readmission race-free: ring entry checks the queue is
// drained under this mutex, so no write can slip between "queue empty"
// and "in the ring".
func (r *Router) prepareWrite(key string, value []byte, tomb bool) (writePlan, bool) {
	h := keyHash(key)
	r.mu.Lock()
	defer r.mu.Unlock()
	seg, ok := r.ring.lookupSet(h)
	if !ok {
		return writePlan{}, false
	}
	// Per-key strictly increasing: at least the current generation's
	// floor (so a member's tenure orders against it) and always above
	// the key's previous stamp (so setx totally orders this key's
	// writes). A sequence overflow carries into the generation bits,
	// which only ever makes a value look newer — safe for LWW, and
	// 65k same-generation writes to one key away from mattering.
	prev := r.stamps[key]
	stamp := genFloor(r.ring.gen)
	if s := prev + 1; s > stamp {
		stamp = s
	}
	if stamp > stampMask {
		stamp = stampMask
	}
	if stamp <= prev {
		// The stamp space is exhausted for this key (prev already sat at
		// stampMask): strict per-key ordering has stopped and the LWW
		// register's >= comparison now lets the last arrival win — the
		// zombie-write guarantee is gone for this key. Degrade loudly,
		// never silently: a long-lived router approaching the 32k
		// membership-change bound shows up in this counter long before
		// it misorders a write.
		r.stampClamps.Add(1)
		r.ins().tracer.Record(obs.EvReplStampClamp, seg.shard[0], 0, 0, r.ring.gen, int64(stamp))
	}
	r.stamps[key] = stamp
	flags := stamp
	if tomb {
		flags |= tombBit
	}
	plan := writePlan{seg: seg, flags: flags, sealed: sealValue(key, flags, value), gen: r.ring.gen}
	for k := 0; k < seg.n; k++ {
		plan.pools[k] = r.shards[seg.shard[k]].pool
	}
	var buf [maxReplication]int
	for _, s := range r.ring.hintFor(h, buf[:0]) {
		discarded, err := r.hints.enqueue(s, hint{key: key, sealed: plan.sealed, flags: flags})
		if err != nil {
			r.hintOverflows.Add(1)
			r.hintsDiscarded.Add(int64(discarded))
			r.ins().tracer.Record(obs.EvReplOverflow, s, 0, 0, plan.gen, int64(discarded))
		} else {
			r.hintsQueued.Add(1)
			r.ins().tracer.Record(obs.EvReplHint, s, 0, 0, plan.gen, int64(stamp))
		}
	}
	return plan, true
}

// Set stores key=value on every in-ring member of its replica set,
// acknowledging only when all of them hold it (all-or-retry; see the
// package comment on why that plus read fallback is zero-loss). The
// value is sealed with an end-to-end integrity tag over (key, flags,
// value) — wire corruption anywhere in the store/fetch path is detected
// at Get time instead of becoming a wrong answer.
func (r *Router) Set(key string, value []byte) error {
	return r.write(key, value, false)
}

// Delete removes key by replicating a tombstone: an empty sealed value
// whose flags carry tombBit over the key's next stamp. The tombstone
// beats the write it supersedes on every member (LWW) and turns reads
// into authoritative misses, so neither a zombie of the deleted write
// nor a lagging replica can resurrect the value. found reports whether
// a replicated read observed the key just before the tombstone landed.
func (r *Router) Delete(key string) (found bool, err error) {
	_, found, err = r.Get(key)
	if err != nil {
		return false, err
	}
	if werr := r.write(key, nil, true); werr != nil {
		return found, werr
	}
	return found, nil
}

// beginWrite/endWrite bracket a key's write loop so read-repair can
// tell mid-fan-out lag from genuine divergence (see Router.writing).
func (r *Router) beginWrite(key string) {
	r.mu.Lock()
	r.writing[key]++
	r.mu.Unlock()
}

func (r *Router) endWrite(key string) {
	r.mu.Lock()
	if r.writing[key]--; r.writing[key] <= 0 {
		delete(r.writing, key)
	}
	r.mu.Unlock()
}

func (r *Router) writeInFlight(key string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.writing[key] > 0
}

// write is the shared replicated write loop: route + stamp, breaker
// admission over the whole set, fan-out, retry on any member failure.
func (r *Router) write(key string, value []byte, tomb bool) error {
	r.beginWrite(key)
	defer r.endWrite(key)
	var lastErr error
	for attempt := 0; attempt < r.cfg.Retry.MaxAttempts; attempt++ {
		if attempt > 0 {
			r.retries.Add(1)
			if serr := r.cfg.Retry.Sleep(r.ctx, attempt); serr != nil {
				// Router closed mid-backoff: surface what we know.
				if lastErr == nil {
					lastErr = serr
				}
				break
			}
		}
		plan, ok := r.prepareWrite(key, value, tomb)
		if !ok {
			lastErr = ErrNoShards
			continue // a probe may readmit a shard within the budget
		}
		if attempt > 0 {
			r.ins().tracer.Record(obs.EvRouteRetry, plan.seg.shard[0], 0, 0, plan.gen, int64(attempt))
		}
		// Ack-all means one open breaker fails the whole attempt: fail
		// it instantly instead of burning a timeout on a known-bad wire.
		blocked := -1
		for k := 0; k < plan.seg.n; k++ {
			if !r.shards[plan.seg.shard[k]].breaker.Allow() {
				blocked = plan.seg.shard[k]
				break
			}
		}
		if blocked >= 0 {
			r.breakerFastfail.Add(1)
			lastErr = fmt.Errorf("cluster: shard %d: %w", blocked, ErrBreakerOpen)
			continue
		}
		if err := r.fanOut(key, plan); err != nil {
			lastErr = err
			continue
		}
		r.routes.Add(1)
		if tomb {
			r.tombstones.Add(1)
			r.ins().tracer.Record(obs.EvReplTombstone, plan.seg.shard[0], 0, 0, plan.gen, int64(plan.flags&stampMask))
		}
		return nil
	}
	return r.finishAttempts(lastErr)
}

// fanOut writes the plan to every set member: inline when the set is a
// single shard (the R=1 fast path pays no goroutine), pipelined
// otherwise — every member's setx request is sent before any reply is
// awaited, so all round trips overlap on the wire while the whole
// fan-out stays on the caller's goroutine (no spawn, park, or wake per
// write; on a loaded box the scheduler churn of a goroutine-per-replica
// fan-out was the bulk of the replication tax over the R·work floor).
// Success requires every member to have stored or LWW-refused (a
// refusal means a newer value is already there — this write is
// subsumed, which satisfies its guarantee). Each connection's deadline
// is armed at send time, so a member that hangs between Send and Recv
// still fails within the op timeout.
func (r *Router) fanOut(key string, plan writePlan) error {
	n := plan.seg.n
	if n == 1 {
		return r.setOne(plan.seg.shard[0], plan.pools[0], key, plan)
	}
	var conns [maxReplication]*memcached.Client
	var starts [maxReplication]time.Time
	var errs [maxReplication]error
	for k := 0; k < n; k++ {
		shard := plan.seg.shard[k]
		st := r.shards[shard]
		c, err := plan.pools[k].get()
		if err != nil {
			r.sample(shard, st, r.cfg.OpTimeout, false)
			r.nudge(shard)
			errs[k] = err
			continue
		}
		starts[k] = time.Now()
		if err := c.SetXSend(key, plan.sealed, plan.flags); err != nil {
			plan.pools[k].discard(c)
			r.sample(shard, st, r.cfg.OpTimeout, false)
			r.nudge(shard)
			errs[k] = err
			continue
		}
		conns[k] = c
	}
	for k := 0; k < n; k++ {
		if conns[k] == nil {
			continue
		}
		shard := plan.seg.shard[k]
		st := r.shards[shard]
		stored, err := conns[k].SetXRecv(key, plan.flags)
		rtt := time.Since(starts[k])
		errs[k] = err
		switch {
		case err == nil:
			plan.pools[k].put(conns[k])
			r.sample(shard, st, rtt, true)
			if !stored {
				r.lwwRefused.Add(1) // a newer write already landed; subsumed
			}
		case errors.Is(err, memcached.ErrBusy):
			plan.pools[k].put(conns[k]) // shed responses leave the stream framed
			r.sample(shard, st, rtt, true)
		default:
			plan.pools[k].discard(conns[k]) // timeout or torn stream: redial
			r.sample(shard, st, r.cfg.OpTimeout, false)
			r.nudge(shard)
		}
	}
	for k := 1; k < n; k++ {
		if errs[k] == nil {
			r.replicaWrites.Add(1)
		} else {
			r.replicaWriteErrors.Add(1)
		}
	}
	for k := 0; k < n; k++ {
		if errs[k] != nil {
			return errs[k]
		}
	}
	return nil
}

// setOne runs one member's setx round trip, with the standard
// connection settlement and health sampling.
func (r *Router) setOne(shard int, pool *connPool, key string, plan writePlan) error {
	st := r.shards[shard]
	c, err := pool.get()
	if err != nil {
		r.sample(shard, st, r.cfg.OpTimeout, false)
		r.nudge(shard)
		return err
	}
	start := time.Now()
	stored, err := c.SetX(key, plan.sealed, plan.flags)
	rtt := time.Since(start)
	switch {
	case err == nil:
		pool.put(c)
		r.sample(shard, st, rtt, true)
		if !stored {
			r.lwwRefused.Add(1) // a newer write already landed; subsumed
		}
		return nil
	case errors.Is(err, memcached.ErrBusy):
		pool.put(c) // shed responses leave the stream framed
		r.sample(shard, st, rtt, true)
		return err
	default:
		pool.discard(c) // timeout or torn stream: redial next attempt
		r.sample(shard, st, r.cfg.OpTimeout, false)
		r.nudge(shard)
		return err
	}
}

// Get fetches key, falling back across the replica set: breaker-open,
// erroring, and trusted-missing members are passed over until some
// member answers with a trusted hit or tombstone. A stalled member
// hedges against the NEXT replica (see hedge.go). A miss is served only
// when every in-ring member answered a trusted miss — under the
// MaxDown=1 failure budget at least one set member has seen the key's
// full history, so an all-member miss proves the key was never
// acknowledged (or was deleted).
func (r *Router) Get(key string) (value []byte, ok bool, err error) {
	var lastErr error
	for attempt := 0; attempt < r.cfg.Retry.MaxAttempts; attempt++ {
		if attempt > 0 {
			r.retries.Add(1)
			if serr := r.cfg.Retry.Sleep(r.ctx, attempt); serr != nil {
				if lastErr == nil {
					lastErr = serr
				}
				break
			}
		}
		seg, pools, rok := r.routeSet(key)
		if !rok {
			lastErr = ErrNoShards
			continue
		}
		if attempt > 0 {
			r.ins().tracer.Record(obs.EvRouteRetry, seg.shard[0], 0, 0, 0, int64(attempt))
		}
		res, done := r.getReplicated(key, seg, pools)
		if done {
			r.routes.Add(1)
			return res.v, res.hit, nil
		}
		lastErr = res.err
	}
	return nil, false, r.finishAttempts(lastErr)
}

// getReplicated runs one fallback sweep over the replica set. done is
// false when no member produced a servable answer and at least one
// failed — the outer loop retries rather than inventing a miss, because
// a miss concluded while a member is unreachable could contradict an
// acknowledged write that only that member saw applied.
func (r *Router) getReplicated(key string, seg segment, pools [maxReplication]*connPool) (getRes, bool) {
	var missed [maxReplication]int
	nMissed := 0
	var lastErr error
	for idx := 0; idx < seg.n; idx++ {
		shard := seg.shard[idx]
		st := r.shards[shard]
		if !st.breaker.Allow() {
			r.breakerFastfail.Add(1)
			lastErr = fmt.Errorf("cluster: shard %d: %w", shard, ErrBreakerOpen)
			continue
		}
		var alt *hedgeTarget
		if next := idx + 1; next < seg.n {
			alt = &hedgeTarget{
				shard:    seg.shard[next],
				st:       r.shards[seg.shard[next]],
				pool:     pools[next],
				acquired: seg.joined[next],
				cross:    true,
			}
		}
		res := r.getAttempt(shard, st, pools[idx], seg.joined[idx], key, alt)
		switch {
		case res.err != nil:
			lastErr = res.err
		case res.tomb:
			// Trusted tombstone: the key was deleted — authoritative.
			if idx > 0 {
				r.fallbackReads.Add(1)
				r.ins().tracer.Record(obs.EvReplFallback, shard, 0, 0, 0, int64(idx))
			}
			return getRes{}, true
		case res.hit:
			if idx > 0 {
				r.fallbackReads.Add(1)
				r.ins().tracer.Record(obs.EvReplFallback, shard, 0, 0, 0, int64(idx))
			}
			// Members passed over with a trusted miss are missing this
			// value: repair them now, CAS-guarded, so divergence heals at
			// read time instead of waiting for the next sync.
			for j := 0; j < nMissed; j++ {
				r.readRepair(key, seg.shard[missed[j]], pools[missed[j]], res)
			}
			return res, true
		default:
			missed[nMissed] = idx
			nMissed++
		}
	}
	if lastErr == nil {
		return getRes{}, true // every in-ring member trusted-missed
	}
	return getRes{err: lastErr}, false
}

// readRepair copies a served value onto a set member that answered a
// trusted miss. The store is CAS-guarded: the repairer reads the
// member's current token and swaps only against it, so a newer write
// racing in between is never clobbered — the repairer observes the
// conflict and stands down. The value is re-sealed under its original
// stamp, byte-identical to what the serving member holds.
func (r *Router) readRepair(key string, shard int, pool *connPool, served getRes) {
	if r.writeInFlight(key) {
		// The key's writer is still fanning out (or retrying): the member
		// that looked behind is about to be written by the ack-all loop
		// itself. Repairing now would just race it.
		return
	}
	c, err := pool.get()
	if err != nil {
		return // best-effort: the next read or sync will retry
	}
	sealed := sealValue(key, served.stamp, served.v)
	cur, flags, casid, present, err := c.Gets(key)
	if err != nil {
		if errors.Is(err, memcached.ErrBusy) {
			pool.put(c)
		} else {
			pool.discard(c)
		}
		return
	}
	switch {
	case !present:
		ok, aerr := c.Add(key, sealed, served.stamp)
		switch {
		case aerr == nil && ok:
			r.readRepairs.Add(1)
			r.ins().tracer.Record(obs.EvReplRepair, shard, 0, 0, 0, int64(served.stamp&stampMask))
		case aerr == nil:
			r.repairConflicts.Add(1) // a write landed first; it is newer
		case errors.Is(aerr, memcached.ErrBusy):
			pool.put(c)
			return
		default:
			pool.discard(c)
			return
		}
	case flags&stampMask > served.stamp&stampMask:
		// The member moved ahead on its own: a newer write landed.
	case flags&stampMask == served.stamp&stampMask && bytes.Equal(cur, sealed):
		// The member caught up with byte-identical content — the usual
		// race of a read overlapping the write's own fan-out. Nothing to
		// heal; counting it as a repair would make the clean-control
		// soak's zero-spurious-repairs assertion unprovable.
	default:
		// An older stamp, or an EQUAL stamp with different bytes — the
		// latter is a divergent copy of the same write (damaged at rest
		// or mid-wire on the store path; rejects never delete, so the
		// residue stays until overwritten). CAS in the served, verified
		// bytes.
		switch cerr := c.Cas(key, sealed, served.stamp, casid); {
		case cerr == nil:
			r.readRepairs.Add(1)
			r.ins().tracer.Record(obs.EvReplRepair, shard, 0, 0, 0, int64(served.stamp&stampMask))
		case errors.Is(cerr, memcached.ErrCasConflict) || errors.Is(cerr, memcached.ErrNotFound):
			r.repairConflicts.Add(1) // a newer write won; stand down
		case errors.Is(cerr, memcached.ErrBusy):
			pool.put(c)
			return
		default:
			pool.discard(c)
			return
		}
	}
	pool.put(c)
}
