package cluster

import (
	"time"

	"privagic/internal/obs"
)

// Anti-entropy readmission (DESIGN.md §16). A shard coming back — a
// respawn after a fence, a latency-health promotion, a hot-swapped
// incarnation adopted mid-flight — has a store that is cold or has
// missed writes. Under replication it must NOT re-enter the ring until
// its store provably holds everything the live members hold for every
// segment it is about to serve: admitted early, its trusted misses
// would contradict acknowledged writes. The prober therefore runs this
// sync loop first: compare per-segment digests against every live
// in-ring member, pull divergent segments key by key through the LWW
// register (original stamps preserved, so ordering survives), replay
// the shard's hinted-handoff queue, and only then — atomically with a
// final drained-queue check under the router mutex — enter the ring
// with full trust (ring.enter).

// maxSyncRounds bounds one antiEntropy call; if the ring keeps moving
// or hints keep racing in past this, the prober's next round resumes.
const maxSyncRounds = 16

// antiEntropy runs shard's sync-then-enter flow, if it is syncing, on
// the shard's prober goroutine (never under the router mutex during
// network I/O). On any member error it returns without entering; the
// shard stays syncing, so the next prober round retries. A shard fenced
// or demoted meanwhile is no longer syncing, and the flow stands down (a
// demoted one syncs again once promoted). Readmission ordering is the
// invariant: ring.enter happens only under the mutex, only after the
// segment scan matched the generation and the pool it planned against
// and the hint queue is empty.
func (r *Router) antiEntropy(shard int) {
	st := r.shards[shard]
	start := time.Now()
	for round := 0; round < maxSyncRounds; round++ {
		r.mu.Lock()
		kind := st.health
		if !kind.syncing() {
			r.mu.Unlock()
			return
		}
		gen := r.ring.gen
		plan := r.syncPlanLocked(shard)
		full := r.hints.needsFullSync(shard)
		ovf := r.hints.overflowEpoch(shard)
		pool := st.pool
		r.mu.Unlock()
		if round == 0 {
			r.ins().tracer.Record(obs.EvReplSyncStart, shard, 0, 0, 0, int64(kind))
		}

		if !r.reconcileSegments(shard, pool, plan, full) {
			return // a member came apart mid-sync; retry next prober round
		}
		if !r.drainHints(shard, pool) {
			return
		}

		if hook := r.cfg.SyncHook; hook != nil && round == 0 {
			hook(shard)
		}
		r.mu.Lock()
		if !st.health.syncing() {
			r.mu.Unlock()
			return
		}
		if r.ring.gen != gen || st.pool != pool {
			// Membership moved while syncing, so the plan may be stale
			// (segments gained or lost), or the prober adopted a new
			// incarnation, whose store the sync never filled: replan and
			// re-verify against the current pool.
			r.syncRetries.Add(1)
			r.mu.Unlock()
			continue
		}
		if r.hints.overflowEpoch(shard) != ovf {
			// The hint queue overflowed during the unlocked sync window:
			// enqueue discarded the whole queue, so the pending==0 check
			// below would read a wiped queue as a clean drain and enter
			// the ring while the discarded writes are missing. The epoch
			// exposes the wipe; another round re-reads needsFullSync and
			// re-pulls every segment with the digest shortcut forbidden.
			r.syncRetries.Add(1)
			r.mu.Unlock()
			continue
		}
		if r.hints.pending(shard) > 0 {
			// Writes raced in after the drain; take another pass. The
			// queue-empty check and ring entry share the mutex with hint
			// enqueueing, so nothing can slip in between.
			r.mu.Unlock()
			continue
		}
		if full {
			r.hints.clearFullSync(shard)
			r.fullSyncs.Add(1)
		}
		r.setHealthLocked(shard, healthUp, start)
		r.mu.Unlock()
		return
	}
}

// syncSource is one live member to reconcile a segment arc against.
// joined is the source's tenure floor for that segment: values below it
// are residue the source itself would refuse to serve, and the pull
// must refuse to copy them (see pullSegment).
type syncSource struct {
	arc    segRange
	pool   *connPool
	joined uint64
}

// syncPlanLocked lists, for every segment shard would serve, each live
// in-ring set member to compare against. Pulling from EVERY member —
// not just the primary — matters: after a reshuffle no single member is
// guaranteed to hold a segment's complete history, but under the
// MaxDown=1 budget their union is. Caller holds r.mu.
func (r *Router) syncPlanLocked(shard int) []syncSource {
	var out []syncSource
	for _, arc := range r.ring.wouldServe(shard) {
		seg := r.ring.segs[arc.seg]
		for k := 0; k < seg.n; k++ {
			if seg.shard[k] != shard {
				out = append(out, syncSource{
					arc:    arc,
					pool:   r.shards[seg.shard[k]].pool,
					joined: seg.joined[k],
				})
			}
		}
	}
	return out
}

// reconcileSegments reconciles the entering shard against each planned
// source: digests first (the cheap agreement check), a key-by-key pull
// through setx on mismatch. With full set the digest shortcut is
// forbidden — a hint-queue overflow means the queues no longer bound
// what the shard missed, so everything is pulled. Reports false on the
// first transport error.
func (r *Router) reconcileSegments(shard int, pool *connPool, plan []syncSource, full bool) bool {
	lastSeg := -1
	for _, src := range plan {
		if src.arc.seg != lastSeg {
			lastSeg = src.arc.seg
			r.syncSegments.Add(1)
		}
		if !full {
			dLocal, nLocal, ok := r.digestOn(pool, src.arc)
			if !ok {
				return false
			}
			dSrc, nSrc, ok := r.digestOn(src.pool, src.arc)
			if !ok {
				return false
			}
			if dLocal == dSrc && nLocal == nSrc {
				continue
			}
		}
		r.syncDivergent.Add(1)
		if !r.pullSegment(shard, pool, src) {
			return false
		}
	}
	return true
}

// digestOn runs one digest round trip on a pooled connection.
func (r *Router) digestOn(pool *connPool, arc segRange) (digest uint64, n int, ok bool) {
	c, err := pool.get()
	if err != nil {
		return 0, 0, false
	}
	d, cnt, err := c.Digest(arc.lo, arc.hi)
	if err != nil {
		pool.discard(c)
		return 0, 0, false
	}
	pool.put(c)
	return d, cnt, true
}

// pullSegment copies one source member's arc into the entering shard:
// list the keys, fetch each sealed value verbatim, store through setx.
// LWW makes the copy safe in any order and against any concurrent
// writer — a key the source holds stale simply loses the comparison.
//
// Values below the source's joined floor are skipped: the source itself
// would reject them as pre-tenure residue, and copying them into a
// shard that enters with full trust (joined=1) would launder exactly
// the staleness the trust floor exists to stop. When faults exceed the
// MaxDown=1 budget this filter turns what would be a stale hit into a
// miss — degraded, never wrong.
func (r *Router) pullSegment(shard int, pool *connPool, src syncSource) bool {
	sc, err := src.pool.get()
	if err != nil {
		return false
	}
	keys, err := sc.RangeKeys(src.arc.lo, src.arc.hi)
	if err != nil {
		src.pool.discard(sc)
		return false
	}
	dc, err := pool.get()
	if err != nil {
		src.pool.put(sc)
		return false
	}
	ok := true
	for _, ki := range keys {
		raw, flags, present, gerr := sc.GetFlags(ki.Key)
		if gerr != nil {
			ok = false
			break
		}
		if !present {
			continue // deleted under us; a tombstone pull or LWW covers it
		}
		if stampGen(flags) < src.joined {
			continue // pre-tenure residue: untrusted on the source itself
		}
		if _, okSeal := openValue(ki.Key, flags, raw); !okSeal {
			// The copy failed its integrity tag — damaged on this pull's
			// wire hop or at rest on the source. Either way it must not
			// be cloned into the entering shard: reads would only reject
			// it again, and replicating a corrupt copy can overwrite the
			// lineage read-repair needs. Skipped, not fatal: the entering
			// shard simply misses this key and read-repair refills it
			// from a member whose copy verifies.
			r.corruptRejects.Add(1)
			r.ins().tracer.Record(obs.EvCorruptReject, shard, 0, 0, uint64(flags), int64(len(raw)))
			continue
		}
		// Forced store: a pull may legitimately carry a stamp below the
		// destination's tombstone floor (an old key never rewritten since
		// the last purge). The floor exists to refuse zombies — values no
		// live member holds — and this value was just read off a live
		// member, so the floor must not turn the copy into a permanent
		// trusted miss on the entering shard.
		if _, serr := dc.SetXForce(ki.Key, raw, flags); serr != nil {
			ok = false
			break
		}
		r.syncKeys.Add(1)
	}
	if ok {
		src.pool.put(sc)
		pool.put(dc)
	} else {
		src.pool.discard(sc)
		pool.discard(dc)
	}
	return ok
}

// drainHints replays the shard's queued hinted handoffs through setx.
// Hints are taken in batches under the mutex and re-queued on failure,
// so a drain interrupted by a transport error loses nothing. Reports
// false on error.
func (r *Router) drainHints(shard int, pool *connPool) bool {
	for {
		r.mu.Lock()
		batch := r.hints.take(shard, 64)
		r.mu.Unlock()
		if len(batch) == 0 {
			return true
		}
		start := time.Now()
		c, err := pool.get()
		if err != nil {
			r.requeueHints(shard, batch)
			return false
		}
		for i, hn := range batch {
			if _, serr := c.SetX(hn.key, hn.sealed, hn.flags); serr != nil {
				pool.discard(c)
				r.requeueHints(shard, batch[i:])
				return false
			}
			r.hintsDrained.Add(1)
		}
		pool.put(c)
		r.ins().drainHist.Observe(time.Since(start).Microseconds())
		r.ins().tracer.Record(obs.EvReplDrain, shard, 0, 0, 0, int64(len(batch)))
	}
}

// requeueHints puts an undelivered batch back (overflow rules apply:
// a full queue flips to forced-full-sync rather than dropping silently).
func (r *Router) requeueHints(shard int, batch []hint) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, hn := range batch {
		if discarded, err := r.hints.enqueue(shard, hn); err != nil {
			r.hintOverflows.Add(1)
			r.hintsDiscarded.Add(int64(discarded))
			return
		}
	}
}
