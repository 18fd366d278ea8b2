package cluster

import "sort"

// ring is the consistent-hash routing table with replica sets and
// per-member tenure generations — the data structure behind failover
// fencing and, since DESIGN.md §16, behind replication.
//
// Every shard contributes a fixed set of virtual nodes whose positions
// depend only on (shard, replica), so the full point set never changes:
// a dead shard's points stay on the circle, marked down, and a respawned
// shard reclaims exactly the ranges it had. The gaps between consecutive
// points are the atomic ownership segments; each segment is served by
// the first rf distinct up shards at or after it (clockwise) — the
// primary plus its successor replicas.
//
// Each segment remembers, per member, the ring generation at which that
// member's current continuous tenure in the set began ("joined"). The
// generation is the staleness fence: the router stamps every stored
// value, and a hit whose stamp predates the serving member's tenure is
// a copy from before that member (re)joined the set — it may have
// missed writes, so it is never trusted as an answer. A member admitted
// through anti-entropy sync (enter) is fully trusted instead: the sync
// proved its store equals the live members' contents, so its joined
// stamp is 1 and even old stamps are honored.
//
// The ring itself is not goroutine-safe; the Router serializes access.
type ring struct {
	rf     int // replication factor: members per segment (≥1)
	points []ringPoint
	up     []bool // by shard
	nUp    int
	gen    uint64
	segs   []segment // by segment (segment i ends at points[i])
}

// maxReplication bounds rf so per-segment member sets are fixed arrays
// and route lookups stay allocation-free.
const maxReplication = 4

// segment is one arc's replica set: n up members, primary first, and
// the generation each member's current tenure began.
type segment struct {
	n      int
	shard  [maxReplication]int
	joined [maxReplication]uint64
}

type ringPoint struct {
	pos   uint64
	shard int
}

// ringReplicas is the number of virtual nodes per shard on the ring.
const ringReplicas = 32

// newRing builds the table with every shard up, at generation 1.
func newRing(shards, rf int) *ring {
	if rf <= 0 {
		rf = 1
	}
	if rf > maxReplication {
		rf = maxReplication
	}
	if rf > shards {
		rf = shards
	}
	r := &ring{
		rf:     rf,
		points: make([]ringPoint, 0, shards*ringReplicas),
		up:     make([]bool, shards),
		nUp:    shards,
		gen:    1,
	}
	for s := 0; s < shards; s++ {
		r.up[s] = true
		for v := 0; v < ringReplicas; v++ {
			r.points = append(r.points, ringPoint{pos: pointHash(s, v), shard: s})
		}
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].pos < r.points[j].pos })
	r.segs = make([]segment, len(r.points))
	for i := range r.segs {
		r.segs[i] = r.membersAt(i, -1)
		for k := 0; k < r.segs[i].n; k++ {
			r.segs[i].joined[k] = 1
		}
	}
	return r
}

// pointHash places virtual node v of shard s; splitmix over the pair so
// the positions are deterministic and well spread.
func pointHash(s, v int) uint64 {
	x := uint64(s)*0x9e3779b97f4a7c15 + uint64(v)*0xbf58476d1ce4e5b9 + 0x94d049bb133111eb
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// membersAt resolves segment i's replica set under the current up set:
// the first rf distinct up shards at or after i, clockwise. extra, if
// ≥ 0, is treated as up even when it is not (the hypothetical lookup
// wouldServe uses to plan an anti-entropy sync). joined stamps are left
// zero; callers fill them.
func (r *ring) membersAt(i, extra int) segment {
	var seg segment
	for k := 0; k < len(r.points) && seg.n < r.rf; k++ {
		p := r.points[(i+k)%len(r.points)]
		if !r.up[p.shard] && p.shard != extra {
			continue
		}
		dup := false
		for j := 0; j < seg.n; j++ {
			if seg.shard[j] == p.shard {
				dup = true
				break
			}
		}
		if !dup {
			seg.shard[seg.n] = p.shard
			seg.n++
		}
	}
	return seg
}

// recompute rebuilds every segment's replica set after a membership
// flip. A member continuing in its segment's set keeps its joined
// stamp (uninterrupted tenure: it saw every acked write, so its older
// values stay valid); a member newly (re)joining is stamped with the
// fresh generation, so any value it held from before this tenure is
// rejected until read-repair or a later write refreshes it. trusted,
// if ≥ 0, names a shard whose store was just proven complete by
// anti-entropy: it joins with stamp 1 (full trust) instead.
func (r *ring) recompute(trusted int) {
	for i := range r.segs {
		next := r.membersAt(i, -1)
		old := &r.segs[i]
		for k := 0; k < next.n; k++ {
			next.joined[k] = r.gen
			if next.shard[k] == trusted {
				next.joined[k] = 1
				continue
			}
			for j := 0; j < old.n; j++ {
				if old.shard[j] == next.shard[k] {
					next.joined[k] = old.joined[j]
					break
				}
			}
		}
		r.segs[i] = next
	}
}

// setUp flips a shard's membership and recomputes the replica sets.
// Returns the new generation. A no-op flip still returns the current
// generation.
func (r *ring) setUp(shard int, up bool) uint64 {
	if r.up[shard] == up {
		return r.gen
	}
	r.up[shard] = up
	if up {
		r.nUp++
	} else {
		r.nUp--
	}
	r.gen++
	r.recompute(-1)
	return r.gen
}

// enter admits shard with full trust: anti-entropy sync has proven its
// store holds everything the live members hold for every segment it is
// about to serve, so its values — whatever their stamps — are honored.
// Only the sync path may call this; a cold or stale shard admitted via
// setUp instead is distrusted until the fresh generation.
func (r *ring) enter(shard int) uint64 {
	if r.up[shard] {
		return r.gen
	}
	r.up[shard] = true
	r.nUp++
	r.gen++
	r.recompute(shard)
	return r.gen
}

// segIndex locates the segment owning a key hash.
func (r *ring) segIndex(keyHash uint64) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].pos >= keyHash })
	if i == len(r.points) {
		i = 0
	}
	return i
}

// lookup routes a key hash to its primary: the first member of the
// owning segment's replica set and that member's tenure generation
// (the staleness floor for values it serves). ok is false when no
// shard is up.
func (r *ring) lookup(keyHash uint64) (shard int, acquired uint64, ok bool) {
	if r.nUp == 0 {
		return -1, 0, false
	}
	seg := &r.segs[r.segIndex(keyHash)]
	if seg.n == 0 {
		return -1, 0, false
	}
	return seg.shard[0], seg.joined[0], true
}

// lookupSet copies the full replica set for a key hash (primary first).
func (r *ring) lookupSet(keyHash uint64) (seg segment, ok bool) {
	if r.nUp == 0 {
		return segment{}, false
	}
	seg = r.segs[r.segIndex(keyHash)]
	return seg, seg.n > 0
}

// segRange is one segment's key-hash arc, inclusive on both ends; lo >
// hi means the arc wraps the top of the hash space. The bounds feed
// memcached.Store.RangeDigest / RangeKeys directly (same hash).
type segRange struct {
	seg    int
	lo, hi uint64
}

// rangeOf returns segment i's key-hash arc. Segment i holds the hashes
// located by segIndex to points[i]: (points[i-1].pos, points[i].pos],
// wrapping for i == 0.
func (r *ring) rangeOf(i int) segRange {
	prev := (i + len(r.points) - 1) % len(r.points)
	return segRange{seg: i, lo: r.points[prev].pos + 1, hi: r.points[i].pos}
}

// hintFor lists the down (or not-yet-entered) shards that would be in
// the replica set for keyHash if every shard were up — the
// hinted-handoff targets for a write routed now.
func (r *ring) hintFor(keyHash uint64, out []int) []int {
	full := r.hypothetical(r.segIndex(keyHash))
	for k := 0; k < full.n; k++ {
		if s := full.shard[k]; !r.up[s] {
			out = append(out, s)
		}
	}
	return out
}

// hypothetical resolves segment i's replica set as if every shard were
// up — the set the segment converges to once current failures heal.
func (r *ring) hypothetical(i int) segment {
	var seg segment
	for k := 0; k < len(r.points) && seg.n < r.rf; k++ {
		p := r.points[(i+k)%len(r.points)]
		dup := false
		for j := 0; j < seg.n; j++ {
			if seg.shard[j] == p.shard {
				dup = true
				break
			}
		}
		if !dup {
			seg.shard[seg.n] = p.shard
			seg.n++
		}
	}
	return seg
}

// wouldServe lists the segments shard would be a set member of once
// admitted — the anti-entropy sync plan. Adjacent segments are not
// merged; the store digests each arc independently.
func (r *ring) wouldServe(shard int) []segRange {
	var out []segRange
	for i := range r.segs {
		seg := r.membersAt(i, shard)
		for k := 0; k < seg.n; k++ {
			if seg.shard[k] == shard {
				out = append(out, r.rangeOf(i))
				break
			}
		}
	}
	return out
}

// keyHash positions a key on the circle (FNV-1a, the repo's standard —
// identical to memcached.KeyHash, so ring arcs align with store hash
// ranges).
func keyHash(key string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return h
}
