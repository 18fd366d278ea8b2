package cluster

import (
	"fmt"
	"testing"
)

// TestRingBalance checks that consistent hashing spreads keys reasonably
// across shards: with 32 vnodes each, no shard should own less than a
// third of its fair share.
func TestRingBalance(t *testing.T) {
	const shards, keys = 4, 20000
	r := newRing(shards, 1)
	counts := make([]int, shards)
	for i := 0; i < keys; i++ {
		s, _, ok := r.lookup(keyHash(fmt.Sprintf("user%d", i)))
		if !ok {
			t.Fatal("lookup failed with all shards up")
		}
		counts[s]++
	}
	fair := keys / shards
	for s, n := range counts {
		if n < fair/3 {
			t.Errorf("shard %d owns %d of %d keys, under a third of fair share %d", s, n, keys, fair)
		}
	}
}

// TestRingFixedPoints: two rings with the same shape place every virtual
// node identically — the point set is a pure function of (shard, replica),
// so routers built at different times agree.
func TestRingFixedPoints(t *testing.T) {
	a, b := newRing(5, 1), newRing(5, 1)
	if len(a.points) != len(b.points) {
		t.Fatalf("point counts differ: %d vs %d", len(a.points), len(b.points))
	}
	for i := range a.points {
		if a.points[i] != b.points[i] {
			t.Fatalf("point %d differs: %+v vs %+v", i, a.points[i], b.points[i])
		}
	}
}

// TestRingMinimalMovement: fencing one shard must not move any key that a
// surviving shard already owned.
func TestRingMinimalMovement(t *testing.T) {
	const shards, keys = 4, 5000
	r := newRing(shards, 1)
	before := make([]int, keys)
	for i := range before {
		before[i], _, _ = r.lookup(keyHash(fmt.Sprintf("k%d", i)))
	}
	r.setUp(1, false)
	for i := range before {
		after, _, ok := r.lookup(keyHash(fmt.Sprintf("k%d", i)))
		if !ok {
			t.Fatal("lookup failed with three shards up")
		}
		if before[i] != 1 && after != before[i] {
			t.Fatalf("key k%d moved %d -> %d though its owner survived", i, before[i], after)
		}
		if before[i] == 1 && after == 1 {
			t.Fatalf("key k%d still routed to the fenced shard", i)
		}
	}
}

// findKeyOwnedBy returns a key the ring currently routes to shard.
func findKeyOwnedBy(t *testing.T, r *ring, shard int) string {
	t.Helper()
	for i := 0; i < 100000; i++ {
		k := fmt.Sprintf("probe%d", i)
		if s, _, _ := r.lookup(keyHash(k)); s == shard {
			return k
		}
	}
	t.Fatalf("no key routed to shard %d", shard)
	return ""
}

// TestRingAcquiredGenerations walks the kill -> failback -> re-kill
// sequence and checks the staleness arithmetic at each step: a value
// stamped during a previous owner's tenure must compare below the current
// acquisition generation exactly when it could be a stale survivor copy.
func TestRingAcquiredGenerations(t *testing.T) {
	r := newRing(2, 1)
	key := findKeyOwnedBy(t, r, 0)
	h := keyHash(key)

	_, acq, _ := r.lookup(h)
	if acq != 1 {
		t.Fatalf("initial acquisition generation = %d, want 1", acq)
	}
	stampA := r.gen // value written to shard 0 now

	if g := r.setUp(0, false); g != 2 {
		t.Fatalf("first fence -> generation %d, want 2", g)
	}
	s, acq, _ := r.lookup(h)
	if s != 0 && acq != 2 {
		t.Fatalf("failover segment: owner %d acquired %d, want acquired 2", s, acq)
	}
	if stampA >= acq {
		t.Fatalf("shard 0's copy (stamp %d) must look stale to the survivor's tenure (acquired %d)", stampA, acq)
	}
	stampB := r.gen // value written to the survivor during the window

	if g := r.setUp(0, true); g != 3 {
		t.Fatalf("readmit -> generation %d, want 3", g)
	}
	s, acq, _ = r.lookup(h)
	if s != 0 || acq != 3 {
		t.Fatalf("after readmit owner=%d acquired=%d, want shard 0 acquired 3", s, acq)
	}

	if g := r.setUp(0, false); g != 4 {
		t.Fatalf("re-kill -> generation %d, want 4", g)
	}
	_, acq, _ = r.lookup(h)
	if stampB >= acq {
		t.Fatalf("survivor's window copy (stamp %d) must be fenced by re-acquisition (acquired %d)", stampB, acq)
	}
}

// TestRingUnchangedSegmentsKeepStamps: a membership change elsewhere must
// not invalidate values on segments whose owner did not change.
func TestRingUnchangedSegmentsKeepStamps(t *testing.T) {
	r := newRing(4, 1)
	key := findKeyOwnedBy(t, r, 3)
	h := keyHash(key)
	stamp := r.gen
	r.setUp(1, false) // unrelated shard dies
	s, acq, _ := r.lookup(h)
	if s == 3 && stamp < acq {
		t.Fatalf("shard 3 kept the segment but its old values (stamp %d) would be rejected (acquired %d)", stamp, acq)
	}
}

// TestRingReplicaSets: with rf=2 every segment's set is two distinct up
// shards, primary first, and fencing a member replaces only it — the
// survivor keeps both its slot and its tenure stamp.
func TestRingReplicaSets(t *testing.T) {
	r := newRing(3, 2)
	for i := range r.segs {
		seg := r.segs[i]
		if seg.n != 2 {
			t.Fatalf("segment %d has %d members, want 2", i, seg.n)
		}
		if seg.shard[0] == seg.shard[1] {
			t.Fatalf("segment %d lists shard %d twice", i, seg.shard[0])
		}
		if seg.joined[0] != 1 || seg.joined[1] != 1 {
			t.Fatalf("segment %d initial tenures %v, want full trust", i, seg.joined[:2])
		}
	}
	r.setUp(1, false)
	for i := range r.segs {
		seg := r.segs[i]
		if seg.n != 2 {
			t.Fatalf("segment %d has %d members after one fence of three, want 2", i, seg.n)
		}
		for k := 0; k < seg.n; k++ {
			if seg.shard[k] == 1 {
				t.Fatalf("segment %d still lists the fenced shard", i)
			}
			// A member that was already in this set keeps joined=1; a
			// reshuffle-joiner carries the fresh generation (distrusted
			// for values stamped before it).
			if seg.joined[k] != 1 && seg.joined[k] != r.gen {
				t.Fatalf("segment %d member %d joined=%d, want 1 (tenure kept) or %d (fresh)", i, seg.shard[k], seg.joined[k], r.gen)
			}
		}
	}
}

// TestRingEnterFullTrust: a shard admitted through enter (anti-entropy
// proven) joins every set with stamp 1, so its pre-outage values are
// honored; the same shard admitted through setUp is distrusted at the
// fresh generation.
func TestRingEnterFullTrust(t *testing.T) {
	a, b := newRing(3, 2), newRing(3, 2)
	a.setUp(0, false)
	b.setUp(0, false)
	a.enter(0)
	b.setUp(0, true)
	for i := range a.segs {
		for k := 0; k < a.segs[i].n; k++ {
			if a.segs[i].shard[k] == 0 && a.segs[i].joined[k] != 1 {
				t.Fatalf("entered shard joined segment %d at %d, want full trust 1", i, a.segs[i].joined[k])
			}
		}
	}
	distrusted := false
	for i := range b.segs {
		for k := 0; k < b.segs[i].n; k++ {
			if b.segs[i].shard[k] == 0 && b.segs[i].joined[k] == b.gen {
				distrusted = true
			}
		}
	}
	if !distrusted {
		t.Fatal("setUp-admitted shard was never stamped with the fresh generation")
	}
}

// TestRingHintTargets: hintFor names exactly the down members of a
// key's converged (all-up) replica set — the shards a write routed now
// must queue hints for.
func TestRingHintTargets(t *testing.T) {
	r := newRing(3, 2)
	r.setUp(1, false)
	var buf [maxReplication]int
	sawHint := false
	for i := 0; i < 2000; i++ {
		h := keyHash(fmt.Sprintf("hint%d", i))
		full := r.hypothetical(r.segIndex(h))
		inFull := false
		for k := 0; k < full.n; k++ {
			if full.shard[k] == 1 {
				inFull = true
			}
		}
		hints := r.hintFor(h, buf[:0])
		if inFull {
			if len(hints) != 1 || hints[0] != 1 {
				t.Fatalf("key in shard 1's converged set got hints %v, want [1]", hints)
			}
			sawHint = true
		} else if len(hints) != 0 {
			t.Fatalf("key outside shard 1's converged set got hints %v", hints)
		}
	}
	if !sawHint {
		t.Fatal("no key's converged set ever included the down shard")
	}
}

// TestRingWouldServe: the sync plan covers exactly the segments the
// entering shard will serve, and every planned arc routes to that
// segment (the store-digest bounds line up with segIndex).
func TestRingWouldServe(t *testing.T) {
	r := newRing(3, 2)
	r.setUp(2, false)
	plan := r.wouldServe(2)
	if len(plan) == 0 {
		t.Fatal("empty sync plan for a returning shard")
	}
	for _, arc := range plan {
		seg := r.membersAt(arc.seg, 2)
		found := false
		for k := 0; k < seg.n; k++ {
			if seg.shard[k] == 2 {
				found = true
			}
		}
		if !found {
			t.Fatalf("planned segment %d would not include the entering shard", arc.seg)
		}
		if got := r.segIndex(arc.hi); got != arc.seg {
			t.Fatalf("arc hi bound %d routes to segment %d, want %d", arc.hi, got, arc.seg)
		}
	}
}

// TestRingAllDown: lookup reports no owner rather than inventing one.
func TestRingAllDown(t *testing.T) {
	r := newRing(2, 1)
	r.setUp(0, false)
	r.setUp(1, false)
	if _, _, ok := r.lookup(keyHash("k")); ok {
		t.Fatal("lookup succeeded with every shard fenced")
	}
	r.setUp(0, true)
	if _, _, ok := r.lookup(keyHash("k")); !ok {
		t.Fatal("lookup failed after a shard returned")
	}
}
