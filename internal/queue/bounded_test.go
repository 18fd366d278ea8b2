package queue

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestBoundedTryEnqueue: the cooperative producer path refuses elements at
// capacity, while the raw Enqueue path (re-deliveries, the attacker) still
// succeeds.
func TestBoundedTryEnqueue(t *testing.T) {
	q := NewBounded[int](2)
	if q.Capacity() != 2 {
		t.Fatalf("Capacity() = %d, want 2", q.Capacity())
	}
	if !q.TryEnqueue(nil, 1) || !q.TryEnqueue(nil, 2) {
		t.Fatal("TryEnqueue below capacity must succeed")
	}
	if q.TryEnqueue(nil, 3) {
		t.Fatal("TryEnqueue at capacity must fail")
	}
	q.Enqueue(3) // raw path ignores the bound
	if got := q.Depth(); got != 3 {
		t.Fatalf("Depth() = %d after raw overfill, want 3", got)
	}
	if v, ok := q.Dequeue(); !ok || v != 1 {
		t.Fatalf("Dequeue = %v,%v, want 1,true", v, ok)
	}
	if _, ok := q.Dequeue(); !ok {
		t.Fatal("second Dequeue must succeed")
	}
	// Depth is back below the bound, so admission resumes.
	if !q.TryEnqueue(nil, 4) {
		t.Fatal("TryEnqueue below capacity must succeed again")
	}
}

// TestBoundedProducerBlocksNotDrops: a producer at capacity blocks in
// EnqueueBlock until the consumer makes room — no element is ever dropped —
// and the depth gauge and counters agree with the delivered count. Run
// under -race this also proves the bounded mode is data-race free.
func TestBoundedProducerBlocksNotDrops(t *testing.T) {
	const capacity, total = 4, 2000
	q := NewBounded[int](capacity)

	var produced atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < total; i++ {
			q.EnqueueBlock(nil, i)
			produced.Add(1)
		}
	}()

	// Fill phase: with the consumer idle, the producer must stall at the
	// bound instead of running ahead.
	deadline := time.Now().Add(2 * time.Second)
	for produced.Load() < capacity {
		if time.Now().After(deadline) {
			t.Fatalf("producer never reached capacity (%d/%d)", produced.Load(), capacity)
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond) // give a buggy producer time to overrun
	if got := produced.Load(); got > capacity+1 {
		t.Fatalf("producer ran %d elements past a capacity-%d queue without a consumer", got, capacity)
	}
	if got := q.Depth(); got > capacity {
		t.Fatalf("Depth() = %d exceeds capacity %d", got, capacity)
	}

	// Drain phase: every element arrives, in order, exactly once.
	for i := 0; i < total; i++ {
		v, ok := q.dequeueDeadline(time.Now().Add(5 * time.Second))
		if !ok {
			t.Fatalf("dequeue %d timed out; producer wedged with depth=%d", i, q.Depth())
		}
		if v != i {
			t.Fatalf("dequeue %d returned %d: bounded mode dropped or reordered", i, v)
		}
	}
	wg.Wait()

	enq, deq := q.Stats()
	if enq != total || deq != total {
		t.Fatalf("Stats() = %d enqueues, %d dequeues; want %d each", enq, deq, total)
	}
	if q.Depth() != 0 {
		t.Fatalf("Depth() = %d after full drain, want 0", q.Depth())
	}
	if q.FullWaits() == 0 {
		t.Error("FullWaits() = 0: the producer never saw backpressure despite a blocked fill phase")
	}
}

// TestBoundedManyProducers: concurrent producers over a bounded queue under
// the race detector; delivered counts must balance exactly.
func TestBoundedManyProducers(t *testing.T) {
	const producers, per = 8, 300
	q := NewBounded[int](8)
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				q.EnqueueBlock(nil, p*per+i)
			}
		}(p)
	}
	seen := make(map[int]bool, producers*per)
	for i := 0; i < producers*per; i++ {
		v, ok := q.dequeueDeadline(time.Now().Add(5 * time.Second))
		if !ok {
			t.Fatalf("dequeue %d timed out", i)
		}
		if seen[v] {
			t.Fatalf("element %d delivered twice", v)
		}
		seen[v] = true
	}
	wg.Wait()
	if q.Depth() != 0 {
		t.Fatalf("Depth() = %d after drain, want 0", q.Depth())
	}
}
