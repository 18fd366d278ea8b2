package queue

import (
	"sync"
	"testing"
	"time"
)

// TestEnqueueBlockParkedProducerReleased: a producer that has gone all the
// way down the backoff schedule (past spinning and yielding into parked
// sleeps) must still observe a much later drain and complete. This is the
// shutdown-adjacent edge: prt teardown drains queues while producers may
// be blocked at capacity, and a producer that misses the wakeup would hang
// Close forever.
func TestEnqueueBlockParkedProducerReleased(t *testing.T) {
	q := NewBounded[int](2)
	q.Enqueue(1)
	q.Enqueue(2)
	done := make(chan struct{})
	go func() {
		q.EnqueueBlock(nil, 3)
		close(done)
	}()
	// Wait until the producer is provably parked, not just spinning.
	deadline := time.Now().Add(2 * time.Second)
	for q.Parks() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("producer never reached the parked stage of the backoff")
		}
		time.Sleep(time.Millisecond)
	}
	// Let the sleep back off toward its cap before making room.
	time.Sleep(5 * time.Millisecond)
	if _, ok := q.Dequeue(); !ok {
		t.Fatal("drain dequeue failed on a full queue")
	}
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("parked producer missed the drain and never completed")
	}
	if got := q.FullWaits(); got != 1 {
		t.Errorf("FullWaits() = %d, want 1", got)
	}
}

// TestEnqueueBlockRacingDrain models teardown: several producers hammer a
// capacity-1 queue with EnqueueBlock while a late-starting drainer empties
// it. Every element must arrive exactly once and every producer must
// return — a lost element or a wedged producer is exactly the bug that
// would turn runtime shutdown into a deadlock.
func TestEnqueueBlockRacingDrain(t *testing.T) {
	const producers, per = 4, 200
	q := NewBounded[int](1)
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
	// Start draining only after the producers have piled up at the bound.
	time.Sleep(2 * time.Millisecond)
	seen := make(map[int]bool, producers*per)
	for i := 0; i < producers*per; i++ {
		v, ok := q.dequeueDeadline(time.Now().Add(5 * time.Second))
		if !ok {
			t.Fatalf("drain %d timed out with depth=%d", i, q.Depth())
		}
		if seen[v] {
			t.Fatalf("element %d delivered twice", v)
		}
		seen[v] = true
	}
	wg.Wait()
	if got := q.Depth(); got != 0 {
		t.Fatalf("Depth() = %d after full drain, want 0", got)
	}
}

// TestTryEnqueueFullStaysFull: repeated TryEnqueue against a full queue
// with no consumer must keep failing without disturbing the queued
// contents, and a single dequeue reopens exactly one admission slot.
func TestTryEnqueueFullStaysFull(t *testing.T) {
	q := NewBounded[int](3)
	for i := 1; i <= 3; i++ {
		if !q.TryEnqueue(nil, i) {
			t.Fatalf("TryEnqueue(%d) below capacity failed", i)
		}
	}
	for attempt := 0; attempt < 50; attempt++ {
		if q.TryEnqueue(nil, 99) {
			t.Fatalf("TryEnqueue succeeded on a full queue (attempt %d)", attempt)
		}
	}
	if got := q.Depth(); got != 3 {
		t.Fatalf("Depth() = %d after rejected attempts, want 3", got)
	}
	if v, ok := q.Dequeue(); !ok || v != 1 {
		t.Fatalf("Dequeue = %v,%v, want 1,true — rejected attempts disturbed the queue", v, ok)
	}
	if !q.TryEnqueue(nil, 4) {
		t.Fatal("TryEnqueue after one dequeue must succeed")
	}
	if q.TryEnqueue(nil, 5) {
		t.Fatal("second TryEnqueue must fail: only one slot was reopened")
	}
	// The surviving contents are intact and in order.
	for want := 2; want <= 4; want++ {
		if v, ok := q.Dequeue(); !ok || v != want {
			t.Fatalf("Dequeue = %v,%v, want %d,true", v, ok, want)
		}
	}
}
