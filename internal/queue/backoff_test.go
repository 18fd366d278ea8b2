package queue

import (
	"sync/atomic"
	"testing"
	"time"
)

// TestDequeueTimeoutEmpty checks the timeout path: an empty queue returns
// within (roughly) the deadline, reporting false.
func TestDequeueTimeoutEmpty(t *testing.T) {
	q := New[int]()
	start := time.Now()
	_, ok := q.DequeueTimeout(20 * time.Millisecond)
	if ok {
		t.Fatal("DequeueTimeout returned a value from an empty queue")
	}
	if el := time.Since(start); el < 15*time.Millisecond || el > 2*time.Second {
		t.Fatalf("timeout fired after %v, want ~20ms", el)
	}
}

// TestDequeueTimeoutDelivers checks that a value arriving mid-wait is
// delivered instead of timing out.
func TestDequeueTimeoutDelivers(t *testing.T) {
	q := New[int]()
	go func() {
		time.Sleep(5 * time.Millisecond)
		q.Enqueue(7)
	}()
	v, ok := q.DequeueTimeout(5 * time.Second)
	if !ok || v != 7 {
		t.Fatalf("DequeueTimeout = (%v, %v), want (7, true)", v, ok)
	}
}

// TestDequeueBlockParksWhenIdle checks the satellite fix: a consumer with
// nothing to consume must park (sleep) rather than hot-spin on
// runtime.Gosched.
func TestDequeueBlockParksWhenIdle(t *testing.T) {
	q := New[int]()
	done := make(chan int)
	go func() { done <- q.DequeueBlock() }()
	time.Sleep(30 * time.Millisecond)
	if q.Parks() == 0 {
		t.Error("idle DequeueBlock never parked (still hot-spinning)")
	}
	q.Enqueue(1)
	if v := <-done; v != 1 {
		t.Fatalf("DequeueBlock = %d", v)
	}
}

// TestDequeueTimeoutNonPositive degrades to one non-blocking attempt.
func TestDequeueTimeoutNonPositive(t *testing.T) {
	q := New[int]()
	if _, ok := q.DequeueTimeout(0); ok {
		t.Fatal("zero timeout on empty queue returned ok")
	}
	q.Enqueue(3)
	if v, ok := q.DequeueTimeout(-1); !ok || v != 3 {
		t.Fatalf("DequeueTimeout(-1) = (%v, %v)", v, ok)
	}
}

// BenchmarkHopLatency measures one queue round trip between two goroutines
// (the runtime's spawn→done hop) with blocking consumers on both sides.
func BenchmarkHopLatency(b *testing.B) {
	benchmarkHop(b, 0)
}

// BenchmarkHopLatencyWithIdleWaiters runs the same ping-pong while 8 idle
// workers block on empty queues. Idle waiters that kept spinning or
// yielding would compete for every core and slow the hop; parked on their
// doors they cost nothing, so the numbers should match BenchmarkHopLatency
// closely while the park counters (reported as idle-parks/op) show the
// waiters asleep.
func BenchmarkHopLatencyWithIdleWaiters(b *testing.B) {
	benchmarkHop(b, 8)
}

func benchmarkHop(b *testing.B, idleWaiters int) {
	var stop atomic.Bool
	idle := make([]*Queue[int], idleWaiters)
	for i := range idle {
		idle[i] = New[int]()
		go func(q *Queue[int]) {
			for q.DequeueBlock() != -1 {
			}
		}(idle[i])
	}
	defer func() {
		stop.Store(true)
		for _, q := range idle {
			q.Enqueue(-1)
		}
	}()

	req, resp := New[int](), New[int]()
	go func() {
		for {
			v := req.DequeueBlock()
			if v == -1 {
				return
			}
			resp.Enqueue(v)
		}
	}()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req.Enqueue(i)
		resp.DequeueBlock()
	}
	b.StopTimer()
	req.Enqueue(-1)
	var parks int64
	for _, q := range idle {
		parks += q.Parks()
	}
	if idleWaiters > 0 {
		b.ReportMetric(float64(parks)/float64(b.N), "idle-parks/op")
	}
}
