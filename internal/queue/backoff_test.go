package queue

import (
	"sync/atomic"
	"testing"
	"time"
)

// TestDequeueTimeoutEmpty checks the timeout path: an empty queue returns
// within (roughly) the window, reporting false.
func TestDequeueTimeoutEmpty(t *testing.T) {
	q := New[int]()
	start := time.Now()
	_, ok := within(q, 20*time.Millisecond)
	if ok {
		t.Fatal("a timed dequeue returned a value from an empty queue")
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
	v, ok := within(q, 5*time.Second)
	if !ok || v != 7 {
		t.Fatalf("timed dequeue = (%v, %v), want (7, true)", v, ok)
	}
}

// TestDequeueBlockParksWhenIdle checks the satellite fix: a consumer with
// nothing to consume must park (sleep) rather than hot-spin on
// runtime.Gosched.
func TestDequeueBlockParksWhenIdle(t *testing.T) {
	q := New[int]()
	done := make(chan int)
	go func() { done <- block(q) }()
	time.Sleep(30 * time.Millisecond)
	if q.Parks() == 0 {
		t.Error("idle blocking dequeue never parked (still hot-spinning)")
	}
	q.Enqueue(1)
	if v := <-done; v != 1 {
		t.Fatalf("blocking dequeue = %d", v)
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
			for block(q) != -1 {
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
			v := block(req)
			if v == -1 {
				return
			}
			resp.Enqueue(v)
		}
	}()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req.Enqueue(i)
		block(resp)
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
