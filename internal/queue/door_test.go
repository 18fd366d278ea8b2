package queue

import (
	"runtime"
	"sync"
	"testing"
	"time"
)

// waitParks yields until q has parked more than n times. Tests wait on the
// park counter, not on a sleep, so they hold on a loaded host too.
func waitParks(t *testing.T, q *Queue[int], n int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for q.Parks() <= n {
		if time.Now().After(deadline) {
			t.Fatalf("waiter never parked (parks=%d)", q.Parks())
		}
		runtime.Gosched()
	}
}

// TestDoorWakesParkedConsumer: a consumer parked in a blocking dequeue is
// released by a single Enqueue, and leaves the door unregistered.
func TestDoorWakesParkedConsumer(t *testing.T) {
	q := New[int]()
	done := make(chan int)
	go func() { done <- block(q) }()
	waitParks(t, q, 0)
	q.Enqueue(42)
	select {
	case v := <-done:
		if v != 42 {
			t.Fatalf("blocking dequeue = %d, want 42", v)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("parked consumer was not woken by Enqueue")
	}
	if n := q.consumers.sleepers.Load(); n != 0 {
		t.Fatalf("sleepers = %d after wake, want 0", n)
	}
	if q.ParkTime() <= 0 {
		t.Error("ParkTime() = 0 after a park")
	}
}

// TestDoorWakesEveryParkedConsumer: three consumers park on one door,
// then three values arrive back to back. Each consumer gets one value; no
// consumer may stay parked beside a non-empty queue.
func TestDoorWakesEveryParkedConsumer(t *testing.T) {
	const consumers = 3
	q := New[int]()
	done := make(chan int, consumers)
	for c := 0; c < consumers; c++ {
		go func() { done <- block(q) }()
	}
	deadline := time.Now().Add(10 * time.Second)
	for q.consumers.sleepers.Load() < consumers || q.Parks() < consumers {
		if time.Now().After(deadline) {
			t.Fatalf("consumers never all parked (sleepers=%d)", q.consumers.sleepers.Load())
		}
		runtime.Gosched()
	}
	for v := 1; v <= consumers; v++ {
		q.Enqueue(v)
	}
	sum := 0
	for c := 0; c < consumers; c++ {
		select {
		case v := <-done:
			sum += v
		case <-time.After(10 * time.Second):
			t.Fatalf("consumer %d stayed parked with depth=%d", c, q.Len())
		}
	}
	if sum != 1+2+3 {
		t.Fatalf("consumers received values summing to %d, want 6", sum)
	}
}

// TestDoorTimeoutLeavesNoSleeper: a timed dequeue that expires while
// parked deregisters, and the queue still delivers afterwards.
func TestDoorTimeoutLeavesNoSleeper(t *testing.T) {
	q := New[int]()
	if _, ok := within(q, 5*time.Millisecond); ok {
		t.Fatal("a timed dequeue returned a value from an empty queue")
	}
	if q.Parks() == 0 {
		t.Fatal("a 5ms wait on an empty queue never parked")
	}
	if n := q.consumers.sleepers.Load(); n != 0 {
		t.Fatalf("sleepers = %d after a timed-out park, want 0", n)
	}
	q.Enqueue(7)
	done := make(chan int)
	go func() { done <- block(q) }()
	select {
	case v := <-done:
		if v != 7 {
			t.Fatalf("blocking dequeue = %d, want 7", v)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a blocking dequeue after a timed-out park never returned")
	}
}

// TestDoorStressMPMC: 4 producers and 3 consumers, so the door sees
// several parked consumers at once. Producers mix cached and raw
// enqueues; consumers mix blocking and short timed dequeues. Every
// value arrives exactly once and no waiter is left registered.
func TestDoorStressMPMC(t *testing.T) {
	const producers, consumers, per = 4, 3, 3000
	q := New[int]()
	var pwg sync.WaitGroup
	for p := 0; p < producers; p++ {
		pwg.Add(1)
		go func(p int) {
			defer pwg.Done()
			var c Cache[int]
			for i := 0; i < per; i++ {
				v := p*per + i
				if i%2 == 0 {
					q.EnqueueCached(&c, v)
				} else {
					q.Enqueue(v)
				}
				if i%500 == 0 {
					// Let the consumers run dry and park.
					time.Sleep(200 * time.Microsecond)
				}
			}
		}(p)
	}
	got := make([][]int, consumers)
	var cwg sync.WaitGroup
	for c := 0; c < consumers; c++ {
		cwg.Add(1)
		go func(c int) {
			defer cwg.Done()
			for i := 0; ; i++ {
				var v int
				if i%2 == 0 {
					v = block(q)
				} else {
					var ok bool
					if v, ok = within(q, 50*time.Microsecond); !ok {
						continue
					}
				}
				if v < 0 {
					return
				}
				got[c] = append(got[c], v)
			}
		}(c)
	}
	pwg.Wait()
	for c := 0; c < consumers; c++ {
		q.Enqueue(-1)
	}
	finished := make(chan struct{})
	go func() { cwg.Wait(); close(finished) }()
	select {
	case <-finished:
	case <-time.After(30 * time.Second):
		t.Fatalf("consumers wedged: depth=%d sleepers=%d", q.Len(), q.consumers.sleepers.Load())
	}
	seen := make([]bool, producers*per)
	n := 0
	for _, vs := range got {
		for _, v := range vs {
			if seen[v] {
				t.Fatalf("value %d delivered twice", v)
			}
			seen[v] = true
			n++
		}
	}
	if n != producers*per {
		t.Fatalf("delivered %d values, want %d", n, producers*per)
	}
	t.Logf("parks=%d", q.Parks())
	if n := q.consumers.sleepers.Load(); n != 0 {
		t.Fatalf("sleepers left registered: %d", n)
	}
}

// TestDoorParkAllocatesNothing: a park-and-wake in a timed dequeue, timer
// included, allocates nothing beyond the node Enqueue allocates.
func TestDoorParkAllocatesNothing(t *testing.T) {
	q := New[int]()
	kick := make(chan int64)
	defer close(kick)
	go func() {
		for before := range kick {
			for q.Parks() <= before {
				runtime.Gosched()
			}
			q.Enqueue(1)
		}
	}()
	parkAndWake := testing.AllocsPerRun(50, func() {
		kick <- q.Parks()
		if _, ok := within(q, time.Minute); !ok {
			t.Fatal("the timed dequeue timed out although a producer was kicked")
		}
	})
	node := testing.AllocsPerRun(50, func() {
		q.Enqueue(1)
		q.Dequeue()
	})
	if parkAndWake > node {
		t.Fatalf("park-and-wake allocates %.1f objects, Enqueue+Dequeue alone %.1f", parkAndWake, node)
	}
}
