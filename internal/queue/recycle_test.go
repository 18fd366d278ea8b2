package queue

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// freeLen counts the nodes on q's free stack. Call it only while no
// sender or consumer runs.
func (q *Queue[T]) freeLen() int {
	n := 0
	for f := q.free.Load(); f != nil; f = f.next.Load() {
		n++
	}
	return n
}

// TestCachedHopAllocatesNothing: once a sender's cache or the queue's
// free stack holds a node, an enqueue/dequeue pair allocates nothing.
func TestCachedHopAllocatesNothing(t *testing.T) {
	q := New[[4]int64]()
	var c Cache[[4]int64]
	q.EnqueueCached(&c, [4]int64{1})
	q.Dequeue()
	allocs := testing.AllocsPerRun(1000, func() {
		q.EnqueueCached(&c, [4]int64{2})
		if _, ok := q.Dequeue(); !ok {
			t.Fatal("Dequeue after EnqueueCached found the queue empty")
		}
	})
	if allocs != 0 {
		t.Fatalf("a warm cached hop allocates %.1f objects, want 0", allocs)
	}
}

// TestFreeStackStaysUnderCap: a consumer that drains far more nodes than
// anyone sends back keeps at most freeCap of them, and a sender takes
// the whole stack at once.
func TestFreeStackStaysUnderCap(t *testing.T) {
	q := New[int]()
	for round := 0; round < 3; round++ {
		for i := 0; i < 10*freeCap; i++ {
			q.Enqueue(i)
		}
		for {
			if _, ok := q.Dequeue(); !ok {
				break
			}
			if n := q.freeLen(); n > freeCap {
				t.Fatalf("free stack holds %d nodes, cap %d", n, freeCap)
			}
		}
		if n := q.freeLen(); n != freeCap {
			t.Fatalf("round %d: free stack holds %d nodes after a long drain, want %d", round, n, freeCap)
		}
	}
	var c Cache[int]
	q.EnqueueCached(&c, 1)
	if n := q.freeLen(); n != 0 {
		t.Fatalf("free stack holds %d nodes after a sender refilled its cache, want 0", n)
	}
	cached := 0
	for f := c.free; f != nil; f = f.next.Load() {
		cached++
	}
	if cached != freeCap-1 {
		t.Fatalf("cache holds %d nodes, want %d", cached, freeCap-1)
	}
}

// TestRecycleStressTwoConsumers runs cached and raw producers against a
// regular consumer and a second one that drains in bursts, as DequeueRaw
// may drain a queue while its worker still reads it.
// Every element arrives exactly once, and each consumer sees each
// producer's elements in the order they were sent. Run it under -race:
// it covers node reuse against the unlocked emptiness polls.
func TestRecycleStressTwoConsumers(t *testing.T) {
	const producers, per = 4, 20000
	q := New[[2]int]()
	var pwg sync.WaitGroup
	for p := 0; p < producers; p++ {
		pwg.Add(1)
		go func(p int) {
			defer pwg.Done()
			var c Cache[[2]int]
			for i := 0; i < per; i++ {
				if p == 0 && i%3 == 0 {
					q.Enqueue([2]int{p, i}) // raw path, mixed in
				} else {
					q.EnqueueCached(&c, [2]int{p, i})
				}
			}
		}(p)
	}
	var seen [producers][per]atomic.Bool
	var total atomic.Int64
	stop := make(chan struct{})
	check := func(t *testing.T, last *[producers]int, v [2]int) {
		p, i := v[0], v[1]
		if i <= last[p] {
			t.Errorf("producer %d out of order: %d after %d", p, i, last[p])
		}
		last[p] = i
		if seen[p][i].Swap(true) {
			t.Errorf("element %v delivered twice", v)
		}
		total.Add(1)
	}
	newLast := func() *[producers]int {
		var last [producers]int
		for p := range last {
			last[p] = -1
		}
		return &last
	}
	var cwg sync.WaitGroup
	cwg.Add(2)
	go func() { // the worker goroutine
		defer cwg.Done()
		last := newLast()
		for {
			v, ok := within(q, 200*time.Microsecond)
			if ok {
				check(t, last, v)
				continue
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	go func() { // the burst drain
		defer cwg.Done()
		last := newLast()
		for {
			for n := 0; n < 64; n++ {
				v, ok := q.Dequeue()
				if !ok {
					break
				}
				check(t, last, v)
			}
			select {
			case <-stop:
				return
			default:
				runtime.Gosched()
			}
		}
	}()
	pwg.Wait()
	for total.Load() < producers*per && !t.Failed() {
		runtime.Gosched()
	}
	close(stop)
	cwg.Wait()
	if _, ok := q.Dequeue(); ok {
		t.Error("an element was left in the queue")
	}
	if got := total.Load(); got != producers*per {
		t.Fatalf("delivered %d elements, want %d", got, producers*per)
	}
	if n := q.freeLen(); n > freeCap {
		t.Fatalf("free stack holds %d nodes, cap %d", n, freeCap)
	}
}
