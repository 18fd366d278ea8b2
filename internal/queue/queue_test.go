package queue

import (
	"sync"
	"testing"
	"testing/quick"
	"time"
)

// block waits for an element with no window.
func block[T any](q *Queue[T]) T {
	v, _ := q.DequeueWithin(nil)
	return v
}

// within waits for an element for at most a window of d.
func within[T any](q *Queue[T], d time.Duration) (T, bool) {
	return q.DequeueWithin(&Window{Len: d})
}

func TestFIFOOrder(t *testing.T) {
	q := New[int]()
	for i := 0; i < 1000; i++ {
		q.Enqueue(i)
	}
	for i := 0; i < 1000; i++ {
		v, ok := q.Dequeue()
		if !ok || v != i {
			t.Fatalf("Dequeue #%d = (%d,%v), want (%d,true)", i, v, ok, i)
		}
	}
	if _, ok := q.Dequeue(); ok {
		t.Fatal("queue should be empty")
	}
}

func TestEmptyDequeue(t *testing.T) {
	q := New[string]()
	if v, ok := q.Dequeue(); ok {
		t.Fatalf("Dequeue on empty = (%q,true)", v)
	}
}

// TestConcurrentMPMC hammers the queue with many producers and consumers
// and checks that every element is delivered exactly once.
func TestConcurrentMPMC(t *testing.T) {
	const producers, perProducer, consumers = 8, 2000, 8
	q := New[int]()
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				q.Enqueue(p*perProducer + i)
			}
		}(p)
	}
	got := make(chan int, producers*perProducer)
	var cg sync.WaitGroup
	done := make(chan struct{})
	for c := 0; c < consumers; c++ {
		cg.Add(1)
		go func() {
			defer cg.Done()
			for {
				v, ok := q.Dequeue()
				if ok {
					got <- v
					continue
				}
				select {
				case <-done:
					// Drain once more after producers finish.
					for {
						v, ok := q.Dequeue()
						if !ok {
							return
						}
						got <- v
					}
				default:
				}
			}
		}()
	}
	wg.Wait()
	close(done)
	cg.Wait()
	close(got)
	seen := map[int]bool{}
	for v := range got {
		if seen[v] {
			t.Fatalf("element %d delivered twice", v)
		}
		seen[v] = true
	}
	if len(seen) != producers*perProducer {
		t.Fatalf("delivered %d elements, want %d", len(seen), producers*perProducer)
	}
}

// TestPerProducerOrder checks the FIFO property per producer under
// concurrency: a single consumer must observe each producer's elements in
// increasing order.
func TestPerProducerOrder(t *testing.T) {
	const producers, perProducer = 4, 5000
	q := New[[2]int]()
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				q.Enqueue([2]int{p, i})
			}
		}(p)
	}
	go func() { wg.Wait() }()
	last := map[int]int{}
	for n := 0; n < producers*perProducer; n++ {
		v := block(q)
		p, i := v[0], v[1]
		if prev, ok := last[p]; ok && i <= prev {
			t.Fatalf("producer %d out of order: %d after %d", p, i, prev)
		}
		last[p] = i
	}
}

// TestQuickSequential is a property test: any interleaved sequence of
// enqueues and dequeues behaves like a model slice queue.
func TestQuickSequential(t *testing.T) {
	f := func(ops []int16) bool {
		q := New[int16]()
		var model []int16
		for _, op := range ops {
			if op >= 0 {
				q.Enqueue(op)
				model = append(model, op)
			} else {
				v, ok := q.Dequeue()
				if len(model) == 0 {
					if ok {
						return false
					}
					continue
				}
				if !ok || v != model[0] {
					return false
				}
				model = model[1:]
			}
		}
		for _, want := range model {
			v, ok := q.Dequeue()
			if !ok || v != want {
				return false
			}
		}
		_, ok := q.Dequeue()
		return !ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestStats(t *testing.T) {
	q := New[int]()
	for i := 0; i < 10; i++ {
		q.Enqueue(i)
	}
	for i := 0; i < 4; i++ {
		q.Dequeue()
	}
	enq, deq := q.Stats()
	if enq != 10 || deq != 4 {
		t.Errorf("Stats = (%d,%d), want (10,4)", enq, deq)
	}
	if q.Len() != 6 {
		t.Errorf("Len = %d, want 6", q.Len())
	}
}

func BenchmarkEnqueueDequeue(b *testing.B) {
	q := New[int]()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			q.Enqueue(1)
			q.Dequeue()
		}
	})
}
