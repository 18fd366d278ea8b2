// Package queue provides the lock-free FIFO communication channel of the
// Privagic runtime (paper §7.3.2: "each worker thread has a communication
// channel implemented as a lock-free FIFO queue stored in unsafe memory",
// citing Michael & Scott and Herlihy & Shavit [21, 28]).
//
// The implementation is a Michael–Scott queue on atomic pointers. Go's
// garbage collector plays the role of the hazard-pointer reclamation scheme
// of [28], which is exactly the simplification those papers anticipate for
// managed runtimes.
//
// Blocking waits go through one door per side. A waiter first spins on the
// queue's state, then yields, then parks: it registers as a sleeper,
// re-checks, and blocks on a one-slot token channel. The other side hands
// over a token, without blocking, whenever it changes the state while a
// sleeper is registered: Enqueue wakes a parked consumer, and a Dequeue on
// a bounded queue wakes a producer parked at capacity. A message that
// arrives after its consumer parked is therefore delivered at the cost of
// one goroutine wakeup, not at the end of a sleep.
//
// Each queue tracks its own depth, enqueue/dequeue totals, parks, park
// time and full-queue waits; the runtime aggregates them across workers
// into the prt.queue.* gauges (see OBSERVABILITY.md).
package queue

import (
	"runtime"
	"sync/atomic"
	"time"
)

// node is one queue cell.
type node[T any] struct {
	val  T
	next atomic.Pointer[node[T]]
}

// door is the parked half of one side's blocking wait. A waiter that ran
// out of spins registers in sleepers, re-checks its condition and blocks
// on token; the other side, right after changing the state the waiter
// polls, calls open. Sleepers is incremented before the re-check and
// loaded after the state change (both sequentially consistent atomics),
// so either the waiter sees the change or open sees the waiter: a wakeup
// is never lost.
type door struct {
	sleepers atomic.Int32
	token    chan struct{} // one slot
}

// open hands a parked waiter a token, if one is registered. It never
// blocks: a token already in the slot wakes a waiter just as well.
func (d *door) open() {
	if d.sleepers.Load() > 0 {
		select {
		case d.token <- struct{}{}:
		default:
		}
	}
}

// Queue is a multi-producer multi-consumer lock-free FIFO.
// The zero value is not ready; use New.
type Queue[T any] struct {
	head atomic.Pointer[node[T]] // sentinel; head.next is the front
	tail atomic.Pointer[node[T]]

	// capacity, when positive, bounds the queue for the cooperative
	// producer paths (TryEnqueue/EnqueueBlock). Enqueue itself never
	// blocks or fails: it is the raw insertion path (re-deliveries, the
	// fault injector playing the attacker), and an attacker does not
	// honor backpressure. The bound is therefore a protocol contract,
	// not a memory guarantee — and because Len is a racy difference of
	// counters, the bound is approximate by up to the number of
	// concurrent producers.
	capacity int64

	consumers door // waiting for an element; opened by Enqueue
	producers door // waiting for room; bounded queues only, opened by Dequeue
	// timer is a stopped, drained deadline timer kept for the next timed
	// park, so parking allocates nothing. A waiter takes it with Swap; a
	// second concurrent timed waiter makes its own.
	timer atomic.Pointer[time.Timer]

	enqueues  atomic.Int64
	dequeues  atomic.Int64
	parks     atomic.Int64
	parkNS    atomic.Int64
	fullWaits atomic.Int64
}

// New creates an empty, unbounded queue.
func New[T any]() *Queue[T] {
	q := &Queue[T]{}
	sentinel := &node[T]{}
	q.head.Store(sentinel)
	q.tail.Store(sentinel)
	q.consumers.token = make(chan struct{}, 1)
	return q
}

// NewBounded creates a queue whose cooperative producers (TryEnqueue,
// EnqueueBlock) respect a capacity; cap < 1 means unbounded.
func NewBounded[T any](capacity int) *Queue[T] {
	q := New[T]()
	if capacity > 0 {
		q.capacity = int64(capacity)
		q.producers.token = make(chan struct{}, 1)
	}
	return q
}

// Enqueue appends v (Michael–Scott two-step publish) and wakes a parked
// consumer.
func (q *Queue[T]) Enqueue(v T) {
	n := &node[T]{val: v}
	for {
		tail := q.tail.Load()
		next := tail.next.Load()
		if tail != q.tail.Load() {
			continue // tail moved under us
		}
		if next != nil {
			// Help a stalled producer finish swinging the tail.
			q.tail.CompareAndSwap(tail, next)
			continue
		}
		if tail.next.CompareAndSwap(nil, n) {
			q.tail.CompareAndSwap(tail, n)
			q.enqueues.Add(1)
			q.consumers.open()
			return
		}
	}
}

// TryEnqueue appends v unless the queue is bounded and at capacity, in
// which case it reports false without enqueueing. On an unbounded queue it
// always succeeds.
func (q *Queue[T]) TryEnqueue(v T) bool {
	if q.capacity > 0 && !q.hasRoom() {
		return false
	}
	q.Enqueue(v)
	return true
}

// EnqueueBlock appends v, waiting at the producers' door while a bounded
// queue is at capacity. This is the backpressure edge: a producer feeding
// a saturated consumer slows down to the consumer's pace instead of
// growing the queue.
func (q *Queue[T]) EnqueueBlock(v T) {
	if q.TryEnqueue(v) {
		return
	}
	q.fullWaits.Add(1)
	parked := false
	for {
		_, p := q.await(&q.producers, q.hasRoom, time.Time{})
		parked = parked || p
		if q.TryEnqueue(v) {
			if parked && q.hasRoom() {
				// One token may stand for several dequeues: pass it
				// on to the next parked producer.
				q.producers.open()
			}
			return
		}
	}
}

// Dequeue removes and returns the front element, reporting false when the
// queue is empty. On a bounded queue it wakes a producer parked at
// capacity.
func (q *Queue[T]) Dequeue() (T, bool) {
	var zero T
	for {
		head := q.head.Load()
		tail := q.tail.Load()
		next := head.next.Load()
		if head != q.head.Load() {
			continue
		}
		if next == nil {
			return zero, false
		}
		if head == tail {
			// Tail lagging behind: help it.
			q.tail.CompareAndSwap(tail, next)
			continue
		}
		if q.head.CompareAndSwap(head, next) {
			// Only the CAS winner may touch val: a pre-CAS read would race
			// with the winner's zeroing write on a contended node (losers
			// discard the value, but the unordered access pair is real).
			v := next.val
			next.val = zero // drop the reference for the GC
			q.dequeues.Add(1)
			if q.capacity > 0 {
				q.producers.open()
			}
			return v, true
		}
	}
}

// Blocking-wait schedule: a short hot spin catches the common ping-pong
// case where the other side is already mid-operation, scheduler yields
// cover a peer that is still running a chunk or holds the core, and after
// that the waiter parks on its door so an idle worker costs no CPU until
// it is woken. The yield phase (some 40-80 µs on a 2-vCPU VM) is sized
// well above one partitioned Call's round trip: with 32 yields (5-10 µs)
// it ended right at the round trip of a one-color tree lookup, so small
// changes in host speed decided whether the caller parked, and each park
// cost a cross-CPU wakeup.
const (
	spinIters  = 128
	yieldIters = 256
)

// DequeueBlock waits until an element arrives. The Privagic runtime's
// wait primitive is built on it.
func (q *Queue[T]) DequeueBlock() T {
	v, _ := q.dequeueDeadline(time.Time{})
	return v
}

// DequeueTimeout waits like DequeueBlock but gives up after d, reporting
// false. A non-positive d degrades to a single non-blocking attempt.
func (q *Queue[T]) DequeueTimeout(d time.Duration) (T, bool) {
	if d <= 0 {
		return q.Dequeue()
	}
	return q.dequeueDeadline(time.Now().Add(d))
}

// DequeueUntil waits like DequeueBlock but gives up at deadline, reporting
// false; a zero deadline waits forever. The clock is read only if the
// wait parks.
func (q *Queue[T]) DequeueUntil(deadline time.Time) (T, bool) {
	return q.dequeueDeadline(deadline)
}

// dequeueDeadline is the consumers' blocking wait; a zero deadline means
// forever.
func (q *Queue[T]) dequeueDeadline(deadline time.Time) (T, bool) {
	parked := false
	for {
		if v, ok := q.Dequeue(); ok {
			if parked && q.nonEmpty() {
				// One token may stand for several enqueues: pass it
				// on to the next parked consumer.
				q.consumers.open()
			}
			return v, true
		}
		ok, p := q.await(&q.consumers, q.nonEmpty, deadline)
		parked = parked || p
		if !ok {
			var zero T
			return zero, false
		}
	}
}

// nonEmpty polls the head pointer only, so an empty-queue spin neither
// copies nor zeroes an element.
func (q *Queue[T]) nonEmpty() bool { return q.head.Load().next.Load() != nil }

// hasRoom reports whether a bounded queue is below capacity.
func (q *Queue[T]) hasRoom() bool { return q.Len() < q.capacity }

// await returns once ready holds (ok) or the deadline passes (!ok; a zero
// deadline never passes): it spins, yields, then parks on d. parked
// reports whether it reached the door. A true ok is a hint: the caller
// retries its operation, which another waiter may have won.
func (q *Queue[T]) await(d *door, ready func() bool, deadline time.Time) (ok, parked bool) {
	for i := 0; i < spinIters+yieldIters; i++ {
		if ready() {
			return true, false
		}
		if i >= spinIters {
			runtime.Gosched()
		}
	}
	return q.park(d, ready, deadline), true
}

// park blocks on d until a token arrives or the deadline passes. The clock
// is read here only, once on each side of the block.
func (q *Queue[T]) park(d *door, ready func() bool, deadline time.Time) bool {
	d.sleepers.Add(1)
	defer d.sleepers.Add(-1)
	if ready() {
		return true
	}
	start := time.Now()
	var t *time.Timer
	var expired <-chan time.Time // nil, so never ready, without a deadline
	if !deadline.IsZero() {
		wait := deadline.Sub(start)
		if wait <= 0 {
			return false
		}
		if t = q.timer.Swap(nil); t == nil {
			t = time.NewTimer(wait)
		} else {
			t.Reset(wait)
		}
		expired = t.C
	}
	q.parks.Add(1)
	woken := true
	select {
	case <-d.token:
		// Go 1.22 timer rules: a timer that fired before Stop still
		// owes its channel one value; receive it so the cached timer is
		// drained for the next Reset.
		if t != nil && !t.Stop() {
			<-t.C
		}
	case <-expired:
		woken = false
	}
	if t != nil {
		q.timer.Store(t)
	}
	q.parkNS.Add(int64(time.Since(start)))
	return woken || ready()
}

// Len returns an instantaneous (racy) element count, useful for stats.
func (q *Queue[T]) Len() int64 {
	n := q.enqueues.Load() - q.dequeues.Load()
	if n < 0 {
		return 0
	}
	return n
}

// Stats returns total enqueue and dequeue counts (the message-cost input of
// the SGX cost model).
func (q *Queue[T]) Stats() (enqueues, dequeues int64) {
	return q.enqueues.Load(), q.dequeues.Load()
}

// Parks counts the blocking waits (consumers, and producers at capacity)
// that parked on a door instead of finishing in the spin — the observable
// difference between a parked idle worker and a hot one.
func (q *Queue[T]) Parks() int64 { return q.parks.Load() }

// ParkTime is the total time the waits counted by Parks spent parked.
func (q *Queue[T]) ParkTime() time.Duration { return time.Duration(q.parkNS.Load()) }

// Depth is the queue-depth gauge (an alias of Len, named for metrics).
func (q *Queue[T]) Depth() int64 { return q.Len() }

// Capacity returns the cooperative bound (0 = unbounded).
func (q *Queue[T]) Capacity() int64 { return q.capacity }

// FullWaits counts how many EnqueueBlock calls found the queue at capacity
// and had to wait — the backpressure events seen by producers.
func (q *Queue[T]) FullWaits() int64 { return q.fullWaits.Load() }
