// Package queue provides the lock-free FIFO communication channel of the
// Privagic runtime (paper §7.3.2: "each worker thread has a communication
// channel implemented as a lock-free FIFO queue stored in unsafe memory",
// citing Michael & Scott and Herlihy & Shavit [21, 28]).
//
// Producers never lock. A queue is a singly linked list behind a sentinel
// node, and a push is Vyukov's intrusive MPSC publish: swap the new node
// into tail, then link the previous tail to it. A producer stalled between
// the swap and the link hides its node, and every node pushed after it,
// from the consumer until it links: later messages are delayed, none is
// lost, and the consumer's wait (below) covers the gap like an empty
// queue.
//
// The consumer side holds a mutex. In the runtime one worker goroutine
// consumes each queue, so the lock is uncontended; it exists for the rare
// second consumer — DequeueRaw inspecting a queue its worker still reads,
// Close's drain, and MPMC tests — which would otherwise race to move the
// head.
//
// Nodes are recycled, so a warm hop allocates nothing. Once the head has
// moved past the old sentinel, no producer can touch that node again: a
// producer touches only the node it pushes and the node it swapped out of
// tail, and it links the latter before the head can move past it. So the
// consumer pushes the old sentinel on the queue's free stack (a Treiber push, capped
// at freeCap nodes; the rest go to the GC). A sender holding a Cache takes
// the whole stack with one swap — taking all of it, never one node, is
// what rules out ABA — and spends its cache before it allocates. Raw
// Enqueue (the fault injector playing the attacker, stop messages)
// allocates a fresh node.
//
// Queues are unbounded, so an enqueue never blocks. A blocking dequeue
// goes through the consumers' door: the waiter first spins on the
// queue's state, then yields, then parks: it registers as a sleeper,
// re-checks, and blocks on a one-slot token channel. Enqueue hands over a
// token, without blocking, whenever a sleeper is registered. A message
// that arrives after its consumer parked is therefore delivered at the
// cost of one goroutine wakeup, not at the end of a sleep.
//
// Each queue tracks its own depth, enqueue/dequeue totals, parks and park
// time; the runtime aggregates them across workers into the prt.queue.*
// gauges (see OBSERVABILITY.md).
package queue

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// node is one queue cell. On a free stack or in a Cache, next links it to
// the node below it, and depth (free stack only) counts the nodes from it
// to the bottom.
type node[T any] struct {
	val   T
	next  atomic.Pointer[node[T]]
	depth atomic.Int32
}

// freeCap bounds a queue's free stack. Recycled nodes beyond it go to the
// GC: a worker that receives far more than it sends would otherwise hoard
// nodes its senders never come back for.
const freeCap = 16

// Cache is one sender's private stock of recycled nodes, refilled from the
// free stack of a queue it sends to. Not safe for concurrent use: each
// sending goroutine holds its own. The zero value is ready.
type Cache[T any] struct {
	free *node[T]
}

// door is the parked half of the consumers' blocking wait. A waiter that
// ran out of spins registers in sleepers, re-checks the queue and blocks
// on token; Enqueue, right after publishing an element, calls open. Sleepers is incremented before the re-check and
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

// Queue is a multi-producer FIFO with lock-free producers and a locked
// (normally single) consumer. The zero value is not ready; use New.
type Queue[T any] struct {
	// mu serializes consumers. head is the sentinel, head.next the
	// front; only a holder of mu moves it, and it is atomic so the
	// unlocked emptiness polls read it race-free.
	mu   sync.Mutex
	head atomic.Pointer[node[T]]
	// tail is the most recently pushed node, linked or not yet.
	tail atomic.Pointer[node[T]]
	// free is the stack of recycled nodes senders refill their Caches
	// from.
	free atomic.Pointer[node[T]]

	consumers door // waiting for an element; opened by Enqueue
	// timer is a stopped, drained deadline timer kept for the next timed
	// park, so parking allocates nothing. A waiter takes it with Swap; a
	// second concurrent timed waiter makes its own.
	timer atomic.Pointer[time.Timer]

	enqueues atomic.Int64
	dequeues atomic.Int64
	parks    atomic.Int64
	parkNS   atomic.Int64
}

// New creates an empty queue.
func New[T any]() *Queue[T] {
	q := &Queue[T]{}
	sentinel := &node[T]{}
	q.head.Store(sentinel)
	q.tail.Store(sentinel)
	q.consumers.token = make(chan struct{}, 1)
	return q
}

// Enqueue appends v in a freshly allocated node and wakes a parked
// consumer. It is the raw insertion path; senders that own a Cache use
// EnqueueCached.
func (q *Queue[T]) Enqueue(v T) { q.push(&node[T]{val: v}) }

// EnqueueCached appends v like Enqueue, in a node from c, refilled from
// the queue's free stack when empty. It allocates only when both are
// empty; a nil c always allocates.
func (q *Queue[T]) EnqueueCached(c *Cache[T], v T) { q.push(q.take(c, v)) }

// take returns a node holding v: the next one in c, after refilling c with
// the queue's whole free stack if it is empty, or a new one.
func (q *Queue[T]) take(c *Cache[T], v T) *node[T] {
	if c == nil {
		return &node[T]{val: v}
	}
	n := c.free
	if n == nil && q.free.Load() != nil {
		n = q.free.Swap(nil)
	}
	if n == nil {
		return &node[T]{val: v}
	}
	c.free = n.next.Load()
	n.next.Store(nil)
	n.val = v
	return n
}

// push publishes n (Vyukov: swap it into tail, then link the old tail to
// it) and wakes a parked consumer. n.next must be nil.
func (q *Queue[T]) push(n *node[T]) {
	prev := q.tail.Swap(n)
	prev.next.Store(n)
	q.enqueues.Add(1)
	q.consumers.open()
}

// Dequeue removes and returns the front element, reporting false when the
// queue is empty (or its front producer has swapped but not yet linked).
// The old sentinel goes on the free stack.
func (q *Queue[T]) Dequeue() (T, bool) {
	var zero T
	q.mu.Lock()
	head := q.head.Load()
	next := head.next.Load()
	if next == nil {
		q.mu.Unlock()
		return zero, false
	}
	v := next.val
	next.val = zero // next is the new sentinel: drop the reference for the GC
	q.head.Store(next)
	q.recycle(head)
	q.mu.Unlock()
	q.dequeues.Add(1)
	return v, true
}

// recycle pushes a retired sentinel on the free stack unless the stack is
// full. q.mu must be held: pushes are then serialized, and a sender's
// Swap(nil) only empties the stack, so the CAS cannot suffer ABA.
func (q *Queue[T]) recycle(n *node[T]) {
	for {
		top := q.free.Load()
		depth := int32(1)
		if top != nil {
			if depth = top.depth.Load() + 1; depth > freeCap {
				return
			}
		}
		n.depth.Store(depth)
		n.next.Store(top)
		if q.free.CompareAndSwap(top, n) {
			return
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

// Window bounds a blocking dequeue. It opens when the wait first parks,
// so a wait that the spin or yield phase ends reads no clock, and it runs
// out Len later. Dequeues given the same Window share one deadline until
// Reset. A nil Window, or a zero Len, never runs out.
type Window struct {
	Len time.Duration
	// Opened, when set, runs on the waiting goroutine as the window opens.
	Opened func()
	end    time.Time
}

// Reset re-arms the window with length d: it opens again at the next
// park.
func (win *Window) Reset(d time.Duration) { win.Len, win.end = d, time.Time{} }

// DequeueWithin waits until an element arrives, reporting false once win
// runs out. The clock is read only if the wait parks.
func (q *Queue[T]) DequeueWithin(win *Window) (T, bool) {
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
		ok, p := q.await(win)
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

// await returns once the queue is non-empty (ok) or win runs out (!ok):
// it spins, yields, then parks on the consumers' door. parked reports whether it reached the door. A true
// ok is a hint: the caller retries its dequeue, which another consumer
// may have won.
func (q *Queue[T]) await(win *Window) (ok, parked bool) {
	for i := 0; i < spinIters+yieldIters; i++ {
		if q.nonEmpty() {
			return true, false
		}
		if i >= spinIters {
			runtime.Gosched()
		}
	}
	return q.park(win), true
}

// park blocks on the consumers' door until a token arrives or win runs
// out, opening win if this is its first park. The clock is read here
// only, once on each side of the block.
func (q *Queue[T]) park(win *Window) bool {
	d := &q.consumers
	d.sleepers.Add(1)
	defer d.sleepers.Add(-1)
	if q.nonEmpty() {
		return true
	}
	start := time.Now()
	var t *time.Timer
	var expired <-chan time.Time // nil, so never ready, without a window
	if win != nil && win.Len > 0 {
		if win.end.IsZero() {
			win.end = start.Add(win.Len)
			if win.Opened != nil {
				win.Opened()
			}
		}
		wait := win.end.Sub(start)
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
	return woken || q.nonEmpty()
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

// Parks counts the blocking waits that parked on the door instead of
// finishing in the spin — the observable difference between a parked
// idle worker and a hot one.
func (q *Queue[T]) Parks() int64 { return q.parks.Load() }

// ParkTime is the total time the waits counted by Parks spent parked.
func (q *Queue[T]) ParkTime() time.Duration { return time.Duration(q.parkNS.Load()) }
