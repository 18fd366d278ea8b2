// Package prt is the Privagic runtime (paper §5, §7.3): it runs one worker
// thread per (application thread × enclave), each with a communication
// channel implemented as a lock-free FIFO queue stored in unsafe memory,
// and provides the spawn message, the cont message, and the wait function
// that the partitioned code uses (§7.3.2).
//
// Enclave workers live inside their enclave (the FastSGX model [40]): a
// message hop costs one queue round trip, not an enclave transition —
// which is precisely why the paper's Figure 9 shows Privagic beating the
// Intel SDK's lock-based switchless calls.
//
// Because the queues live in U memory, everything read off them is
// attacker-controlled (the Iago stance of §4). The runtime therefore
// treats every dequeued message as hostile until proven otherwise: spawn
// messages are checked against the ValidateSpawn whitelist (§8), and all
// messages carry an authentication stamp (the simulated analogue of a MAC
// over the message body), a per-(epoch, receiver) stream sequence number
// (the receiver reassembles the exact send order, which both suppresses
// replayed duplicates and undoes adversarial reordering — generated code
// pipelines order-sensitive same-tag cont streams, so FIFO delivery is a
// correctness requirement, not an optimization), and an epoch (staleness
// fencing across invocations). See Worker.next. The supervision layer
// (supervise.go) adds inactivity deadlines, abort propagation and a
// watchdog so a crashed enclave or a lost cont degrades into a typed
// error instead of a deadlock.
package prt

import (
	"context"
	"encoding/binary"
	"fmt"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"privagic/internal/obs"
	"privagic/internal/queue"
	"privagic/internal/sgx"
	"privagic/internal/value"
)

// MsgKind discriminates runtime messages.
type MsgKind int

// Message kinds: Spawn starts a chunk on the receiving worker; Cont carries
// a Free value to a waiting chunk; Done is a spawn-completion notification
// carrying the chunk's return value.
const (
	MsgSpawn MsgKind = iota + 1
	MsgCont
	MsgDone
	msgStop
)

// authStamp marks a message as produced by the trusted runtime (the
// simulation of a MAC computed inside the enclave). The field is
// unexported, so code outside this package — including the fault injector
// playing the attacker — cannot forge it; it can only replay complete
// messages, which the stream-sequence reassembly catches (a replayed
// message re-arrives below the receiver's consumed watermark).
const authStamp uint32 = 0x5afe

// reorderBufCap bounds the receiver-side reassembly buffer. A gap that
// never fills (permanent loss) stalls the stream; the inactivity timeout
// converts the stall into a typed error long before a sane protocol
// accumulates this many out-of-order messages, so the cap only guards
// against a pathological adversary ballooning memory.
const reorderBufCap = 1024

// Message is one element of a worker's lock-free channel. Its values are
// typed machine words, so a hop boxes nothing.
type Message struct {
	Kind MsgKind
	// Spawn fields. Args also carries the values of a vectored cont.
	// The slice is shared with the sender (and the journal): nobody may
	// write into it once it is sent.
	ChunkID   int
	Args      []value.Val
	NeedReply bool
	ReplyTo   *Worker
	// Cont/Done payload.
	Payload value.Val
	// From is the color index of the sending worker (set on Done).
	From int
	// Tag matches a cont message with its wait point. Two producers
	// sending to the same consumer are only ordered through causality,
	// which goroutine scheduling can break; the static tag (assigned
	// per transport by the partitioner) makes delivery order-free.
	Tag int
	// Err poisons a Done: the spawned chunk aborted (EnclaveAbort)
	// instead of completing, and the joiner must surface the error.
	Err error

	// Trusted-side metadata (see package comment). Unexported on
	// purpose: a forged message cannot carry a valid auth stamp. strSeq
	// is the position of this message in its (epoch, receiver) stream,
	// assigned at send time; the receiver delivers strictly in strSeq
	// order, so duplicates and reorderings cannot reach the protocol.
	// paySum extends the stamp from the message struct to its payload
	// words (Runtime.PayloadTags): a checksum over kind, routing fields
	// and payload values, computed at send time and re-verified at the
	// admit gate, so mutating a queued message in place — auth stamp and
	// sequence intact — is detected on dequeue.
	auth   uint32
	strSeq uint64
	epoch  uint64
	paySum uint64
	// sentNS is the send-time clock of a hop the latency histogram
	// samples (see hopSampled); zero otherwise. Telemetry, outside the
	// payload tag.
	sentNS int64
}

// ChunkExec executes the body of a chunk; the interpreter and the native
// benchmark harness plug in here. It runs on the worker's goroutine with
// the worker's enclave as the active mode.
// args is the spawn message's argument vector, shared with the sender and
// the journal: the callback must not write into it.
type ChunkExec func(w *Worker, chunkID int, args []value.Val) value.Val

// Interceptor is the fault-injection seam: when installed, every runtime
// message is handed to Deliver instead of being enqueued directly, and the
// interceptor decides what actually reaches the queue (EnqueueRaw), in
// what order, and how many times. Control (stop) messages bypass it.
type Interceptor interface {
	Deliver(to *Worker, msg Message)
}

// interceptorBox wraps the interface for atomic.Pointer storage.
type interceptorBox struct{ ic Interceptor }

// Engine selects the chunk execution tier workers run their bodies on.
// The runtime itself is engine-agnostic — the value is plumbed to each
// Worker at creation (and across restarts) so the embedder's ChunkExec
// callback can pick the tier per worker; see internal/interp.
type Engine uint8

const (
	// EngineInterp runs chunk bodies on the reference interpreter.
	EngineInterp Engine = iota
	// EngineCompiled runs chunk bodies as closure-compiled step arrays
	// (internal/passes/compile).
	EngineCompiled
	// EngineDifferential runs the interpreter live, then replays the
	// compiled tier against the recorded trace and hard-errors on any
	// divergence (the differential oracle, DESIGN.md §18).
	EngineDifferential
)

// String names the engine for diagnostics.
func (e Engine) String() string {
	switch e {
	case EngineCompiled:
		return "compiled"
	case EngineDifferential:
		return "differential"
	default:
		return "interp"
	}
}

// Runtime owns the enclaves and cost accounting of one partitioned
// application execution.
type Runtime struct {
	Machine *sgx.Machine
	Meter   *sgx.Meter
	Space   *sgx.AddressSpace
	Colors  []string // enclave names; index i -> region ID i+1
	Exec    ChunkExec

	// ValidateSpawn, when set, is consulted inside the enclave before a
	// spawn message is honored (the §8 future-work defense against
	// attacker-injected spawns): return false to reject. The check runs
	// in enclave mode, so the whitelist itself is tamper-proof.
	ValidateSpawn func(workerIdx, chunkID int) bool

	// ValidateCont, when set, rejects cont messages whose tag the
	// partitioner never allocated (defense-in-depth beside the auth
	// stamp: a forged tag must not park forever in a pending buffer).
	ValidateCont func(tag int) bool

	// PayloadTags arms payload integrity tags (part of the runtime Iago
	// defense): outbound messages carry a checksum over their payload
	// words, and the admit gate rejects any message whose contents no
	// longer match — the in-place queue mutation the plain auth stamp
	// cannot see. Set it before creating threads.
	PayloadTags bool

	// Supervise configures the fault-tolerance layer (zero = off).
	// Set it before creating threads.
	Supervise Supervision

	// Recovery configures bounded restart/replay of aborted spawns
	// (zero = off, the surface-the-error behavior). Set it before
	// creating threads; see retry.go and journal.go.
	Recovery RecoveryPolicy

	// Engine is the execution tier copied to every worker created after
	// it is set (SetEngine on the interpreter sets it before the first
	// thread exists). Restarted workers inherit their predecessor's
	// engine, so a mid-run restart cannot silently change tiers.
	Engine Engine

	// Tracer, when set, records a structured event per runtime decision
	// (admit-gate rejects, spawns, waits, replays, restarts — see
	// internal/obs and OBSERVABILITY.md). Nil disables tracing at the
	// cost of one branch per site. Set it before creating threads.
	Tracer *obs.Tracer

	// hChunkUS/hWaitUS/hHopUS are the latency histograms RegisterMetrics
	// arms (nil = no timing instrumentation at all).
	hChunkUS *obs.Histogram
	hWaitUS  *obs.Histogram
	hHopUS   *obs.Histogram

	// jr is the spawn redo log backing Recovery.
	jr journal

	interceptor atomic.Pointer[interceptorBox]

	// lastAdmit is the UnixNano timestamp of the most recent admitted
	// message anywhere in the runtime. The inactivity window measures
	// system-wide quiescence against it: a waiter whose own queue is
	// silent keeps waiting while other workers are still making
	// progress (a deep protocol phase may not touch every worker for a
	// while), and gives up only once the whole runtime has been quiet
	// for a full window — which a genuine loss or deadlock forces.
	lastAdmit atomic.Int64

	stats        supCounters
	watchdogOnce sync.Once
	watchdogStop chan struct{}
	shutdownOnce sync.Once

	mu      sync.Mutex
	threads []*Thread
}

// RejectedSpawns reports how many spawn messages validation refused.
func (rt *Runtime) RejectedSpawns() int64 { return rt.stats.rejectedSpawns.Load() }

// SetInterceptor installs (or removes, with nil) the fault-injection hook.
func (rt *Runtime) SetInterceptor(ic Interceptor) {
	if ic == nil {
		rt.interceptor.Store(nil)
		return
	}
	rt.interceptor.Store(&interceptorBox{ic: ic})
}

// New creates a runtime with one enclave region per color.
func New(m *sgx.Machine, colors []string, exec ChunkExec) *Runtime {
	return &Runtime{
		Machine: m,
		Meter:   &sgx.Meter{},
		Space:   sgx.NewAddressSpace(colors...),
		Colors:  colors,
		Exec:    exec,
	}
}

// RegionOf maps a color index (0 = unsafe) to its region.
func (rt *Runtime) RegionOf(colorIdx int) sgx.RegionID {
	return sgx.RegionID(colorIdx)
}

// Worker is the execution context bound to one enclave (or to normal mode
// for index 0) within one application thread.
type Worker struct {
	Thread *Thread
	Index  int // 0 = normal mode; i>0 = enclave i
	Mode   sgx.Mode

	q *queue.Queue[Message]
	// cache holds recycled queue nodes for this worker's own sends.
	// Touched only on the worker's own goroutine (the app thread, for
	// index 0); sends made for it from elsewhere (restart re-deliveries,
	// journal replays) take the raw path.
	cache queue.Cache[Message]
	// pendingCont/pendingDone buffer conts and completions that arrived
	// before anyone waited for them (see dispatch and await).
	pendingCont []Message
	pendingDone []Message
	stopped     chan struct{}

	// Consumer-side state, touched only on the worker's own goroutine
	// (or the app thread, for index 0). ordEpoch/expect/reorderBuf
	// reassemble the sender-side stream order: expect is the highest
	// strSeq consumed this epoch, reorderBuf parks messages that arrived
	// ahead of a gap.
	ordEpoch   uint64
	expect     uint64
	reorderBuf map[uint64]Message
	execEpoch  uint64 // epoch of the spawn currently executing
	stopping   bool   // a stop was consumed mid-protocol
	// admitNS is the wall clock of this worker's most recent admitted
	// message — the per-worker twin of rt.lastAdmit, reusing the same
	// clock read. The wait-latency histogram derives block durations
	// from it instead of reading the clock again.
	admitNS int64

	// att is the attempt currently executing on this worker: its journal
	// entry (nil when recovery is off or the spawn is not journaled),
	// where the cont replay caches live, and its own load log. loadHint
	// is the size of the last attempt's load log, which sizes the next
	// one's. Touched only on the worker's own goroutine.
	att      attempt
	loadHint logSize

	// Engine is the execution tier this worker runs chunk bodies on,
	// copied from Runtime.Engine at creation (and from the predecessor
	// on restart).
	Engine Engine

	// Local is the embedder's per-worker state, one value of the
	// embedder's own type. Touched only on the worker's own goroutine;
	// a restarted worker starts without it.
	Local any

	// block publishes what the worker is blocked on, for the watchdog
	// and for timeout diagnostics.
	block blockState
}

// Thread models one application thread: the normal-mode context plus one
// worker goroutine per enclave ("for each thread of the application,
// Privagic runs one worker thread per enclave", §8).
type Thread struct {
	RT *Runtime
	// Workers holds the live worker of each color (index 0 is the app
	// thread itself, normal mode). A restart swaps a replacement in
	// under wmu; use Worker()/Normal() rather than indexing directly
	// when restarts may be live.
	Workers []*Worker
	wmu     sync.RWMutex
	nw      int // worker count, fixed at creation (len(Workers))
	wg      sync.WaitGroup
	epoch   atomic.Uint64
	closed  atomic.Bool

	// sendMu guards sendSeqs: per-epoch, per-receiver stream counters,
	// one slot for each of the two admissible epochs. Stamping happens
	// under the lock, so concurrent senders to the same receiver get
	// distinct consecutive positions; the receiver then reconstructs
	// exactly this order regardless of delivery order.
	sendMu   sync.Mutex
	sendSeqs [2]epochSeqs

	// ctx is canceled by Close so goroutines sleeping inside a recovery
	// backoff (retry.Policy.Sleep) wake immediately instead of serving
	// out the delay against a thread that is already shutting down.
	ctx    context.Context
	cancel context.CancelFunc
}

// epochSeqs is one epoch's per-receiver stream counters.
type epochSeqs struct {
	epoch uint64
	seqs  []uint64 // nil until the slot is first used
}

// nextStrSeq allocates the next stream position for a message to the
// receiver with the given index, within the given epoch. Only epochs e
// and e-1 can produce admissible messages, so two slots suffice: a new
// epoch takes over the older slot and its counters. A straggler stamping
// an epoch older than both slots gets position 0 and evicts nothing —
// the thread is at least two epochs past it, so the receiver drops the
// message as stale.
func (t *Thread) nextStrSeq(epoch uint64, toIdx int) uint64 {
	t.sendMu.Lock()
	defer t.sendMu.Unlock()
	a, b := &t.sendSeqs[0], &t.sendSeqs[1]
	var s *epochSeqs
	switch {
	case a.seqs != nil && a.epoch == epoch:
		s = a
	case b.seqs != nil && b.epoch == epoch:
		s = b
	case a.seqs == nil:
		s = a
	case b.seqs == nil:
		s = b
	default:
		if b.epoch < a.epoch {
			a, b = b, a
		}
		if epoch < a.epoch {
			return 0
		}
		s = a // the older slot
	}
	if s.seqs == nil {
		s.seqs = make([]uint64, t.nw)
	} else if s.epoch != epoch {
		clear(s.seqs)
	}
	s.epoch = epoch
	s.seqs[toIdx]++
	return s.seqs[toIdx]
}

// newWorkerQueue creates a worker channel honoring the configured queue
// capacity: bounded when Supervise.QueueCapacity > 0 (senders then feel
// backpressure through rt.send), unbounded otherwise.
func (rt *Runtime) newWorkerQueue() *queue.Queue[Message] {
	if c := rt.Supervise.QueueCapacity; c > 0 {
		return queue.NewBounded[Message](c)
	}
	return queue.New[Message]()
}

// NewThread creates the workers of one application thread and starts the
// enclave goroutines.
func (rt *Runtime) NewThread() *Thread {
	t := &Thread{RT: rt}
	t.ctx, t.cancel = context.WithCancel(context.Background())
	for i := 0; i <= len(rt.Colors); i++ {
		w := &Worker{
			Thread:  t,
			Index:   i,
			Mode:    rt.RegionOf(i),
			Engine:  rt.Engine,
			q:       rt.newWorkerQueue(),
			stopped: make(chan struct{}),
		}
		t.Workers = append(t.Workers, w)
	}
	t.nw = len(t.Workers)
	for _, w := range t.Workers[1:] {
		t.wg.Add(1)
		go w.loop(&t.wg)
		// Starting a worker inside an enclave costs one transition.
		rt.Meter.ChargeTransition(&rt.Machine.Cost)
	}
	rt.mu.Lock()
	rt.threads = append(rt.threads, t)
	rt.mu.Unlock()
	rt.maybeStartWatchdog()
	return t
}

// AdvanceEpoch fences a new top-level invocation: messages stamped with an
// older epoch (stragglers of a failed or timed-out run, late retransmits,
// delayed duplicates) are discarded instead of being matched against the
// new invocation's waits. Call it only at a protocol quiescent point.
func (t *Thread) AdvanceEpoch() { t.epoch.Add(1) }

// Close stops the thread's enclave workers, waits for them to exit, and
// drains every leftover message (a crashed protocol must not leak queue
// contents into a later reuse of the address space). Close is idempotent.
func (t *Thread) Close() {
	if !t.closed.CompareAndSwap(false, true) {
		return
	}
	if t.cancel != nil {
		t.cancel()
	}
	t.wmu.RLock()
	workers := append([]*Worker(nil), t.Workers...)
	t.wmu.RUnlock()
	for _, w := range workers[1:] {
		// Control messages bypass the interceptor: the attacker owns
		// the data plane, not the host's ability to stop a worker.
		w.q.Enqueue(Message{Kind: msgStop, auth: authStamp})
	}
	t.wg.Wait()
	drained := int64(0)
	for _, w := range workers {
		for {
			if _, ok := w.q.Dequeue(); !ok {
				break
			}
			drained++
		}
		drained += int64(len(w.pendingCont) + len(w.pendingDone) + len(w.reorderBuf))
		w.pendingCont, w.pendingDone, w.reorderBuf = nil, nil, nil
	}
	if drained > 0 {
		t.RT.stats.drained.Add(drained)
	}
}

// Normal returns the normal-mode context of the thread.
func (t *Thread) Normal() *Worker { return t.Worker(0) }

// Worker returns the live worker bound to colorIdx (0 = normal mode).
// After a restart this is the replacement, not the dead incarnation.
func (t *Thread) Worker(colorIdx int) *Worker {
	t.wmu.RLock()
	w := t.Workers[colorIdx]
	t.wmu.RUnlock()
	return w
}

// EnqueueRaw places a message on the worker's queue exactly as given,
// preserving its trusted-side metadata. This is how an interceptor
// releases (or duplicates) messages it previously captured.
func (w *Worker) EnqueueRaw(msg Message) { w.q.Enqueue(msg) }

// DequeueRaw pops the worker's next queued message without the admit gate —
// the inspection half of the injector seam (EnqueueRaw is the insertion
// half). Tests and diagnostics only: consuming a live worker's messages
// breaks the protocol.
func (w *Worker) DequeueRaw() (Message, bool) { return w.q.Dequeue() }

// DeliverHostile enqueues a message without the runtime's authentication
// stamp — the simulation of an attacker writing a forged message into the
// U-memory queue. The receiving worker is expected to reject it.
func (w *Worker) DeliverHostile(msg Message) {
	msg.auth = 0
	w.q.Enqueue(msg)
}

// epochNow is the epoch to stamp on outbound messages: the app thread
// defines the thread's epoch; an enclave worker propagates the epoch of
// the spawn it is executing, so a straggler finishing old work cannot
// pollute a newer invocation.
func (w *Worker) epochNow() uint64 {
	if w.Index == 0 {
		return w.Thread.epoch.Load()
	}
	return w.execEpoch
}

// Epoch is the epoch the worker is executing in: the thread's current
// one for the normal-mode worker, the epoch of the spawn it is running
// for an enclave worker. An embedder that keeps per-Call state on an
// enclave worker resets it when a top-level spawn carries a newer epoch.
func (w *Worker) Epoch() uint64 { return w.epochNow() }

// loop is the top-level scheduler of an enclave worker: it executes spawn
// messages until stopped (Figure 7's "wait()" at the top of each enclave
// column). Everything else is buffered for a later wait point: a cont
// that overtakes the spawn of the chunk waiting for it is the ordinary
// case, not an error.
func (w *Worker) loop(wg *sync.WaitGroup) {
	defer wg.Done()
	defer close(w.stopped)
	for !w.stopping {
		msg, _ := w.next(time.Time{})
		if msg.Kind == MsgDone {
			// A completion with no joiner: its spawner crashed before
			// joining. It stays unhandled until the next blocking point
			// (see await), where recovery can replay the crashed chunk.
			w.pendingDone = append(w.pendingDone, msg)
			continue
		}
		w.dispatch(msg)
	}
}

// dispatch handles an admitted message its receiver is not waiting for: a
// spawn runs, a stop marks the worker stopping, a cont is buffered for its
// own wait point, and a completion gets recovery's first refusal before it
// is buffered for the next join.
func (w *Worker) dispatch(msg Message) {
	switch msg.Kind {
	case MsgSpawn:
		w.runSpawn(msg)
	case msgStop:
		w.stopping = true
	case MsgCont:
		w.pendingCont = append(w.pendingCont, msg)
	case MsgDone:
		if !w.handleDone(msg) {
			w.pendingDone = append(w.pendingDone, msg)
		}
	}
}

// next returns the next trustworthy message in its sender-side stream
// order. It is the Iago gate: forged messages (missing auth stamp) and
// stale stragglers (older epoch) are rejected outright, and authentic
// messages are reassembled by strSeq — a replay arrives at or below the
// consumed watermark and is dropped as a duplicate, an overtaking message
// parks in reorderBuf until the gap before it fills. A zero deadline
// blocks forever; otherwise ok=false on timeout (parked out-of-order
// arrivals do not count as progress, so a permanent gap still times out).
// Runs only on the worker's consumer goroutine.
func (w *Worker) next(deadline time.Time) (Message, bool) {
	rt := w.Thread.RT
	for {
		// The stream state follows the thread's epoch.
		if e := w.Thread.epoch.Load(); w.ordEpoch != e {
			w.resetStream(e)
		}
		// A previously parked successor may now be deliverable.
		if msg, ok := w.reorderBuf[w.expect+1]; ok {
			delete(w.reorderBuf, w.expect+1)
			w.expect++
			w.admit(&msg)
			if w.accept(msg) {
				return msg, true
			}
			continue
		}
		msg, ok := w.q.DequeueUntil(deadline)
		if !ok {
			return Message{}, false
		}
		if msg.auth != authStamp {
			switch msg.Kind {
			case MsgSpawn:
				rt.stats.hostileSpawns.Add(1)
			case MsgCont:
				rt.stats.hostileConts.Add(1)
			default:
				rt.stats.hostileOther.Add(1)
			}
			rt.trace(obs.EvRejectForged, w.Index, msg.ChunkID, msg.Tag, msg.epoch, int64(msg.Kind))
			continue
		}
		if msg.Kind == msgStop {
			return msg, true
		}
		switch {
		case msg.epoch < w.ordEpoch:
			rt.stats.droppedStale.Add(1)
			rt.trace(obs.EvDropStale, w.Index, msg.ChunkID, msg.Tag, msg.epoch, int64(msg.Kind))
			continue
		case msg.epoch > w.ordEpoch:
			// The thread advanced between our epoch load and this
			// dequeue; adopt the newer epoch.
			w.resetStream(msg.epoch)
		}
		switch {
		case msg.strSeq <= w.expect:
			rt.stats.droppedDuplicates.Add(1)
			rt.trace(obs.EvDropDuplicate, w.Index, msg.ChunkID, msg.Tag, msg.epoch, int64(msg.strSeq))
			continue
		case msg.strSeq > w.expect+1:
			if len(w.reorderBuf) < reorderBufCap {
				if w.reorderBuf == nil {
					w.reorderBuf = make(map[uint64]Message, 8)
				}
				w.reorderBuf[msg.strSeq] = msg
				rt.trace(obs.EvParkReorder, w.Index, msg.ChunkID, msg.Tag, msg.epoch, int64(msg.strSeq))
			} else {
				rt.stats.droppedStale.Add(1)
			}
			continue
		}
		w.expect++
		w.admit(&msg)
		if w.accept(msg) {
			return msg, true
		}
	}
}

// hopEvery is the hop histogram's sampling period: it times the first
// message of each stream and every hopEvery-th after it. Timing every hop
// costs a clock read per send and contended histogram updates per admit,
// which on the message-heavy hashmap2 workload more than doubled the cost
// of arming metrics.
const hopEvery = 8

// hopSampled reports whether the hop histogram times the message at
// stream position strSeq.
func hopSampled(strSeq uint64) bool { return strSeq%hopEvery == 1 }

// admit stamps the admission of the next in-order message: the runtime's
// and the worker's activity clocks and, when armed, the hop-latency
// histogram (send to admit).
func (w *Worker) admit(msg *Message) {
	rt := w.Thread.RT
	now := time.Now().UnixNano()
	rt.lastAdmit.Store(now)
	w.admitNS = now
	if rt.hHopUS != nil && msg.sentNS != 0 {
		if d := (now - msg.sentNS) / 1e3; d >= 0 {
			rt.hHopUS.Observe(d)
		}
	}
}

// sysActiveWithin reports whether any worker of the runtime admitted a
// message in the last d. Hostile, duplicate and stale rejects do not
// count: a forged or replayed flood cannot keep a doomed wait alive.
func (rt *Runtime) sysActiveWithin(d time.Duration) bool {
	last := rt.lastAdmit.Load()
	return last != 0 && time.Since(time.Unix(0, last)) < d
}

// resetStream rebases the consumer's stream state onto a new epoch,
// discarding parked messages of the old one.
func (w *Worker) resetStream(epoch uint64) {
	w.ordEpoch = epoch
	w.expect = 0
	if n := len(w.reorderBuf); n > 0 {
		w.Thread.RT.stats.droppedStale.Add(int64(n))
		clear(w.reorderBuf)
	}
}

// accept applies the content checks to an authentic, in-order message. A
// rejected message has already consumed its stream position, so the
// stream keeps flowing past it.
func (w *Worker) accept(msg Message) bool {
	rt := w.Thread.RT
	if rt.PayloadTags && msg.paySum != payloadSum(&msg) {
		rt.stats.payloadTampered.Add(1)
		rt.trace(obs.EvRejectPayload, w.Index, msg.ChunkID, msg.Tag, msg.epoch, int64(msg.Kind))
		return false
	}
	if msg.Kind == MsgCont && rt.ValidateCont != nil && !rt.ValidateCont(msg.Tag) {
		rt.stats.rejectedConts.Add(1)
		rt.trace(obs.EvRejectContTag, w.Index, msg.ChunkID, msg.Tag, msg.epoch, 0)
		return false
	}
	return true
}

// prunePending drops buffered messages from older epochs before a wait
// point consults the buffers.
func (w *Worker) prunePending() {
	e := w.Thread.epoch.Load()
	prune := func(buf []Message) []Message {
		kept := buf[:0]
		for _, m := range buf {
			if m.epoch < e {
				w.Thread.RT.stats.droppedStale.Add(1)
				continue
			}
			kept = append(kept, m)
		}
		return kept
	}
	w.pendingCont = prune(w.pendingCont)
	w.pendingDone = prune(w.pendingDone)
}

// runSpawn executes a spawned chunk and reports completion. A panicking
// chunk is the simulated AEX: instead of killing the worker goroutine (and
// deadlocking the joiner forever), the panic is converted into a poisoned
// MsgDone carrying an *EnclaveAbort, and the worker survives to serve the
// next request.
func (w *Worker) runSpawn(msg Message) {
	rt := w.Thread.RT
	prevEpoch := w.execEpoch
	w.execEpoch = msg.epoch
	defer func() { w.execEpoch = prevEpoch }()
	if rt.ValidateSpawn != nil && !rt.ValidateSpawn(w.Index, msg.ChunkID) {
		rt.stats.rejectedSpawns.Add(1)
		if msg.ReplyTo != nil {
			// Still complete the join so legitimate peers cannot be
			// deadlocked by a rejected injection racing a real spawn.
			rt.send(w, msg.ReplyTo, Message{Kind: MsgDone, From: w.Index, ChunkID: msg.ChunkID}, &w.cache)
		}
		return
	}
	// Open an attempt on the journal entry (if any) for the duration of
	// the execution: the cont replay caches live there, the load log on
	// the attempt. Saved/restored so a nested spawn on the same worker
	// does not clobber the outer chunk's attempt.
	prevAtt := w.att
	w.att = attempt{}
	if rt.Recovery.Enabled() {
		if rec := rt.lookupSpawn(w.Thread, w.Index, msg.ChunkID); rec != nil {
			w.att = rec.beginAttempt(w.loadHint)
		}
	}
	defer func() {
		if w.att.rec != nil {
			w.loadHint = w.att.loads.size()
		}
		w.att = prevAtt
	}()
	// One clock read serves both the span-open event and the latency
	// histogram; with neither armed the spawn path never touches the clock.
	var started time.Time
	if rt.hChunkUS != nil || rt.Tracer != nil {
		started = time.Now()
	}
	rt.traceAt(started, obs.EvSpawn, w.Index, msg.ChunkID, 0, msg.epoch, 0)
	var ret value.Val
	aborted := func() (aborted bool) {
		defer func() {
			if r := recover(); r != nil {
				aborted = true
				rt.stats.aborts.Add(1)
				cause, ok := r.(error)
				if !ok {
					cause = fmt.Errorf("panic: %v", r)
				}
				abort := &EnclaveAbort{
					Worker: w.Index, ChunkID: msg.ChunkID, Cause: cause,
					stack: debug.Stack(),
				}
				rt.trace(obs.EvAbort, w.Index, msg.ChunkID, 0, msg.epoch, 0)
				// A crash publishes every load: the replay is served
				// exactly what this attempt read.
				w.PublishLoads()
				// Snapshot the flight record after the abort event, so
				// the record's last line is the abort itself.
				abort.flight = rt.flightDump()
				if msg.ReplyTo != nil {
					rt.send(w, msg.ReplyTo, Message{Kind: MsgDone, From: w.Index, ChunkID: msg.ChunkID, Err: abort}, &w.cache)
				}
			}
		}()
		ret = rt.Exec(w, msg.ChunkID, msg.Args)
		// A completed attempt publishes every load, like a crashed one:
		// its log is what a replay after a fenced completion is served,
		// and what a recycled record's next spawn logs into.
		w.PublishLoads()
		return false
	}()
	var ended time.Time
	if rt.hChunkUS != nil || rt.Tracer != nil {
		ended = time.Now()
	}
	if rt.hChunkUS != nil {
		rt.hChunkUS.Observe(ended.Sub(started).Microseconds())
	}
	rt.traceAt(ended, obs.EvSpawnEnd, w.Index, msg.ChunkID, 0, msg.epoch, 0)
	if !aborted && msg.ReplyTo != nil {
		rt.send(w, msg.ReplyTo, Message{Kind: MsgDone, Payload: ret, From: w.Index, ChunkID: msg.ChunkID}, &w.cache)
	}
}

// send enqueues a message, charging one queue hop. from is the sending
// worker (epoch provenance); the interceptor, when installed, owns the
// actual delivery. c is the calling goroutine's own node cache (nil
// allocates a fresh node): the sending worker's, when send runs on it.
func (rt *Runtime) send(from, to *Worker, msg Message, c *queue.Cache[Message]) {
	rt.Meter.ChargeMessage(&rt.Machine.Cost)
	msg.auth = authStamp
	if from != nil {
		msg.epoch = from.epochNow()
	} else {
		msg.epoch = to.Thread.epoch.Load()
	}
	msg.strSeq = to.Thread.nextStrSeq(msg.epoch, to.Index)
	// Trace after the routing metadata is final: the event carries the
	// stream position the receiver will reassemble by. Worker = receiver,
	// but the event lands in the sender's shard — recording is on the
	// sender's goroutine, and sharding by it keeps the lock uncontended.
	shard := to.Index
	if from != nil {
		shard = from.Index
	}
	rt.traceOn(shard, obs.EvSend, to.Index, msg.ChunkID, msg.Tag, msg.epoch, int64(msg.strSeq))
	if rt.PayloadTags {
		// Tag after the routing metadata is final: the sum covers epoch
		// and strSeq too, so a mutated copy cannot borrow a stale tag.
		msg.paySum = payloadSum(&msg)
	}
	if rt.hHopUS != nil && hopSampled(msg.strSeq) {
		msg.sentNS = time.Now().UnixNano()
	}
	if box := rt.interceptor.Load(); box != nil {
		box.ic.Deliver(to, msg)
		return
	}
	if to.q.Capacity() > 0 {
		// Bounded queue: make the producer feel a full consumer instead
		// of letting the queue grow without limit (end-to-end
		// backpressure). The counter is what admission control upstream
		// (e.g. the memcached front-end) reads to start shedding.
		if !to.q.TryEnqueue(c, msg) {
			rt.stats.backpressure.Add(1)
			to.q.EnqueueBlock(c, msg)
		}
		return
	}
	to.q.EnqueueCached(c, msg)
}

// JournalLoad threads one memory load of the currently executing chunk
// through its attempt's load log: on a replay, buf is overwritten with
// the bytes the crashed attempt read at this position; past that, buf is
// recorded. A no-op when the executing chunk is not journaled. The
// embedder (the interpreter) calls this on every mode-checked load so a
// replay observes the memory of the attempt its peers already reacted to,
// not whatever committed nested effects have since made of it. Lock-free:
// the log is the attempt's own until it is published.
func (w *Worker) JournalLoad(buf []byte) {
	if w.att.rec != nil {
		w.att.loads.load(buf)
	}
}

// JournalWord threads one 8-byte value the executing chunk obtained from
// the runtime, an alloca address, through its attempt's load log like a
// load: a replay is served the value the crashed attempt got, which
// peers may hold; past that, v is recorded. Returns v when the executing
// chunk is not journaled. Lock-free, like JournalLoad.
func (w *Worker) JournalWord(v uint64) uint64 {
	if w.att.rec == nil {
		return v
	}
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	w.att.loads.load(buf[:])
	return binary.LittleEndian.Uint64(buf[:])
}

// PublishLoads hands the executing attempt's load log to its journal
// entry. The embedder calls it just before the chunk's buffered effects
// commit: a restart may still replay a spawn that completed (its fenced
// completion never reaches the joiner), and that replay must be served
// every load behind the effects it would otherwise re-apply on top of
// themselves. A no-op when the chunk is not journaled.
func (w *Worker) PublishLoads() {
	if rec := w.att.rec; rec != nil {
		rec.mu.Lock()
		w.att.publish()
		rec.mu.Unlock()
	}
}

// JournalAlloc threads an allocation service call through the executing
// chunk's replay cache: a replay reuses the address the crashed attempt
// obtained instead of running alloc (the allocator's bump cursor is not
// part of the effect transaction, and peers may hold committed writes
// behind the original address). Live attempts run alloc and record the
// result. Calls alloc directly when the executing chunk is not journaled.
func (w *Worker) JournalAlloc(alloc func() uint64) uint64 {
	if rec := w.att.rec; rec != nil {
		return rec.journalAlloc(alloc)
	}
	return alloc()
}

// Spawn sends a spawn message for chunkID to the worker of colorIdx in the
// same thread (§7.3.2). The completion Done is routed back to the caller.
// args travels with the message (and the journal) uncopied: the caller
// must not write into it afterwards.
func (w *Worker) Spawn(colorIdx int, chunkID int, args []value.Val, needReply bool) {
	rt := w.Thread.RT
	if w.att.rec != nil && w.att.suppressSpawn() {
		// A previous attempt of this chunk already issued this nested
		// spawn; it is either still in flight or already consumed. A
		// fresh copy would execute the nested chunk a second time.
		rt.trace(obs.EvSuppressSpawn, w.Index, chunkID, 0, w.epochNow(), 0)
		return
	}
	if rt.Recovery.Enabled() {
		// Journal before sending: if the chunk aborts, the spawn is
		// replayed from exactly these arguments. Every spawn is journaled,
		// not just needs-reply ones — the partitioner joins every spawn it
		// emits (the completion is the chunk barrier even when the payload
		// is unused), so every spawn's abort reaches a joiner and must be
		// replayable.
		rt.recordSpawn(w.Thread, colorIdx, chunkID, args, w, needReply)
	}
	target := w.Thread.Worker(colorIdx)
	rt.send(w, target, Message{
		Kind: MsgSpawn, ChunkID: chunkID, Args: args,
		NeedReply: needReply, ReplyTo: w,
	}, &w.cache)
}

// SendCont sends a Free value to the worker of colorIdx in the same thread
// (the cont message of §7.3.2), tagged with its wait point.
func (w *Worker) SendCont(colorIdx int, tag int, payload value.Val) {
	w.sendCont(colorIdx, Message{Kind: MsgCont, Payload: payload, Tag: tag})
}

// SendContV sends a vectored cont: one message carrying several Free
// values, received with WaitV. Like Spawn's args, vals travels uncopied.
func (w *Worker) SendContV(colorIdx int, tag int, vals []value.Val) {
	w.sendCont(colorIdx, Message{Kind: MsgCont, Args: vals, Tag: tag})
}

func (w *Worker) sendCont(colorIdx int, msg Message) {
	if w.att.rec != nil && w.att.suppressSend() {
		// A previous attempt of this chunk already delivered this cont;
		// the peer consumed it. Re-sending would stamp a fresh strSeq
		// (the admit gate would accept it) and the copy could satisfy a
		// *later* wait on the same tag — so the replay stays silent.
		w.Thread.RT.trace(obs.EvSuppressCont, w.Index, 0, msg.Tag, w.epochNow(), 0)
		return
	}
	w.Thread.RT.send(w, w.Thread.Worker(colorIdx), msg, &w.cache)
}

// window resolves the default supervision inactivity window (0 = block
// forever, the unsupervised behavior). The window bounds *quiescence*,
// not total time: any admitted message anywhere in the runtime restarts
// it, so a long protocol that keeps making progress — even on workers
// other than the blocked one — never times out, while a genuine loss or
// deadlock quiesces the whole runtime and fails within one window.
// Rejected (forged/stale/duplicate) messages do not restart it — a
// hostile flood cannot suppress the timeout.
func (w *Worker) window() time.Duration {
	return w.Thread.RT.Supervise.WaitTimeout
}

// nextDeadline starts (or restarts) the inactivity window.
func nextDeadline(window time.Duration) time.Time {
	if window > 0 {
		return time.Now().Add(window)
	}
	return time.Time{}
}

// Wait blocks until the cont message with the given tag arrives and
// returns its payload, executing any spawn messages that arrive in the
// meantime (this is what lets Figure 7's main.U run g.U between its two
// waits). Conts with other tags are buffered for their own wait points.
//
// Under supervision (Runtime.Supervise.WaitTimeout > 0) a lost cont turns
// into a *TimeoutError once no authentic message arrives for a full
// window; a stop message turns into ErrStopped instead of a panic.
func (w *Worker) Wait(tag int) (value.Val, error) { return w.WaitTimeout(tag, w.window()) }

// WaitTimeout is Wait with an explicit inactivity window overriding the
// configured supervision default.
func (w *Worker) WaitTimeout(tag int, window time.Duration) (value.Val, error) {
	msg, err := w.waitCont(tag, window, false)
	return msg.Payload, err
}

// WaitV is Wait for a vectored cont (SendContV): it returns the values the
// message carries, or nil when the cont was a scalar one.
func (w *Worker) WaitV(tag int) ([]value.Val, error) {
	msg, err := w.waitCont(tag, w.window(), true)
	return msg.Args, err
}

// waitCont takes the cont with the given tag, from the replay cache of
// the attempt executing on w (vec selects the vectored conts' cache) or
// off the queue.
func (w *Worker) waitCont(tag int, window time.Duration, vec bool) (Message, error) {
	rt := w.Thread.RT
	rt.trace(obs.EvWait, w.Index, 0, tag, w.epochNow(), 0)
	w.prunePending()
	// A replayed chunk re-consumes conts its crashed attempt already took;
	// the peer will not send them again, so the journal cache serves them.
	rec := w.att.rec
	if rec != nil {
		if msg, ok := rec.cachedCont(tag, vec); ok {
			rt.trace(obs.EvReplayCachedCont, w.Index, 0, tag, w.epochNow(), 0)
			w.observeWait(MsgCont, time.Time{})
			return msg, nil
		}
	}
	msg, err := w.await(opWait, MsgCont, tag, window)
	if err != nil {
		return Message{}, err
	}
	if rec != nil {
		rec.recordContIn(&msg, vec)
	}
	return msg, nil
}

// JoinOne waits for a single spawn completion and returns the whole Done
// message (the interface versions of §7.3.4 need the sender identity to
// pick the chunk carrying the return color; a poisoned completion carries
// its abort in Message.Err). Spawns arriving in the meantime are executed;
// conts are buffered.
func (w *Worker) JoinOne() (Message, error) { return w.JoinOneTimeout(w.window()) }

// JoinOneTimeout is JoinOne with an explicit inactivity window.
func (w *Worker) JoinOneTimeout(d time.Duration) (Message, error) {
	return w.joinStep(opJoinOne, 1, d)
}

// Join waits for n spawn completions and returns the payload of the last
// successful one (the partitioner arranges for at most one meaningful
// result).
// Spawn messages arriving in the meantime are executed. If a completion is
// poisoned (the chunk aborted), Join keeps collecting the remaining
// completions and then reports the first abort.
func (w *Worker) Join(n int) (value.Val, error) { return w.JoinTimeout(n, w.window()) }

// JoinTimeout is Join with an explicit inactivity window.
func (w *Worker) JoinTimeout(n int, d time.Duration) (value.Val, error) {
	w.Thread.RT.trace(obs.EvJoin, w.Index, 0, 0, w.epochNow(), int64(n))
	var result value.Val
	var firstErr error
	for ; n > 0; n-- {
		msg, err := w.joinStep(opJoin, n, d)
		if err != nil {
			return result, err
		}
		if msg.Err != nil {
			if firstErr == nil {
				firstErr = msg.Err
			}
			continue
		}
		result = msg.Payload
	}
	return result, firstErr
}

// joinStep takes one completion for JoinOne or Join; pending is the
// number still missing, for diagnostics.
func (w *Worker) joinStep(op waitOp, pending int, window time.Duration) (Message, error) {
	w.prunePending()
	// A replayed chunk re-joins completions its crashed attempt already
	// consumed; the nested chunk will not complete again, so the journal
	// cache serves them.
	rec := w.att.rec
	if rec != nil {
		if msg, ok := rec.cachedDone(); ok {
			w.Thread.RT.trace(obs.EvReplayCachedDone, w.Index, msg.ChunkID, 0, w.epochNow(), 0)
			return msg, nil
		}
	}
	msg, err := w.await(op, MsgDone, pending, window)
	if err == nil && rec != nil {
		rec.recordDoneIn(msg)
	}
	return msg, err
}

// await is the one blocking receive loop behind Wait, JoinOne and Join:
// it returns the first cont with the given tag (kind MsgCont) or the first
// completion recovery does not swallow (kind MsgDone), from the buffers or
// off the queue, and dispatches everything else. For joins, arg is the
// number of completions still missing; it only feeds diagnostics.
//
// Every cont it returns is observed once in the wait histogram: 0 us when
// the buffers already held it, else the time from blocking to the last
// admitted message, the cont or the spawn it arrived during.
func (w *Worker) await(op waitOp, kind MsgKind, arg int, window time.Duration) (Message, error) {
	if msg, ok := w.take(kind, arg); ok {
		w.observeWait(kind, time.Time{})
		return msg, nil
	}
	// Before blocking, give buffered completions their recovery pass: a
	// poisoned Done parked by loop() while no joiner was active may belong
	// to the very chunk whose replay is the only sender of the awaited
	// message. handleDone swallows retried aborts; everything else stays
	// buffered for the eventual join (commits are idempotent).
	if len(w.pendingDone) > 0 {
		kept := w.pendingDone[:0]
		for _, msg := range w.pendingDone {
			if !w.handleDone(msg) {
				kept = append(kept, msg)
			}
		}
		clear(w.pendingDone[len(kept):])
		w.pendingDone = kept
	}
	rt := w.Thread.RT
	start := time.Now()
	w.block.publish(op, arg, start)
	defer w.block.clear()
	for {
		msg, ok := w.next(nextDeadline(window))
		if !ok {
			if rt.sysActiveWithin(window) {
				continue // the system is alive; only our queue is quiet
			}
			rt.stats.timeouts.Add(1)
			err := &TimeoutError{Op: op.String(), Worker: w.Index, Elapsed: time.Since(start)}
			if kind == MsgCont {
				err.Tag = arg
			} else {
				err.Pending = arg
			}
			rt.trace(obs.EvTimeout, w.Index, 0, err.Tag, w.epochNow(), err.Elapsed.Microseconds())
			w.Thread.timeoutDiag(err)
			return Message{}, err
		}
		switch {
		case msg.Kind == MsgCont && kind == MsgCont && msg.Tag == arg:
			w.observeWait(kind, start)
			return msg, nil
		case msg.Kind == MsgDone && kind == MsgDone:
			if !w.handleDone(msg) {
				return msg, nil
			}
		default:
			w.dispatch(msg)
			if w.stopping {
				return Message{}, ErrStopped
			}
			// A nested wait inside the spawn just run may have buffered
			// the message this one is waiting for.
			if msg.Kind == MsgSpawn {
				if msg, ok := w.take(kind, arg); ok {
					w.observeWait(kind, start)
					return msg, nil
				}
			}
		}
	}
}

// observeWait records one satisfied cont wait in the wait histogram,
// when metrics are armed: 0 us for a wait that never blocked (a zero
// start), else the time from blocking at start to the last admitted
// message, from the admit stamp next() already took (no clock read on
// the satisfied-wait path). Completions are not observed.
func (w *Worker) observeWait(kind MsgKind, start time.Time) {
	rt := w.Thread.RT
	if kind != MsgCont || rt.hWaitUS == nil {
		return
	}
	var d int64
	if !start.IsZero() {
		d = (w.admitNS - start.UnixNano()) / 1e3
	}
	if d >= 0 {
		rt.hWaitUS.Observe(d)
	}
}

// take pops the awaited message from the worker's buffers: the oldest cont
// with the given tag, or the oldest completion recovery does not swallow.
// Pops shift the tail down so the buffers keep their capacity.
func (w *Worker) take(kind MsgKind, tag int) (Message, bool) {
	if kind == MsgCont {
		for i, msg := range w.pendingCont {
			if msg.Tag == tag {
				w.pendingCont = popAt(w.pendingCont, i)
				return msg, true
			}
		}
		return Message{}, false
	}
	for len(w.pendingDone) > 0 {
		msg := w.pendingDone[0]
		w.pendingDone = popAt(w.pendingDone, 0)
		if !w.handleDone(msg) {
			return msg, true
		}
	}
	return Message{}, false
}

// popAt removes buf[i] in place, clearing the vacated slot so the buffer
// does not pin the payload.
func popAt(buf []Message, i int) []Message {
	n := copy(buf[i:], buf[i+1:])
	buf[i+n] = Message{}
	return buf[:i+n]
}

// handleDone gives the recovery layer first refusal on a consumed
// completion: a successful Done commits its journal entry (and is then
// delivered normally, so false), a poisoned Done whose spawn still has
// attempt budget is swallowed and the spawn replayed (true — the caller
// keeps waiting for the replacement completion).
func (w *Worker) handleDone(msg Message) bool {
	rt := w.Thread.RT
	if !rt.Recovery.Enabled() {
		return false
	}
	if msg.Err == nil {
		rt.completeSpawn(w.Thread, msg.From, msg.ChunkID)
		return false
	}
	if abort, ok := msg.Err.(*EnclaveAbort); ok && rt.retrySpawn(w, abort) {
		return true
	}
	return false
}

// timeoutDiag fills a TimeoutError's diagnostic fields: per-worker queue
// depths and the set of cont tags the thread's workers were blocked on.
func (t *Thread) timeoutDiag(te *TimeoutError) {
	t.wmu.RLock()
	workers := append([]*Worker(nil), t.Workers...)
	t.wmu.RUnlock()
	te.QueueDepths = make([]int64, len(workers))
	tags := map[int]bool{}
	if te.Op == "wait" {
		tags[te.Tag] = true
	}
	for i, w := range workers {
		te.QueueDepths[i] = w.q.Depth()
		if bi, ok := w.block.load(); ok && bi.op == opWait {
			tags[bi.tag] = true
		}
	}
	for tag := range tags {
		te.PendingTags = append(te.PendingTags, tag)
	}
	sort.Ints(te.PendingTags)
	te.flight = t.RT.flightDump()
}
