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
// (supervise.go, errors.go) adds one inactivity window and abort
// propagation, so a crashed enclave or a lost cont degrades into a typed
// error instead of a deadlock.
//
// The runtime does not know how a chunk body executes. The embedder's
// ChunkExec runs every body (internal/interp picks the execution engine
// for the whole instance), and any per-worker state it needs lives in
// the worker's one embedder slot, Worker.Local.
package prt

import (
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
	ChunkID int
	Args    []value.Val
	ReplyTo *Worker
	// Cont/Done payload.
	Payload value.Val
	// From is the color index of the sending worker (set on Done).
	From int
	// Tag matches a cont message with its wait point. Two producers
	// sending to the same consumer are only ordered through causality,
	// which goroutine scheduling can break; the static tag (assigned
	// per transport by the partitioner) makes delivery order-free.
	Tag int
	// Err fails a Done: the spawned chunk crashed (EnclaveAbort) or
	// ended in a runtime error, and the failure ends the wait it reaches.
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

// ChunkExec executes the body of a chunk: the embedder (internal/interp)
// plugs in here, and it alone decides how a body runs. It runs on the
// worker's goroutine with the worker's enclave as the active mode, and
// returns the chunk's result or the runtime error that ended it, which
// its Done carries to the spawner. A crash panics instead (see runSpawn).
// args is the spawn message's argument vector, shared with the sender and
// the journal: the callback must not write into it.
type ChunkExec func(w *Worker, chunkID int, args []value.Val) (value.Val, error)

// Interceptor is the fault-injection seam: when installed, every runtime
// message is handed to Deliver instead of being enqueued directly, and the
// interceptor decides what actually reaches the queue (EnqueueRaw), in
// what order, and how many times. Control (stop) messages bypass it.
type Interceptor interface {
	Deliver(to *Worker, msg Message)
}

// interceptorBox wraps the interface for atomic.Pointer storage.
type interceptorBox struct{ ic Interceptor }

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

	// WaitTimeout is the inactivity window of every Wait/Join/JoinOne:
	// a blocked worker gives up once a whole window passes in which the
	// runtime admits no authentic message, returning a *TimeoutError
	// instead of hanging on a lost message. A chunk's own failure needs no
	// window: its Done ends the wait it reaches (see await), so the window
	// guards only against lost or hostile messages. Admitted traffic on
	// any worker keeps the wait alive for another window (a long protocol
	// that keeps making progress never trips it); rejected forgeries do
	// not. 0 = block forever, the paper's trusting runtime. Set it before
	// creating threads.
	WaitTimeout time.Duration

	// ReplayBudget is how many times recovery replays one crashed spawn
	// before its abort surfaces (0 = off, the surface-the-error behavior).
	// Set it before creating threads; see journal.go.
	ReplayBudget int

	// Leaves marks, by chunk ID, the leaf chunks: a leaf spawns, joins,
	// waits for and sends nothing, makes no indirect call and starts or
	// joins no thread, so no peer can react to it before its Done. A
	// journaled spawn of a leaf keeps no load log, and its replay is a
	// fresh run of the journaled arguments (see journal.go). Set it
	// before creating threads; nil marks no chunk a leaf.
	Leaves []bool

	// Tracer, when set, records a structured event per runtime decision
	// (admit-gate rejects, spawns, waits, replays — see
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

	stats supCounters

	mu      sync.Mutex
	threads []*Thread
}

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

// leaf reports whether chunkID names a leaf chunk (see Leaves).
func (rt *Runtime) leaf(chunkID int) bool {
	return chunkID >= 0 && chunkID < len(rt.Leaves) && rt.Leaves[chunkID]
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
	// index 0); a send made for it from elsewhere takes the raw path.
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
	// failure is the error of the last failed completion that ended a
	// wait here, and failures counts them: a wait that ran a nested
	// chunk ends with the failure the nested chunk's wait took (see
	// await).
	failure  error
	failures uint64
	// admits counts the messages this worker admitted. Only the worker's
	// own goroutine writes it; a wait whose window runs out sums it over
	// the runtime's workers (see await). win is the window of the
	// worker's current blocking next, and winBase the runtime's admit sum
	// when it opened.
	admits  atomic.Uint64
	win     queue.Window
	winBase uint64

	// att is the attempt currently executing on this worker: its journal
	// entry (nil when recovery is off or the spawn is not journaled),
	// where the cont replay caches live, and its own load log (none for a
	// leaf). loadHint is the size of the last logged attempt's load log,
	// which sizes the next one's. Touched only on the worker's own
	// goroutine.
	att      attempt
	loadHint logSize

	// Local is the embedder's per-worker state, one value of the
	// embedder's own type. Touched only on the worker's own goroutine.
	Local any

	// block publishes what the worker is blocked on, for timeout
	// diagnostics.
	block blockState
}

// Thread models one application thread: the normal-mode context plus one
// worker goroutine per enclave ("for each thread of the application,
// Privagic runs one worker thread per enclave", §8).
type Thread struct {
	RT *Runtime
	// Workers holds the worker of each color (index 0 is the app thread
	// itself, normal mode), fixed from NewThread to Close.
	Workers []*Worker
	nw      int // worker count (len(Workers))
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

// NewThread creates the workers of one application thread and starts the
// enclave goroutines.
func (rt *Runtime) NewThread() *Thread {
	t := &Thread{RT: rt}
	for i := 0; i <= len(rt.Colors); i++ {
		w := &Worker{
			Thread:  t,
			Index:   i,
			Mode:    rt.RegionOf(i),
			q:       queue.New[Message](),
			stopped: make(chan struct{}),
		}
		w.win.Opened = w.openWindow
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
	for _, w := range t.Workers[1:] {
		// Control messages bypass the interceptor: the attacker owns
		// the data plane, not the host's ability to stop a worker.
		w.q.Enqueue(Message{Kind: msgStop, auth: authStamp})
	}
	t.wg.Wait()
	drained := int64(0)
	for _, w := range t.Workers {
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

// Worker returns the worker bound to colorIdx (0 = normal mode).
func (t *Thread) Worker(colorIdx int) *Worker { return t.Workers[colorIdx] }

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
		msg, _ := w.next(0)
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
// parks in reorderBuf until the gap before it fills. A zero window
// blocks forever; otherwise ok=false once the window, opened when the
// wait first parks, runs out (rejected messages and parked out-of-order
// arrivals do not restart it, so a permanent gap still times out). Runs
// only on the worker's consumer goroutine.
func (w *Worker) next(window time.Duration) (Message, bool) {
	rt := w.Thread.RT
	w.win.Reset(window)
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
		msg, ok := w.q.DequeueWithin(&w.win)
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

// admit counts the admission of the next in-order message and, when the
// hop histogram is armed, observes its latency (send to admit). It reads
// no clock otherwise.
func (w *Worker) admit(msg *Message) {
	w.admits.Add(1)
	if rt := w.Thread.RT; rt.hHopUS != nil && msg.sentNS != 0 {
		if d := (time.Now().UnixNano() - msg.sentNS) / 1e3; d >= 0 {
			rt.hHopUS.Observe(d)
		}
	}
}

// admitted sums the admit counts of every worker of the runtime. Hostile,
// duplicate and stale rejects are not counted, so a forged or replayed
// flood cannot keep a doomed wait alive. Only a wait window's opening and
// expiry read it, never the message path.
func (rt *Runtime) admitted() uint64 {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	var n uint64
	for _, t := range rt.threads {
		for _, w := range t.Workers {
			n += w.admits.Load()
		}
	}
	return n
}

// openWindow records the runtime's admit sum as the window of a blocking
// next opens (queue.Window.Opened).
func (w *Worker) openWindow() { w.winBase = w.Thread.RT.admitted() }

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

// runSpawn executes a spawned chunk and reports completion: its Done
// carries the result, or the runtime error the chunk ended in. A panicking
// chunk is the simulated AEX: instead of killing the worker goroutine (and
// deadlocking the joiner forever), the panic is converted into a failed
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
	if rt.ReplayBudget > 0 {
		if rec := rt.lookupSpawn(w.Thread, w.Index, msg.ChunkID, msg.epoch); rec != nil {
			w.att = rec.beginAttempt(w.loadHint, rt.leaf(msg.ChunkID))
		}
	}
	defer func() {
		if w.att.logs {
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
	var failure error
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
				w.publishLoads()
				// Snapshot the flight record after the abort event, so
				// the record's last line is the abort itself.
				abort.flight = rt.flightDump()
				if msg.ReplyTo != nil {
					rt.send(w, msg.ReplyTo, Message{Kind: MsgDone, From: w.Index, ChunkID: msg.ChunkID, Err: abort}, &w.cache)
				}
			}
		}()
		ret, failure = rt.Exec(w, msg.ChunkID, msg.Args)
		// A completed attempt publishes every load, like a crashed one:
		// the record keeps the log, which a recycled record's next spawn
		// logs into.
		w.publishLoads()
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
		rt.send(w, msg.ReplyTo, Message{Kind: MsgDone, Payload: ret, From: w.Index, ChunkID: msg.ChunkID, Err: failure}, &w.cache)
	}
}

// send enqueues a message, charging one queue hop. It never blocks: worker
// queues are unbounded. from is the sending worker (epoch provenance);
// the interceptor, when installed, owns the actual delivery. c is the
// calling goroutine's own node cache (nil allocates a fresh node): the
// sending worker's, when send runs on it.
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
	to.q.EnqueueCached(c, msg)
}

// JournalLoad threads one memory load of the currently executing chunk
// through its attempt's load log: on a replay, buf is overwritten with
// the bytes the crashed attempt read at this position; past that, buf is
// recorded. A no-op when the executing chunk is not journaled or is a
// leaf. The embedder (the interpreter) calls this on every mode-checked
// load so a replay observes the memory of the attempt its peers already
// reacted to, not whatever committed nested effects have since made of
// it. Lock-free: the log is the attempt's own until it is published.
func (w *Worker) JournalLoad(buf []byte) {
	if w.att.logs {
		w.att.loads.load(buf)
	}
}

// JournalLoadWord is JournalLoad for a load of n (at most 8) bytes
// held as the low bytes of v: it returns v, or on a replay v with the
// bytes the crashed attempt read at this position in their place. The
// interpreter's scalar loads use it, so a word never goes through a
// byte buffer.
func (w *Worker) JournalLoadWord(v uint64, n int) uint64 {
	if !w.att.logs {
		return v
	}
	return w.att.loads.loadWord(v, n)
}

// JournalWord threads one 8-byte value the executing chunk obtained from
// the runtime, an alloca address, through its attempt's load log like a
// load: a replay is served the value the crashed attempt got, which
// peers may hold; past that, v is recorded. Returns v when the executing
// chunk is not journaled or is a leaf (a leaf's replay allocates afresh).
// Lock-free, like JournalLoad.
func (w *Worker) JournalWord(v uint64) uint64 {
	return w.JournalLoadWord(v, 8)
}

// publishLoads hands the executing attempt's load log to its journal
// entry. A no-op when the chunk is not journaled or is a leaf.
func (w *Worker) publishLoads() {
	if rec := w.att.rec; rec != nil {
		rec.mu.Lock()
		w.att.publish()
		rec.mu.Unlock()
	}
}

// BeginCommit marks the start of the executing chunk's commit: the
// embedder calls it just before the chunk's buffered effects are
// applied. A chunk that crashes after its effects began to commit could
// re-apply them on top of themselves. A logged attempt therefore
// publishes its load log, and its replay is served every load behind
// those effects, which makes the re-run idempotent. A leaf's attempt has
// no log to serve, so its commit is the spawn's point of no return: an
// abort from here on surfaces as the spawn's error (a giveup) instead of
// a fresh re-run over half-applied effects. A no-op when the chunk is
// not journaled.
func (w *Worker) BeginCommit() {
	rec := w.att.rec
	if rec == nil {
		return
	}
	rec.mu.Lock()
	if !w.att.logs && w.att.gen == rec.gen {
		rec.sealed = true
	}
	w.att.publish()
	rec.mu.Unlock()
}

// JournalAlloc threads an allocation service call through the executing
// attempt's load log, like JournalWord: a position the log already holds
// is served the address the crashed attempt obtained, without running
// alloc (the allocator's bump cursor is not part of the effect
// transaction, and peers may hold committed writes behind the original
// address); past that, alloc runs and its result is logged. Calls alloc
// directly when the executing chunk is not journaled or is a leaf: a
// leaf's replay may branch differently from its crashed attempt, so a
// positional log could hand one site's address to another, and each
// crashed leaf attempt leaks its own allocations instead.
func (w *Worker) JournalAlloc(alloc func() uint64) uint64 {
	if w.att.logs && w.att.loads.logged() {
		return w.JournalWord(0)
	}
	return w.JournalWord(alloc())
}

// Spawn sends a spawn message for chunkID to the worker of colorIdx in the
// same thread (§7.3.2). The completion Done is routed back to the caller.
// args travels with the message (and the journal) uncopied: the caller
// must not write into it afterwards.
func (w *Worker) Spawn(colorIdx int, chunkID int, args []value.Val) {
	rt := w.Thread.RT
	if w.att.rec != nil && w.att.suppressSpawn() {
		// A previous attempt of this chunk already issued this nested
		// spawn; it is either still in flight or already consumed. A
		// fresh copy would execute the nested chunk a second time.
		rt.trace(obs.EvSuppressSpawn, w.Index, chunkID, 0, w.epochNow(), 0)
		return
	}
	if rt.ReplayBudget > 0 {
		// Journal before sending: if the chunk aborts, the spawn is
		// replayed from exactly these arguments. Every spawn is journaled:
		// the partitioner joins every spawn it emits (the completion is the
		// chunk barrier even when the payload is unused), so every spawn's
		// abort reaches a joiner and must be replayable.
		rt.recordSpawn(w.Thread, colorIdx, chunkID, args, w, w.epochNow())
	}
	target := w.Thread.Worker(colorIdx)
	rt.send(w, target, Message{Kind: MsgSpawn, ChunkID: chunkID, Args: args, ReplyTo: w}, &w.cache)
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
// not total time: a window in which any worker of the runtime admitted a
// message is followed by another, so a long protocol that keeps making
// progress — even on workers other than the blocked one — never times
// out, while a genuine loss or deadlock quiesces the whole runtime and
// fails once a window passes without an admit. Rejected
// (forged/stale/duplicate) messages are not counted — a hostile flood
// cannot suppress the timeout.
func (w *Worker) window() time.Duration {
	return w.Thread.RT.WaitTimeout
}

// Wait blocks until the cont message with the given tag arrives and
// returns its payload, executing any spawn messages that arrive in the
// meantime (this is what lets Figure 7's main.U run g.U between its two
// waits). Conts with other tags are buffered for their own wait points.
//
// A failed completion that reaches the worker ends the wait with its
// error (see await). Under supervision (Runtime.WaitTimeout > 0) a lost
// cont turns into a *TimeoutError once no authentic message arrives for a
// full window; a stop message turns into ErrStopped instead of a panic.
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
// pick the chunk carrying the return color); a failed completion's
// Message.Err is returned as the error. Spawns arriving in the meantime
// are executed; conts are buffered.
func (w *Worker) JoinOne() (Message, error) { return w.JoinOneTimeout(w.window()) }

// JoinOneTimeout is JoinOne with an explicit inactivity window.
func (w *Worker) JoinOneTimeout(d time.Duration) (Message, error) {
	return w.joinStep(opJoinOne, 1, d)
}

// Join waits for n spawn completions and returns the payload of the last
// one (the partitioner arranges for at most one meaningful result).
// Spawn messages arriving in the meantime are executed. The first failed
// completion ends the join with its error.
func (w *Worker) Join(n int) (value.Val, error) { return w.JoinTimeout(n, w.window()) }

// JoinTimeout is Join with an explicit inactivity window.
func (w *Worker) JoinTimeout(n int, d time.Duration) (value.Val, error) {
	w.Thread.RT.trace(obs.EvJoin, w.Index, 0, 0, w.epochNow(), int64(n))
	var result value.Val
	for ; n > 0; n-- {
		msg, err := w.joinStep(opJoin, n, d)
		if err != nil {
			return result, err
		}
		result = msg.Payload
	}
	return result, nil
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

// await is the one blocking receive loop behind Wait, WaitV, JoinOne and
// Join: it returns the first cont with the given tag (kind MsgCont) or the
// first completion recovery does not swallow (kind MsgDone), from the
// buffers or off the queue, and dispatches everything else. For joins, arg
// is the number of completions still missing; it only feeds diagnostics.
//
// A failed completion recovery does not swallow ends any wait it reaches,
// a cont wait included, and is returned with its error: MiniC has no
// error handler, so the failure fails the Call, and the message the wait
// expects may never be sent. A failure a nested chunk's wait takes ends
// the wait that ran the chunk too: it may be the frame the failure was
// owed to, and the nested chunk's own failed Done goes to its spawner,
// not to that frame. The Call's leftover messages are fenced by the next
// epoch.
//
// Each blocking next opens one window. When it runs out with the
// runtime's admit sum unchanged since it opened, the wait times out;
// TimeoutError.Elapsed is the windows it served.
//
// Every cont it returns is observed once in the wait histogram: 0 us when
// the buffers already held it, else the time from blocking to its return.
func (w *Worker) await(op waitOp, kind MsgKind, arg int, window time.Duration) (Message, error) {
	if msg, ok := w.take(kind, arg); ok {
		w.observeWait(msg.Kind, time.Time{})
		return msg, w.fail(msg)
	}
	rt := w.Thread.RT
	var start time.Time
	if rt.hWaitUS != nil {
		start = time.Now()
	}
	w.block.publish(op, arg)
	defer w.block.clear()
	var served time.Duration // windows that ran out
	for {
		msg, ok := w.next(window)
		if !ok {
			served++
			if rt.admitted() != w.winBase {
				continue // the system is alive; only our queue is quiet
			}
			rt.stats.timeouts.Add(1)
			err := &TimeoutError{Op: op.String(), Worker: w.Index, Elapsed: served * window}
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
		case msg.Kind == MsgDone && (kind == MsgDone || msg.Err != nil):
			if !w.handleDone(msg) {
				return msg, w.fail(msg)
			}
		default:
			failures := w.failures
			w.dispatch(msg)
			if w.stopping {
				return Message{}, ErrStopped
			}
			// A nested wait inside the spawn just run may have taken a
			// failure, or buffered the message this one is waiting for.
			if msg.Kind == MsgSpawn {
				if w.failures != failures {
					return Message{}, w.failure
				}
				if msg, ok := w.take(kind, arg); ok {
					w.observeWait(msg.Kind, start)
					return msg, w.fail(msg)
				}
			}
		}
	}
}

// fail records the error of a completion that ends a wait, if it failed,
// and returns it.
func (w *Worker) fail(msg Message) error {
	if msg.Err != nil {
		w.failure = msg.Err
		w.failures++
	}
	return msg.Err
}

// observeWait records one satisfied cont wait in the wait histogram,
// when metrics are armed: 0 us for a wait that never blocked (a zero
// start), else the time since it blocked at start. kind is the returned
// message's: completions are not observed.
func (w *Worker) observeWait(kind MsgKind, start time.Time) {
	rt := w.Thread.RT
	if kind != MsgCont || rt.hWaitUS == nil {
		return
	}
	var d int64
	if !start.IsZero() {
		d = time.Since(start).Microseconds()
	}
	rt.hWaitUS.Observe(d)
}

// take pops the awaited message from the worker's buffers: the oldest
// completion recovery does not swallow, if it failed or the wait is a
// join, else the oldest cont with the given tag. A failed Done parked by
// loop() while no joiner was active gets its recovery pass here, before
// any wait blocks: it may belong to the very chunk whose replay is the
// only sender of the awaited message. Pops shift the tail down so the
// buffers keep their capacity.
func (w *Worker) take(kind MsgKind, tag int) (Message, bool) {
	for i := 0; i < len(w.pendingDone); {
		msg := w.pendingDone[i]
		if msg.Err == nil && kind != MsgDone {
			i++
			continue
		}
		w.pendingDone = popAt(w.pendingDone, i)
		if !w.handleDone(msg) {
			return msg, true
		}
	}
	if kind == MsgCont {
		for i, msg := range w.pendingCont {
			if msg.Tag == tag {
				w.pendingCont = popAt(w.pendingCont, i)
				return msg, true
			}
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
// completion: a crash (*EnclaveAbort) whose spawn still has attempt budget
// is swallowed and the spawn replayed (true — the caller keeps waiting for
// the replacement completion). Any other Done, a runtime error included
// (recovery does not replay program bugs), commits its journal entry and
// is delivered normally (false).
func (w *Worker) handleDone(msg Message) bool {
	rt := w.Thread.RT
	if rt.ReplayBudget <= 0 {
		return false
	}
	if abort, ok := msg.Err.(*EnclaveAbort); ok {
		return rt.retrySpawn(w, abort, msg.epoch)
	}
	rt.completeSpawn(w.Thread, msg.From, msg.ChunkID, msg.epoch)
	return false
}

// timeoutDiag fills a TimeoutError's diagnostic fields: per-worker queue
// depths and the set of cont tags the thread's workers were blocked on.
func (t *Thread) timeoutDiag(te *TimeoutError) {
	te.QueueDepths = make([]int64, len(t.Workers))
	tags := map[int]bool{}
	if te.Op == "wait" {
		tags[te.Tag] = true
	}
	for i, w := range t.Workers {
		te.QueueDepths[i] = w.q.Len()
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
