// Package faults is the deterministic fault-injection layer of the
// reproduction: it plays the §4 attacker (and the unreliable world) against
// the runtime. Installed as the prt.Interceptor, it sits on every queue
// delivery and — under a seeded RNG — drops, duplicates, delays and
// reorders messages, forges hostile ones (unknown cont tags,
// non-whitelisted spawns, malformed payloads), and crashes chunks mid-run
// (the simulated AEX). The supervision layer in prt is what must survive
// all of it: every faulted execution has to end in either the correct
// result or a typed abort/timeout error — never a deadlock, never a silent
// wrong answer. The soak test drives exactly that envelope.
//
// Determinism: every decision is drawn from one seeded rand.Rand in
// delivery order, and delayed/reordered messages are released on hop
// counts (subsequent deliveries), not wall-clock time. A single-threaded
// protocol therefore replays identically under the same seed. A background
// flusher additionally releases held messages after a wall-clock bound so
// an idle protocol cannot strand them forever; it only affects timing,
// never the decision sequence.
//
// Both adversaries report what they did through the CounterSource
// interface; when the observability registry is armed their counters
// appear in snapshots under the inject. and mutate. prefixes (see
// OBSERVABILITY.md).
package faults

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"privagic/internal/prt"
	"privagic/internal/value"
)

// Config sets the per-message fault probabilities (each in [0,1]) and the
// injector's timing knobs. The zero value injects nothing.
type Config struct {
	Seed int64

	Drop      float64 // message vanishes from the queue
	Duplicate float64 // message is delivered twice (replay)
	Delay     float64 // message is held for DelayHops deliveries
	Reorder   float64 // message is delivered after the next one
	Forge     float64 // a hostile message is injected alongside
	Crash     float64 // a spawned chunk panics at entry (AEX before any work)
	// CrashMid is the per-store probability that a spawned chunk panics
	// in the middle of its body — after some of its writes were issued.
	// It exercises the recovery layer's effect buffering: an entry crash
	// leaves trivially no trace, a mid-run crash only does if the
	// interpreter buffered the partial writes. Wire it with
	// Interp.SetCrashPoint(injector.CrashPoint).
	CrashMid float64
	// MaxCrashes caps the total number of injected crashes (entry and
	// mid-run combined; 0 = unlimited). A soak that wants every request
	// to recover sets it at or below the retry budget, making success
	// deterministic instead of probabilistic.
	MaxCrashes int

	// DelayHops is how many subsequent deliveries a delayed message is
	// held for (default 2).
	DelayHops int

	// Retransmit, when set, re-delivers dropped messages after
	// RetransmitAfter (default 2ms), charging CostModel.Retransmit per
	// redelivery — the supervision transport's answer to lossy queues.
	// Without it a drop is permanent and the receiver's deadline is the
	// only recovery.
	Retransmit      bool
	RetransmitAfter time.Duration

	// FlushAfter bounds how long a delayed/reordered message can be held
	// on wall-clock time when no further traffic advances the hop counter
	// (default 5ms).
	FlushAfter time.Duration

	// DisableFlusher turns the background flusher off; held messages are
	// then released only by hop counts or an explicit Flush call. Unit
	// tests use this for fully deterministic delivery orders.
	DisableFlusher bool
}

// Stats counts what the injector did.
type Stats struct {
	Delivered     int64 // messages passed through unharmed
	Dropped       int64
	Duplicated    int64
	Delayed       int64
	Reordered     int64
	Forged        int64
	Crashes       int64
	Retransmitted int64
}

// InjectedCrash is the panic value of a crash injection; prt's runSpawn
// recovery converts it into an *EnclaveAbort whose Cause unwraps to it.
// Store is the 1-based buffered-store number a mid-run crash fired at
// (0 for an entry crash).
type InjectedCrash struct {
	ChunkID int
	Store   int
}

func (e *InjectedCrash) Error() string {
	if e.Store > 0 {
		return fmt.Sprintf("faults: injected crash in chunk %d at store %d", e.ChunkID, e.Store)
	}
	return fmt.Sprintf("faults: injected crash in chunk %d", e.ChunkID)
}

// InjectedFault marks the panic value as a deliberate fault injection.
// Executors that normally absorb chunk panics into recorded program
// errors (the interpreter) match this structural interface and re-panic
// instead, so the crash reaches the runtime's recover and becomes an
// *EnclaveAbort the recovery layer can replay.
func (e *InjectedCrash) InjectedFault() {}

// heldMsg is a captured delivery awaiting release.
type heldMsg struct {
	to  *prt.Worker
	msg prt.Message
	// releaseAtHop releases on the hop counter (deterministic path);
	// deadline releases on wall-clock (progress guarantee / retransmit).
	releaseAtHop uint64
	deadline     time.Time
	retransmit   bool // charge the retransmit cost when released
}

// Injector implements prt.Interceptor. Create it with Attach.
type Injector struct {
	rt  *prt.Runtime
	cfg Config

	mu   sync.Mutex
	rng  *rand.Rand
	hop  uint64
	held []heldMsg

	stats struct {
		delivered, dropped, duplicated, delayed   atomic.Int64
		reordered, forged, crashes, retransmitted atomic.Int64
	}

	stop     chan struct{}
	stopOnce sync.Once
}

// Attach installs the injector on the runtime: it becomes the interceptor
// for every message delivery and (when cfg.Crash > 0) wraps rt.Exec so
// chunks can be crashed mid-run. Call it before the workload starts;
// wrapping Exec is not synchronized against running threads.
func Attach(rt *prt.Runtime, cfg Config) *Injector {
	if cfg.DelayHops <= 0 {
		cfg.DelayHops = 2
	}
	if cfg.RetransmitAfter <= 0 {
		cfg.RetransmitAfter = 2 * time.Millisecond
	}
	if cfg.FlushAfter <= 0 {
		cfg.FlushAfter = 5 * time.Millisecond
	}
	in := &Injector{
		rt:   rt,
		cfg:  cfg,
		rng:  rand.New(rand.NewSource(cfg.Seed)),
		stop: make(chan struct{}),
	}
	rt.SetInterceptor(in)
	if cfg.Crash > 0 {
		orig := rt.Exec
		rt.Exec = func(w *prt.Worker, chunkID int, args []value.Val) (value.Val, error) {
			if in.decide(cfg.Crash) && in.takeCrashBudget() {
				panic(&InjectedCrash{ChunkID: chunkID})
			}
			return orig(w, chunkID, args)
		}
	}
	if !cfg.DisableFlusher {
		go in.flusher()
	}
	return in
}

// decide draws one Bernoulli decision from the seeded stream.
func (in *Injector) decide(p float64) bool {
	if p <= 0 {
		return false
	}
	in.mu.Lock()
	v := in.rng.Float64() < p
	in.mu.Unlock()
	return v
}

// takeCrashBudget consumes one injected crash if MaxCrashes permits,
// incrementing the crash counter on success.
func (in *Injector) takeCrashBudget() bool {
	for {
		n := in.stats.crashes.Load()
		if in.cfg.MaxCrashes > 0 && n >= int64(in.cfg.MaxCrashes) {
			return false
		}
		if in.stats.crashes.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

// CrashPoint is the interpreter-facing mid-run crash hook (wire it with
// Interp.SetCrashPoint): it is consulted on every buffered store of a
// spawned chunk and returns the panic value of an injected mid-run crash,
// or nil. Decisions come from the shared seeded stream, so a
// single-threaded protocol replays identically under the same seed.
func (in *Injector) CrashPoint(workerIdx, chunkID, storeN int) any {
	if !in.decide(in.cfg.CrashMid) || !in.takeCrashBudget() {
		return nil
	}
	_ = workerIdx
	return &InjectedCrash{ChunkID: chunkID, Store: storeN}
}

// Deliver is the interceptor hook: it decides the fate of one message.
// Faults compose left to right and at most one queue-level fault fires per
// message (forgery is independent — it adds a message, it does not alter
// this one).
func (in *Injector) Deliver(to *prt.Worker, msg prt.Message) {
	in.mu.Lock()
	in.hop++
	r := in.rng.Float64()
	now := time.Now()
	switch {
	case r < in.cfg.Drop:
		in.stats.dropped.Add(1)
		if in.cfg.Retransmit {
			// The transport notices the loss and re-sends later.
			in.held = append(in.held, heldMsg{
				to: to, msg: msg,
				deadline:   now.Add(in.cfg.RetransmitAfter),
				retransmit: true,
			})
		}
	case r < in.cfg.Drop+in.cfg.Duplicate:
		in.stats.duplicated.Add(1)
		to.EnqueueRaw(msg)
		to.EnqueueRaw(msg)
	case r < in.cfg.Drop+in.cfg.Duplicate+in.cfg.Delay:
		in.stats.delayed.Add(1)
		in.held = append(in.held, heldMsg{
			to: to, msg: msg,
			releaseAtHop: in.hop + uint64(in.cfg.DelayHops),
			deadline:     now.Add(in.cfg.FlushAfter),
		})
	case r < in.cfg.Drop+in.cfg.Duplicate+in.cfg.Delay+in.cfg.Reorder:
		// Held for exactly one hop: the next delivery overtakes it.
		in.stats.reordered.Add(1)
		in.held = append(in.held, heldMsg{
			to: to, msg: msg,
			releaseAtHop: in.hop + 1,
			deadline:     now.Add(in.cfg.FlushAfter),
		})
	default:
		in.stats.delivered.Add(1)
		to.EnqueueRaw(msg)
	}
	// Release after the current message is placed: a message held for
	// reordering must come out behind the delivery that overtakes it.
	in.releaseDueLocked()
	forge := in.cfg.Forge > 0 && in.rng.Float64() < in.cfg.Forge
	var forged prt.Message
	if forge {
		forged = in.forgeLocked(msg)
	}
	in.mu.Unlock()
	if forge {
		in.stats.forged.Add(1)
		to.DeliverHostile(forged)
	}
}

// forgeLocked crafts a hostile message in the style of the §4 attacker.
// The auth stamp is stripped by DeliverHostile; the variants exercise the
// runtime's different rejection paths (and would each be dangerous if the
// admit gate let them through).
func (in *Injector) forgeLocked(seen prt.Message) prt.Message {
	switch in.rng.Intn(3) {
	case 0:
		// A cont with a tag the partitioner never allocated.
		return prt.Message{Kind: prt.MsgCont, Tag: 1 << 20, Payload: value.IV(int64(in.rng.Int()))}
	case 1:
		// A spawn of a chunk outside every whitelist.
		return prt.Message{Kind: prt.MsgSpawn, ChunkID: 1<<20 + in.rng.Intn(1024)}
	default:
		// A malformed completion mimicking the message just seen.
		return prt.Message{Kind: prt.MsgDone, From: seen.From, Payload: value.FV(1e300)}
	}
}

// releaseDueLocked re-enqueues held messages whose hop count came up.
func (in *Injector) releaseDueLocked() {
	if len(in.held) == 0 {
		return
	}
	kept := in.held[:0]
	for _, h := range in.held {
		if h.releaseAtHop != 0 && h.releaseAtHop <= in.hop {
			in.releaseLocked(h)
			continue
		}
		kept = append(kept, h)
	}
	in.held = kept
}

func (in *Injector) releaseLocked(h heldMsg) {
	if h.retransmit {
		in.stats.retransmitted.Add(1)
		in.rt.Meter.ChargeRetransmit(&in.rt.Machine.Cost)
	}
	h.to.EnqueueRaw(h.msg)
}

// Flush releases every held message immediately (test hook: deterministic
// runs disable the background flusher and call this at barriers).
func (in *Injector) Flush() {
	in.mu.Lock()
	for _, h := range in.held {
		in.releaseLocked(h)
	}
	in.held = nil
	in.mu.Unlock()
}

// flusher guarantees progress when traffic stops: held messages are
// released once their wall-clock deadline passes even if no further hops
// advance the counter.
func (in *Injector) flusher() {
	ticker := time.NewTicker(time.Millisecond)
	defer ticker.Stop()
	for {
		select {
		case <-in.stop:
			return
		case <-ticker.C:
		}
		now := time.Now()
		in.mu.Lock()
		kept := in.held[:0]
		for _, h := range in.held {
			if !h.deadline.IsZero() && now.After(h.deadline) {
				in.releaseLocked(h)
				continue
			}
			kept = append(kept, h)
		}
		in.held = kept
		in.mu.Unlock()
	}
}

// Stats snapshots the injector's counters.
func (in *Injector) Stats() Stats {
	return Stats{
		Delivered:     in.stats.delivered.Load(),
		Dropped:       in.stats.dropped.Load(),
		Duplicated:    in.stats.duplicated.Load(),
		Delayed:       in.stats.delayed.Load(),
		Reordered:     in.stats.reordered.Load(),
		Forged:        in.stats.forged.Load(),
		Crashes:       in.stats.crashes.Load(),
		Retransmitted: in.stats.retransmitted.Load(),
	}
}

// Total faults injected (every category except clean deliveries).
func (s Stats) Total() int64 {
	return s.Dropped + s.Duplicated + s.Delayed + s.Reordered + s.Forged + s.Crashes
}

// Counters exposes the injector's counters in the uniform name -> count
// form shared by every fault class (the Mutator exports the same shape),
// so harnesses can aggregate and print fault activity without knowing
// which adversary produced it.
func (in *Injector) Counters() map[string]int64 {
	s := in.Stats()
	return map[string]int64{
		"delivered":     s.Delivered,
		"dropped":       s.Dropped,
		"duplicated":    s.Duplicated,
		"delayed":       s.Delayed,
		"reordered":     s.Reordered,
		"forged":        s.Forged,
		"crashes":       s.Crashes,
		"retransmitted": s.Retransmitted,
	}
}

// Close detaches the injector from the runtime, stops the flusher, and
// releases any still-held messages so no delivery is silently lost at
// teardown.
func (in *Injector) Close() {
	in.stopOnce.Do(func() {
		close(in.stop)
		in.rt.SetInterceptor(nil)
		in.Flush()
	})
}
