package prt

import (
	"time"

	"privagic/internal/obs"
	"privagic/internal/queue"
)

// RestartWorker tears down the enclave worker bound to color index idx and
// re-creates it in a fresh epoch: the replacement gets a new queue and a
// new goroutine, the thread's epoch advances so every message stamped for
// the dead incarnation is fenced off as stale, the old queue's undrained
// authentic messages are re-stamped into the new epoch and re-delivered,
// and the journal's in-flight spawns are replayed. The old goroutine is
// sent a stop and exits on its own schedule — if it is wedged inside a
// chunk, its eventual completions carry the dead epoch and cannot commit
// (the epoch fence is what makes "exactly once" survive a restart).
//
// Nothing in the runtime restarts a worker on its own: tests use it as
// the lever that simulates a crash. Callers must hold no runtime locks. Returns the number of
// queued messages carried over.
func (t *Thread) RestartWorker(idx int) int {
	rt := t.RT
	if idx <= 0 || idx >= t.nw || t.closed.Load() {
		return 0
	}
	t.wmu.Lock()
	old := t.Workers[idx]
	repl := &Worker{
		Thread:  t,
		Index:   idx,
		Mode:    old.Mode,
		Engine:  old.Engine,
		q:       queue.New[Message](),
		stopped: make(chan struct{}),
	}
	t.Workers[idx] = repl
	t.wmu.Unlock()
	rt.stats.restarts.Add(1)
	rt.trace(obs.EvRestart, idx, 0, 0, t.epoch.Load(), 0)

	// Fence the dead incarnation: everything it still sends (a straggler
	// Done from a chunk that was mid-run when we gave up on it) carries
	// the old epoch and is dropped at the admit gate.
	t.AdvanceEpoch()

	// Carry over the undrained queue. Spawn messages re-deliver through
	// the journal replay below (so their attempt accounting is right);
	// everything else re-stamps into the new epoch. The old goroutine may
	// race this drain — a message it wins executes under the dead epoch
	// and its effects are fenced, so the race only costs a redelivery.
	redelivered := 0
	carried := map[int]bool{} // chunk IDs already back in flight
	for {
		msg, ok := old.q.Dequeue()
		if !ok {
			break
		}
		if msg.auth != authStamp || msg.Kind == msgStop {
			continue
		}
		if msg.Kind == MsgSpawn {
			carried[msg.ChunkID] = true
		}
		redelivered++
		rt.send(nil, repl, msg, nil)
	}
	// Buffered consumer-side state of the old incarnation is stale by
	// construction (old epoch); the new worker starts clean.

	// Replay in-flight spawns of this thread. The restarted worker's own
	// spawns are gone with the old goroutine; spawns on *other* workers
	// were fenced along with the epoch advance, so the whole invocation's
	// spawn set is re-issued. Each replay spends one attempt.
	for _, rec := range rt.spendRestart(t) {
		rec.mu.Lock()
		skip := rec.toIdx == idx && carried[rec.chunkID]
		exhausted := rec.attempts > rt.Recovery.MaxAttempts
		rec.mu.Unlock()
		if skip {
			continue // the queued (not yet consumed) spawn was carried over
		}
		if !rt.Recovery.Enabled() || exhausted {
			// Out of budget: leave the entry to the joiner's timeout.
			continue
		}
		rt.jr.replays.Add(1)
		rt.respawn(t, rec)
	}
	rt.stats.redelivered.Add(int64(redelivered))

	// Ask the dead incarnation to exit when it next reads its queue, then
	// start the replacement.
	old.q.Enqueue(Message{Kind: msgStop, auth: authStamp})
	t.wg.Add(1)
	go repl.loop(&t.wg)
	rt.Meter.ChargeTransition(&rt.Machine.Cost)
	rt.lastAdmit.Store(time.Now().UnixNano())
	return redelivered
}
