package prt

import (
	"slices"
	"sync"
	"sync/atomic"

	"privagic/internal/obs"
	"privagic/internal/value"
)

// The journal is the transactional half of recovery: every spawn is
// recorded with its argument vector before it leaves the sender,
// and stays in-flight until its completion commits. A poisoned completion
// replays the spawn from the journaled arguments; because the executing
// side buffers its visible effects until the completion is sent (the
// interpreter's effect transaction) and the journal additionally caches
// the chunk's cont traffic, a replay is idempotent:
//
//   - writes of the crashed attempt were never applied (discarded with
//     the effect transaction), so the replay starts from pristine state;
//   - conts and completions the crashed attempt had already consumed are
//     re-served from the journal's cache (the peer will not send them
//     again);
//   - conts and nested spawns the crashed attempt had already sent are
//     suppressed on replay (the peer consumed them; a fresh copy would
//     be matched against a *later* wait point, or execute a nested chunk
//     a second time, and corrupt the protocol);
//   - loads the crashed attempt performed are re-served from the cache
//     (committed effects of nested chunks may have moved shared memory
//     past the point the attempt observed, and a live re-read would
//     steer the replay down a branch its peers never reacted to).
//
// Deterministic chunk bodies (same args, same cached inputs) make the
// cached/suppressed values exact, which is what the paper's §5 execution
// model guarantees: a chunk is a pure function of its arguments and its
// barrier inputs, plus writes that are buffered here.
type journal struct {
	mu       sync.Mutex
	inflight map[spawnKey]*spawnRec
	// free holds committed records for reuse, at most recFreeCap (see
	// completeSpawn).
	free []*spawnRec

	journaled atomic.Int64 // spawns recorded
	commits   atomic.Int64 // completions that closed an entry
	replays   atomic.Int64 // re-executions performed
	giveups   atomic.Int64 // spawns that exhausted the attempt budget
}

// spawnKey identifies one in-flight spawn. A thread's protocol is
// sequential per chunk (a new spawn of the same chunk only happens after
// the previous one's completion was consumed), so (thread, target worker,
// chunk) is unique among in-flight spawns.
type spawnKey struct {
	t     *Thread
	toIdx int
	chunk int
}

// Recycling. A committed record whose spawn ran exactly once goes back
// to the journal's free list with its logs emptied but not freed, so a
// warm journaled spawn allocates nothing. A record with a load log or a
// replay cache past its retention cap is dropped instead of kept: a
// large batch (memcached's) would otherwise pin its buffers for the rest
// of the run. The size hints still size the logs of records that come
// fresh.
const (
	recFreeCap        = 16      // records kept on the free list
	logRetainBytes    = 8 << 10 // load-log bytes a recycled record keeps
	logRetainLoads    = 1 << 10 // load-log entries a recycled record keeps
	replayRetainCount = 64      // entries a recycled replay cache keeps
)

// spawnRec is the redo-log entry of one spawn: everything needed to
// replay it, plus the replay caches. Fields are guarded by mu — the
// executing worker (cont caching) and the joiner (retry bookkeeping) can
// race when a restart replays while a stale attempt still runs.
type spawnRec struct {
	mu        sync.Mutex
	toIdx     int
	chunkID   int
	args      []value.Val // shared with the spawn message
	replyTo   *Worker
	needReply bool
	// attempts counts the replays spent so far. It is only raised with
	// the journal's mu held as well, so completeSpawn, which decides
	// under that lock whether the record is reused, sees every replay a
	// restart or a retry has committed to.
	attempts int

	// contsIn, vecsIn, donesIn and allocsIn cache what the executing
	// chunk consumed — conts and vectored conts (two logs, each in its
	// own consumption order, so a scalar entry stays 32 bytes), the
	// completions of its own nested spawns (the
	// nested chunk will not complete again), and the results of
	// allocation service calls (§7.2; the allocator's bump cursor is
	// runtime state outside the effect transaction, and peers may already
	// have committed writes through pointers derived from them). A replay
	// re-consumes them from the cache. contsOut and spawnsOut suppress
	// re-sending the conts and nested spawns a previous attempt already
	// sent (the peer consumed them; a fresh copy would be matched against
	// a later wait or execute the nested chunk a second time).
	contsIn   replayLog[contIn]
	vecsIn    replayLog[contVec]
	donesIn   replayLog[Message]
	allocsIn  replayLog[uint64]
	contsOut  suppressCounter
	spawnsOut suppressCounter

	// gen numbers the executions: beginAttempt hands out the next one,
	// and only the attempt holding the latest may publish. loads is the
	// load log last published, a prefix of that attempt's own log (see
	// attempt), which the next attempt is served from.
	gen   uint64
	loads loadLog
}

// contIn is one cached cont: the wait point it satisfied and its value.
type contIn struct {
	tag     int
	payload value.Val
}

// contVec is one cached vectored cont: its wait point and its values.
type contVec struct {
	tag  int
	vals []value.Val
}

// attempt is one execution of a journaled spawn, held on the executing
// Worker and saved and restored around a nested spawn on the same worker.
// Its load log is its own: a load appends to it, or on a replay is served
// from it, without a lock. The log reaches the spawnRec only when the
// attempt publishes it under rec.mu — before each cont or nested-spawn
// send, before its effects commit, and when it aborts. A peer can only
// have reacted to loads made before one of those points, so a replay
// served the published prefix re-reads exactly the memory the protocol
// already depends on. A stale attempt (one a restart replaced) never
// publishes, so it cannot move what its successor is served.
type attempt struct {
	rec   *spawnRec
	gen   uint64
	loads loadLog
}

// loadLog is an ordered log of mode-checked loads: the bytes back to back
// (arena-style, so a journaled load does not allocate once the log has
// room) and each load's length. cursor/off are the position of the next
// load. Logged entries are never rewritten, so a published log can be
// read while its owner appends past it.
type loadLog struct {
	buf    []byte
	lens   []int32
	cursor int
	off    int
}

// size is the log's length, the next attempt's sizing hint.
func (l *loadLog) size() logSize { return logSize{len(l.lens), len(l.buf)} }

// logSize is a load log's length in loads and in bytes.
type logSize struct{ loads, bytes int }

// load threads one load through the log: a position the log already holds
// overwrites buf with the bytes read there before; a position past it
// records buf. Purely positional — a deterministic chunk issues the same
// load sequence.
func (l *loadLog) load(buf []byte) {
	n := len(buf)
	if l.cursor < len(l.lens) {
		n = int(l.lens[l.cursor])
		copy(buf, l.buf[l.off:l.off+n])
	} else {
		l.buf = append(l.buf, buf...)
		l.lens = append(l.lens, int32(n))
	}
	l.cursor++
	l.off += n
}

// replayLog is one replay cache: the values earlier attempts consumed, in
// consumption order, and the current attempt's position in them.
type replayLog[T any] struct {
	vals   []T
	cursor int
}

// peek returns the value the current attempt consumes next, if cached.
func (l *replayLog[T]) peek() (T, bool) {
	if l.cursor < len(l.vals) {
		return l.vals[l.cursor], true
	}
	var zero T
	return zero, false
}

// record appends a live-consumed value once the attempt is past the
// cache, and advances the cursor over it.
func (l *replayLog[T]) record(v T) {
	if l.cursor == len(l.vals) {
		l.vals = append(l.vals, v)
		l.cursor++
	}
}

// reset empties the cache for a recycled record, clearing the values so
// they pin nothing.
func (l *replayLog[T]) reset() {
	clear(l.vals)
	l.vals, l.cursor = l.vals[:0], 0
}

// suppressCounter counts an attempt's sends against the most any earlier
// attempt made: the first sent of them were already delivered.
type suppressCounter struct{ sent, cursor int }

// suppress reports whether the current attempt's next send was already
// delivered by a previous attempt.
func (c *suppressCounter) suppress() bool {
	c.cursor++
	if c.cursor <= c.sent {
		return true
	}
	c.sent = c.cursor
	return false
}

// beginAttempt rewinds the replay cursors for a (re-)execution and opens
// the attempt that runs it. A first attempt logs its loads into the
// record's own (empty) buffers: no other attempt exists, and a recycled
// record's previous one has finished. A later attempt's load log starts
// as a copy of the published one, sized for hint if that is larger: its
// own appends must not touch memory a stale attempt may still read.
func (r *spawnRec) beginAttempt(hint logSize) attempt {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.contsIn.cursor, r.vecsIn.cursor, r.donesIn.cursor, r.allocsIn.cursor = 0, 0, 0, 0
	r.contsOut.cursor, r.spawnsOut.cursor = 0, 0
	r.gen++
	a := attempt{rec: r, gen: r.gen}
	if r.gen == 1 {
		a.loads.lens = slices.Grow(r.loads.lens, hint.loads)
		a.loads.buf = slices.Grow(r.loads.buf, hint.bytes)
		return a
	}
	a.loads.lens = append(make([]int32, 0, max(hint.loads, len(r.loads.lens))), r.loads.lens...)
	a.loads.buf = append(make([]byte, 0, max(hint.bytes, len(r.loads.buf))), r.loads.buf...)
	return a
}

// publish hands the attempt's load log to its entry, if no later attempt
// has begun. rec.mu must be held.
func (a *attempt) publish() {
	if a.gen == a.rec.gen {
		a.rec.loads.buf, a.rec.loads.lens = a.loads.buf, a.loads.lens
	}
}

// cachedCont serves the next cont of the replay cache if it matches tag.
// A mismatch falls through to a live wait (the attempt diverged from the
// cached order; with deterministic chunks this only happens when the
// cache is exhausted).
// vec selects the vectored-cont cache; the cont comes back as the message
// the wait would have taken off the queue.
func (r *spawnRec) cachedCont(tag int, vec bool) (Message, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if vec {
		if c, ok := r.vecsIn.peek(); ok && c.tag == tag {
			r.vecsIn.cursor++
			return Message{Kind: MsgCont, Tag: tag, Args: c.vals}, true
		}
	} else if c, ok := r.contsIn.peek(); ok && c.tag == tag {
		r.contsIn.cursor++
		return Message{Kind: MsgCont, Tag: tag, Payload: c.payload}, true
	}
	return Message{}, false
}

// recordContIn appends a live-consumed cont to the cache vec selects.
func (r *spawnRec) recordContIn(msg *Message, vec bool) {
	r.mu.Lock()
	if vec {
		r.vecsIn.record(contVec{msg.Tag, msg.Args})
	} else {
		r.contsIn.record(contIn{msg.Tag, msg.Payload})
	}
	r.mu.Unlock()
}

// suppressSend publishes the attempt's loads, which the cont about to be
// sent may depend on, and reports whether that send was already delivered
// by a previous attempt.
func (a *attempt) suppressSend() bool {
	a.rec.mu.Lock()
	defer a.rec.mu.Unlock()
	a.publish()
	return a.rec.contsOut.suppress()
}

// suppressSpawn publishes the attempt's loads, which the nested spawn
// about to be issued may depend on, and reports whether that spawn was
// already issued by a previous attempt.
func (a *attempt) suppressSpawn() bool {
	a.rec.mu.Lock()
	defer a.rec.mu.Unlock()
	a.publish()
	return a.rec.spawnsOut.suppress()
}

// cachedDone serves the next completion of the replay cache, if any.
// Completions are order-based (joins carry no tag): a deterministic chunk
// re-joins in the order it first consumed.
func (r *spawnRec) cachedDone() (Message, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	msg, ok := r.donesIn.peek()
	if ok {
		r.donesIn.cursor++
	}
	return msg, ok
}

// recordDoneIn appends a live-consumed completion to the cache.
func (r *spawnRec) recordDoneIn(msg Message) {
	r.mu.Lock()
	r.donesIn.record(msg)
	r.mu.Unlock()
}

// journalAlloc serves the next allocation from the replay cache, or runs
// alloc live and records its result. On a cache hit alloc is not called:
// the addresses (and the side allocations behind them) already exist from
// the attempt the cache recorded.
func (r *spawnRec) journalAlloc(alloc func() uint64) uint64 {
	r.mu.Lock()
	if ptr, ok := r.allocsIn.peek(); ok {
		r.allocsIn.cursor++
		r.mu.Unlock()
		return ptr
	}
	r.mu.Unlock()
	ptr := alloc()
	r.mu.Lock()
	r.allocsIn.record(ptr)
	r.mu.Unlock()
	return ptr
}

// recordSpawn journals a spawn before it is sent. Recovery must be
// enabled by the caller.
func (rt *Runtime) recordSpawn(t *Thread, toIdx, chunkID int, args []value.Val, replyTo *Worker, needReply bool) {
	j := &rt.jr
	j.mu.Lock()
	if j.inflight == nil {
		j.inflight = make(map[spawnKey]*spawnRec, 8)
	}
	key := spawnKey{t, toIdx, chunkID}
	if _, exists := j.inflight[key]; !exists {
		var rec *spawnRec
		if n := len(j.free); n > 0 {
			rec = j.free[n-1]
			j.free[n-1] = nil
			j.free = j.free[:n-1]
		} else {
			rec = &spawnRec{}
		}
		rec.toIdx, rec.chunkID, rec.args, rec.replyTo, rec.needReply = toIdx, chunkID, args, replyTo, needReply
		j.inflight[key] = rec
		j.journaled.Add(1)
	}
	j.mu.Unlock()
}

// lookupSpawn finds the in-flight entry for a spawn executing on worker
// toIdx of thread t (nil when recovery is off or the spawn predates it).
func (rt *Runtime) lookupSpawn(t *Thread, toIdx, chunkID int) *spawnRec {
	j := &rt.jr
	j.mu.Lock()
	rec := j.inflight[spawnKey{t, toIdx, chunkID}]
	j.mu.Unlock()
	return rec
}

// completeSpawn commits the journal entry of a consumed successful
// completion. Unknown completions (recovery off, forged) are ignored.
//
// The record is recycled only if the completion came from its one and
// only execution: one attempt began (gen == 1) and no replay or restart
// was spent on it (attempts == 0). That attempt sent the completion as
// its last act, so nothing holds the record any more. A record any other
// attempt could still touch — a stale attempt a restart replaced keeps
// running, publishing and counting its sends — goes to the collector.
func (rt *Runtime) completeSpawn(t *Thread, fromIdx, chunkID int) {
	j := &rt.jr
	j.mu.Lock()
	defer j.mu.Unlock()
	key := spawnKey{t, fromIdx, chunkID}
	rec, ok := j.inflight[key]
	if !ok {
		return
	}
	delete(j.inflight, key)
	j.commits.Add(1)
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if rec.gen == 1 && rec.attempts == 0 && rec.fits() && len(j.free) < recFreeCap {
		rec.reset()
		j.free = append(j.free, rec)
	}
}

// fits reports whether the record's load log and replay caches are all
// within their retention caps. rec.mu must be held.
func (r *spawnRec) fits() bool {
	return cap(r.loads.buf) <= logRetainBytes && cap(r.loads.lens) <= logRetainLoads &&
		max(cap(r.contsIn.vals), cap(r.vecsIn.vals), cap(r.donesIn.vals), cap(r.allocsIn.vals)) <= replayRetainCount
}

// reset empties a committed record for reuse, keeping its buffers.
// rec.mu must be held.
func (r *spawnRec) reset() {
	r.args, r.replyTo = nil, nil
	r.gen = 0
	r.contsIn.reset()
	r.vecsIn.reset()
	r.donesIn.reset()
	r.allocsIn.reset()
	r.contsOut, r.spawnsOut = suppressCounter{}, suppressCounter{}
	r.loads = loadLog{buf: r.loads.buf[:0], lens: r.loads.lens[:0]}
}

// spendAttempt charges one replay to the in-flight spawn key names and
// returns its record and the attempt count (nil when the spawn is not
// in flight). Charging under the journal's mu keeps a completion racing
// the replay from recycling the record.
func (rt *Runtime) spendAttempt(key spawnKey) (*spawnRec, int) {
	j := &rt.jr
	j.mu.Lock()
	defer j.mu.Unlock()
	rec := j.inflight[key]
	if rec == nil {
		return nil, 0
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	rec.attempts++
	return rec, rec.attempts
}

// retrySpawn decides the fate of a poisoned completion consumed by w:
// true means the spawn was replayed (the completion is swallowed and the
// joiner keeps waiting for the replacement), false means the budget is
// exhausted (or the spawn was never journaled) and the error surfaces.
// Runs on the joiner's goroutine; the backoff sleep happens here, where
// the caller is blocked anyway.
func (rt *Runtime) retrySpawn(w *Worker, abort *EnclaveAbort) bool {
	if !rt.Recovery.Enabled() {
		return false
	}
	t := w.Thread
	rec, attempt := rt.spendAttempt(spawnKey{t, abort.Worker, abort.ChunkID})
	if rec == nil {
		return false
	}
	if attempt > rt.Recovery.MaxAttempts {
		j := &rt.jr
		j.mu.Lock()
		delete(j.inflight, spawnKey{t, abort.Worker, abort.ChunkID})
		j.mu.Unlock()
		j.giveups.Add(1)
		rt.trace(obs.EvGiveUp, abort.Worker, abort.ChunkID, 0, t.epoch.Load(), int64(attempt-1))
		return false
	}
	// Context-aware backoff: a Close during the wait cuts it short and
	// surfaces the abort instead of replaying into a dead thread. The
	// replay is counted only after the sleep commits to it.
	if err := rt.Recovery.Sleep(t.ctx, attempt); err != nil {
		return false
	}
	rt.jr.replays.Add(1)
	rt.respawn(t, rec)
	return true
}

// respawn re-sends a journaled spawn to the current worker of its color
// (after a restart, that is the replacement worker) in the thread's
// current epoch. It runs on the joiner's or a restarter's goroutine, not
// necessarily rec.replyTo's, so the send takes the raw path.
func (rt *Runtime) respawn(t *Thread, rec *spawnRec) {
	target := t.Worker(rec.toIdx)
	rec.mu.Lock()
	attempt := rec.attempts
	rec.mu.Unlock()
	rt.trace(obs.EvReplaySpawn, rec.toIdx, rec.chunkID, 0, t.epoch.Load(), int64(attempt))
	rt.send(rec.replyTo, target, Message{
		Kind: MsgSpawn, ChunkID: rec.chunkID, Args: rec.args,
		NeedReply: rec.needReply, ReplyTo: rec.replyTo,
	}, nil)
}

// spendRestart snapshots the in-flight spawns of thread t for a restart
// and charges each one replay, under the journal's mu like spendAttempt.
func (rt *Runtime) spendRestart(t *Thread) []*spawnRec {
	j := &rt.jr
	j.mu.Lock()
	defer j.mu.Unlock()
	var out []*spawnRec
	for k, rec := range j.inflight {
		if k.t == t {
			rec.mu.Lock()
			rec.attempts++
			rec.mu.Unlock()
			out = append(out, rec)
		}
	}
	return out
}

// RecoveryStats snapshots the recovery layer's counters.
type RecoveryStats struct {
	// SpawnsJournaled counts spawns recorded in the redo log; Commits
	// counts completions that closed their entry. After a quiescent,
	// fully recovered workload the two are equal — the zero-double-apply
	// invariant the soak asserts.
	SpawnsJournaled int64
	Commits         int64
	// Replays counts re-executions; Giveups counts spawns that exhausted
	// the attempt budget and surfaced their typed error.
	Replays int64
	Giveups int64
	// Restarts counts enclave workers torn down and re-created;
	// Redelivered counts queued messages carried over to a replacement
	// worker.
	Restarts    int64
	Redelivered int64
	// BackpressureWaits counts sends that found a bounded queue full and
	// had to wait for the consumer.
	BackpressureWaits int64
}

// RecoveryStats snapshots restart/replay/backpressure counters.
func (rt *Runtime) RecoveryStats() RecoveryStats {
	return RecoveryStats{
		SpawnsJournaled:   rt.jr.journaled.Load(),
		Commits:           rt.jr.commits.Load(),
		Replays:           rt.jr.replays.Load(),
		Giveups:           rt.jr.giveups.Load(),
		Restarts:          rt.stats.restarts.Load(),
		Redelivered:       rt.stats.redelivered.Load(),
		BackpressureWaits: rt.stats.backpressure.Load(),
	}
}
