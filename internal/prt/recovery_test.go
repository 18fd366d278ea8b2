package prt

import (
	"bytes"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// These tests exercise the recovery layer end to end at the runtime level:
// replay-on-abort, the attempt budget, the cont replay caches, the epoch
// fence around a timed-out Call's journal entries, and timeout
// diagnostics.

// TestRetryOnAbortRecovers: a chunk that crashes twice and then succeeds
// must complete the join with the correct value and no visible error, and
// the journal must record exactly one commit for the one logical spawn.
func TestRetryOnAbortRecovers(t *testing.T) {
	var execs atomic.Int32
	rt := testRT(t, []string{"blue"}, map[int]func(w *Worker, args []val) val{
		1: func(w *Worker, args []val) val {
			if execs.Add(1) <= 2 {
				panic("injected crash")
			}
			return iv(42)
		},
	})
	rt.ReplayBudget = 3
	th := rt.NewThread()
	defer th.Close()
	u := th.Normal()
	u.Spawn(1, 1, nil)
	got, err := u.JoinTimeout(1, 5*time.Second)
	if err != nil {
		t.Fatalf("Join after recovery: %v", err)
	}
	if got != iv(42) {
		t.Errorf("Join = %v, want 42", got)
	}
	if n := execs.Load(); n != 3 {
		t.Errorf("chunk executed %d times, want 3 (1 + 2 replays)", n)
	}
	rs := rt.RecoveryStats()
	if rs.SpawnsJournaled != 1 || rs.Commits != 1 {
		t.Errorf("journal: %d journaled, %d commits, want 1/1", rs.SpawnsJournaled, rs.Commits)
	}
	if rs.Replays != 2 || rs.Giveups != 0 {
		t.Errorf("replays=%d giveups=%d, want 2/0", rs.Replays, rs.Giveups)
	}
}

// TestRetryBudgetExhausted: a chunk that always crashes is replayed exactly
// MaxAttempts times, then the original typed error surfaces — carrying the
// crash-site stack captured at recover time.
func TestRetryBudgetExhausted(t *testing.T) {
	var execs atomic.Int32
	rt := testRT(t, []string{"blue"}, map[int]func(w *Worker, args []val) val{
		1: func(w *Worker, args []val) val {
			execs.Add(1)
			panic("always crashing")
		},
	})
	rt.ReplayBudget = 2
	th := rt.NewThread()
	defer th.Close()
	u := th.Normal()
	u.Spawn(1, 1, nil)
	_, err := u.JoinTimeout(1, 5*time.Second)
	if !errors.Is(err, ErrEnclaveAbort) {
		t.Fatalf("Join = %v, want ErrEnclaveAbort after exhausted budget", err)
	}
	var abort *EnclaveAbort
	if !errors.As(err, &abort) {
		t.Fatalf("error %T does not unwrap to *EnclaveAbort", err)
	}
	if len(abort.Stack()) == 0 || !bytes.Contains(abort.Stack(), []byte("prt")) {
		t.Errorf("abort carries no usable stack: %q", abort.Stack())
	}
	if n := execs.Load(); n != 3 {
		t.Errorf("chunk executed %d times, want 3 (1 + MaxAttempts)", n)
	}
	rs := rt.RecoveryStats()
	if rs.Replays != 2 || rs.Giveups != 1 || rs.Commits != 0 {
		t.Errorf("replays=%d giveups=%d commits=%d, want 2/1/0", rs.Replays, rs.Giveups, rs.Commits)
	}
}

// TestReplayContCaches: a chunk that consumes two conts, answers with a
// third, and then crashes must replay idempotently — the consumed conts are
// re-served from the journal cache (the peer will not resend them) and the
// answered cont is suppressed (the peer already consumed it, and a fresh
// copy could satisfy a later wait on the same tag).
func TestReplayContCaches(t *testing.T) {
	var execs atomic.Int32
	rt := testRT(t, []string{"blue"}, map[int]func(w *Worker, args []val) val{
		1: func(w *Worker, args []val) val {
			a, err := w.WaitTimeout(5, 2*time.Second)
			if err != nil {
				t.Errorf("chunk Wait(5): %v", err)
				return val{}
			}
			b, err := w.WaitTimeout(6, 2*time.Second)
			if err != nil {
				t.Errorf("chunk Wait(6): %v", err)
				return val{}
			}
			sum := a.I + b.I
			w.SendCont(0, 9, iv(sum))
			if execs.Add(1) == 1 {
				panic("crash after consuming and answering")
			}
			return iv(sum)
		},
	})
	rt.ReplayBudget = 3
	th := rt.NewThread()
	defer th.Close()
	u := th.Normal()
	u.Spawn(1, 1, nil)
	u.SendCont(1, 5, iv(20))
	u.SendCont(1, 6, iv(22))
	if got, err := u.WaitTimeout(9, 5*time.Second); err != nil || got != iv(42) {
		t.Fatalf("Wait(9) = %v, %v, want 42", got, err)
	}
	if got, err := u.JoinTimeout(1, 5*time.Second); err != nil || got != iv(42) {
		t.Fatalf("Join = %v, %v, want 42", got, err)
	}
	if n := execs.Load(); n != 2 {
		t.Errorf("chunk executed %d times, want 2", n)
	}
	// Exactly one copy of the answer cont must ever reach this worker: the
	// replay's re-send was suppressed, so a second wait on the tag starves.
	if _, err := u.WaitTimeout(9, 50*time.Millisecond); !errors.Is(err, ErrWaitTimeout) {
		t.Errorf("second Wait(9) = %v, want timeout (replayed cont must be suppressed)", err)
	}
	rs := rt.RecoveryStats()
	if rs.Replays != 1 || rs.Commits != 1 || rs.SpawnsJournaled != 1 {
		t.Errorf("replays=%d commits=%d journaled=%d, want 1/1/1", rs.Replays, rs.Commits, rs.SpawnsJournaled)
	}
}

// dropFirstDone is a test interceptor that loses the first completion
// and delivers everything else.
type dropFirstDone struct{ dropped atomic.Bool }

func (d *dropFirstDone) Deliver(to *Worker, msg Message) {
	if msg.Kind == MsgDone && d.dropped.CompareAndSwap(false, true) {
		return
	}
	to.EnqueueRaw(msg)
}

// TestTimedOutCallEntryNotReused: a Call that timed out because its
// spawn's completion was lost leaves that spawn's journal entry in
// flight. The next Call's spawn of the same chunk is journaled afresh
// and runs on live memory: it is not served the dead Call's loads.
func TestTimedOutCallEntryNotReused(t *testing.T) {
	var mem atomic.Int64
	rt := testRT(t, []string{"blue"}, map[int]func(w *Worker, args []val) val{
		1: func(w *Worker, args []val) val { return iv(journaledLoad(w, &mem)) },
	})
	rt.ReplayBudget = 3
	rt.WaitTimeout = 50 * time.Millisecond
	rt.SetInterceptor(&dropFirstDone{})
	th := rt.NewThread()
	defer th.Close()
	u := th.Normal()
	call := func(v int64) (val, error) {
		th.AdvanceEpoch()
		mem.Store(v)
		u.Spawn(1, 1, nil)
		return u.Join(1)
	}
	if _, err := call(1); !errors.Is(err, ErrWaitTimeout) {
		t.Fatalf("Call 1 = %v, want a timeout: its completion was lost", err)
	}
	if got, err := call(2); err != nil || got != iv(2) {
		t.Fatalf("Call 2 = %v, %v; want 2 (live memory, not Call 1's load)", got, err)
	}
	if rs := rt.RecoveryStats(); rs.SpawnsJournaled != 2 || rs.Commits != 1 || rs.Replays != 0 {
		t.Errorf("journaled %d, commits %d, replays %d; want 2/1/0",
			rs.SpawnsJournaled, rs.Commits, rs.Replays)
	}
}

// TestStaleCompletionNeverCommits: the completion of a stale attempt,
// one still running when its Call timed out, is dropped as stale: it
// neither commits nor answers the next Call's join, which gets the
// completion of its own spawn, exactly once.
func TestStaleCompletionNeverCommits(t *testing.T) {
	started, release := make(chan struct{}), make(chan struct{})
	var execs atomic.Int32
	rt := testRT(t, []string{"blue"}, map[int]func(w *Worker, args []val) val{
		1: func(w *Worker, args []val) val {
			if execs.Add(1) == 1 {
				close(started)
				<-release // wedged until the next Call has spawned
				return iv(1015)
			}
			return iv(1016)
		},
	})
	rt.ReplayBudget = 3
	rt.WaitTimeout = 50 * time.Millisecond
	th := rt.NewThread()
	defer th.Close()
	u := th.Normal()

	th.AdvanceEpoch()
	u.Spawn(1, 1, nil)
	stale := rt.lookupSpawn(th, 1, 1, th.epoch.Load())
	<-started
	if _, err := u.Join(1); !errors.Is(err, ErrWaitTimeout) {
		t.Fatalf("Call 1 Join = %v, want a timeout: its chunk is wedged", err)
	}

	th.AdvanceEpoch()
	u.Spawn(1, 1, nil)
	close(release)
	// The worker finishes the stale attempt before it runs the new spawn,
	// so the stale completion reaches the join first.
	if got, err := u.Join(1); err != nil || got != iv(1016) {
		t.Fatalf("Call 2 Join = %v, %v; want 1016 from its own spawn", got, err)
	}
	if _, err := u.JoinOneTimeout(60 * time.Millisecond); !errors.Is(err, ErrWaitTimeout) {
		t.Errorf("a second completion was admitted: JoinOne = %v, want timeout", err)
	}
	rs := rt.RecoveryStats()
	if rs.SpawnsJournaled != 2 || rs.Commits != 1 || rs.Replays != 0 || rs.Giveups != 0 {
		t.Errorf("journaled %d, commits %d, replays %d, giveups %d; want 2/1/0/0",
			rs.SpawnsJournaled, rs.Commits, rs.Replays, rs.Giveups)
	}
	if ds := rt.SupervisionStats().DroppedStale; ds < 1 {
		t.Errorf("dropped-stale = %d, want >= 1 (the stale completion)", ds)
	}
	if freeHolds(rt, stale) {
		t.Error("the record of the timed-out Call's spawn was recycled")
	}
}

// TestTimeoutDiagnostics: a TimeoutError names the protocol state at
// expiry — the waiter's own tag, every sibling worker's published wait
// point, and per-worker queue depths.
func TestTimeoutDiagnostics(t *testing.T) {
	blocked := make(chan struct{})
	rt := testRT(t, []string{"blue"}, map[int]func(w *Worker, args []val) val{
		1: func(w *Worker, args []val) val {
			close(blocked)
			if _, err := w.WaitTimeout(5, 5*time.Second); err != nil {
				t.Errorf("chunk Wait(5): %v", err)
			}
			return val{}
		},
	})
	th := rt.NewThread()
	defer th.Close()
	u := th.Normal()
	u.Spawn(1, 1, nil)
	<-blocked
	// Wait until the chunk has published its block point.
	for {
		if bi, ok := th.Worker(1).block.load(); ok && bi.tag == 5 {
			break
		}
		runtime.Gosched()
	}

	_, err := u.WaitTimeout(9, 60*time.Millisecond)
	var te *TimeoutError
	if !errors.As(err, &te) {
		t.Fatalf("WaitTimeout = %v, want *TimeoutError", err)
	}
	if len(te.QueueDepths) != 2 {
		t.Errorf("QueueDepths = %v, want one entry per worker", te.QueueDepths)
	}
	wantTags := map[int]bool{5: false, 9: false}
	for _, tag := range te.PendingTags {
		if _, ok := wantTags[tag]; ok {
			wantTags[tag] = true
		}
	}
	for tag, seen := range wantTags {
		if !seen {
			t.Errorf("PendingTags = %v, missing tag %d", te.PendingTags, tag)
		}
	}

	u.SendCont(1, 5, val{}) // unblock the enclave chunk
	if _, err := u.JoinTimeout(1, 5*time.Second); err != nil {
		t.Fatalf("Join: %v", err)
	}
}
