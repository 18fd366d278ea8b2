package prt

import (
	"errors"
	"sync"
	"testing"
	"time"

	"privagic/internal/sgx"
)

// TestStopDuringWaitReturnsErrStopped checks the satellite fix: a worker
// blocked in Wait when Thread.Close fires gets a typed shutdown error, not
// a panic, so teardown during in-flight work is safe.
func TestStopDuringWaitReturnsErrStopped(t *testing.T) {
	errCh := make(chan error, 1)
	rt := testRT(t, []string{"blue"}, map[int]func(w *Worker, args []val) val{
		1: func(w *Worker, args []val) val {
			_, err := w.Wait(42) // blocks: nobody ever sends tag 42
			errCh <- err
			return val{}
		},
	})
	th := rt.NewThread()
	u := th.Normal()
	u.Spawn(1, 1, nil)
	time.Sleep(5 * time.Millisecond) // let the chunk reach its wait
	th.Close()                       // must not deadlock or panic
	select {
	case err := <-errCh:
		if !errors.Is(err, ErrStopped) {
			t.Fatalf("Wait during Close = %v, want ErrStopped", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("chunk never unblocked")
	}
}

// TestAbortPropagatesToJoiner checks the simulated-AEX path: a panicking
// chunk becomes a poisoned Done carrying *EnclaveAbort instead of
// deadlocking the joiner forever.
func TestAbortPropagatesToJoiner(t *testing.T) {
	rt := testRT(t, []string{"blue"}, map[int]func(w *Worker, args []val) val{
		1: func(w *Worker, args []val) val { panic("enclave blew up") },
		2: func(w *Worker, args []val) val { return iv(1008) },
	})
	th := rt.NewThread()
	defer th.Close()
	u := th.Normal()
	u.Spawn(1, 1, nil)
	_, err := u.Join(1)
	if !errors.Is(err, ErrEnclaveAbort) {
		t.Fatalf("Join after crash = %v, want EnclaveAbort", err)
	}
	var abort *EnclaveAbort
	if !errors.As(err, &abort) || abort.ChunkID != 1 || abort.Worker != 1 {
		t.Fatalf("abort details wrong: %+v", abort)
	}
	// The worker survived the crash and serves the next request.
	u.Spawn(1, 2, nil)
	got, err := u.Join(1)
	if err != nil || got != iv(1008) {
		t.Fatalf("worker did not survive the abort: %v, %v", got, err)
	}
	if st := rt.SupervisionStats(); st.Aborts != 1 {
		t.Errorf("Aborts = %d, want 1", st.Aborts)
	}
}

// TestWaitTimeoutOnLostCont checks that a lost cont degrades into a typed
// timeout instead of a hang.
func TestWaitTimeoutOnLostCont(t *testing.T) {
	rt := testRT(t, []string{"blue"}, nil)
	rt.WaitTimeout = 20 * time.Millisecond
	th := rt.NewThread()
	defer th.Close()
	u := th.Normal()
	start := time.Now()
	_, err := u.Wait(7)
	if !errors.Is(err, ErrWaitTimeout) {
		t.Fatalf("Wait on lost cont = %v, want ErrWaitTimeout", err)
	}
	var te *TimeoutError
	if !errors.As(err, &te) || te.Tag != 7 || te.Op != "wait" || te.Worker != 0 {
		t.Fatalf("timeout details wrong: %+v", te)
	}
	if el := time.Since(start); el > 5*time.Second {
		t.Fatalf("timeout took %v", el)
	}
	if st := rt.SupervisionStats(); st.Timeouts != 1 {
		t.Errorf("Timeouts = %d, want 1", st.Timeouts)
	}
}

// TestJoinTimeoutExplicit checks the explicit-deadline variant against a
// spawn whose completion never comes (dropped by an interceptor).
func TestJoinTimeoutExplicit(t *testing.T) {
	rt := testRT(t, []string{"blue"}, map[int]func(w *Worker, args []val) val{
		1: func(w *Worker, args []val) val { return val{} },
	})
	rt.SetInterceptor(dropKind{MsgDone})
	th := rt.NewThread()
	defer th.Close()
	u := th.Normal()
	u.Spawn(1, 1, nil)
	_, err := u.JoinTimeout(1, 20*time.Millisecond)
	if !errors.Is(err, ErrWaitTimeout) {
		t.Fatalf("JoinTimeout = %v, want ErrWaitTimeout", err)
	}
}

// dropKind is a test interceptor that swallows every message of one kind.
type dropKind struct{ kind MsgKind }

func (d dropKind) Deliver(to *Worker, msg Message) {
	if msg.Kind == d.kind {
		return
	}
	to.EnqueueRaw(msg)
}

// dupAll is a test interceptor that delivers every message twice — the
// replay attack / duplicating-transport case.
type dupAll struct{}

func (dupAll) Deliver(to *Worker, msg Message) {
	to.EnqueueRaw(msg)
	to.EnqueueRaw(msg)
}

// TestDuplicateSuppression checks that replayed messages are delivered
// exactly once: 50 spawn/join rounds under a duplicating transport still
// yield exactly one completion each.
func TestDuplicateSuppression(t *testing.T) {
	rt := testRT(t, []string{"blue"}, map[int]func(w *Worker, args []val) val{
		1: func(w *Worker, args []val) val { return args[0] },
	})
	rt.SetInterceptor(dupAll{})
	th := rt.NewThread()
	defer th.Close()
	u := th.Normal()
	for j := 0; j < 50; j++ {
		u.Spawn(1, 1, []val{iv(j)})
		got, err := u.Join(1)
		if err != nil || got != iv(j) {
			t.Fatalf("round %d: Join = %v, %v", j, got, err)
		}
	}
	st := rt.SupervisionStats()
	if st.DroppedDuplicates == 0 {
		t.Error("no duplicates suppressed under a duplicating transport")
	}
}

// TestHostileMessagesRejected forges messages into the queues (no auth
// stamp) and checks they are counted and ignored while the legitimate
// protocol proceeds.
func TestHostileMessagesRejected(t *testing.T) {
	rt := testRT(t, []string{"blue"}, map[int]func(w *Worker, args []val) val{
		1: func(w *Worker, args []val) val { return iv(1009) },
	})
	th := rt.NewThread()
	defer th.Close()
	u := th.Normal()
	// Forge: a spawn at the enclave worker, a cont and a done at the
	// app thread (the injected-message surface of §8).
	th.Worker(1).DeliverHostile(Message{Kind: MsgSpawn, ChunkID: 999})
	u.DeliverHostile(Message{Kind: MsgCont, Tag: 1, Payload: iv(-666)})
	u.DeliverHostile(Message{Kind: MsgDone, Payload: iv(-666), From: 1})
	u.Spawn(1, 1, nil)
	got, err := u.Join(1)
	if err != nil || got != iv(1009) {
		t.Fatalf("Join = %v, %v; forged done consumed?", got, err)
	}
	st := rt.SupervisionStats()
	if st.HostileSpawns != 1 || st.HostileConts != 1 || st.HostileOther != 1 {
		t.Errorf("hostile counters = %+v, want 1/1/1", st)
	}
}

// TestContTagValidation checks the ValidateCont whitelist: an
// authenticated cont with an unallocated tag is rejected and counted
// rather than parked forever in the pending buffer.
func TestContTagValidation(t *testing.T) {
	rt := testRT(t, []string{"blue"}, map[int]func(w *Worker, args []val) val{
		1: func(w *Worker, args []val) val {
			w.SendCont(0, 500, iv(1010)) // tag outside the whitelist
			w.SendCont(0, 3, iv(1011))
			return val{}
		},
	})
	rt.ValidateCont = func(tag int) bool { return tag <= 10 }
	th := rt.NewThread()
	defer th.Close()
	u := th.Normal()
	u.Spawn(1, 1, nil)
	if got, err := u.Wait(3); err != nil || got != iv(1011) {
		t.Fatalf("Wait(3) = %v, %v", got, err)
	}
	if _, err := u.Join(1); err != nil {
		t.Fatalf("Join: %v", err)
	}
	if st := rt.SupervisionStats(); st.RejectedConts != 1 {
		t.Errorf("RejectedConts = %d, want 1", st.RejectedConts)
	}
}

// holdDones captures Done messages until released — simulating a transport
// that redelivers them much later (after the invocation moved on).
type holdDones struct {
	mu   sync.Mutex
	held []struct {
		to  *Worker
		msg Message
	}
}

func (h *holdDones) Deliver(to *Worker, msg Message) {
	if msg.Kind == MsgDone {
		h.mu.Lock()
		h.held = append(h.held, struct {
			to  *Worker
			msg Message
		}{to, msg})
		h.mu.Unlock()
		return
	}
	to.EnqueueRaw(msg)
}

func (h *holdDones) release() {
	h.mu.Lock()
	held := h.held
	h.held = nil
	h.mu.Unlock()
	for _, e := range held {
		e.to.EnqueueRaw(e.msg)
	}
}

// TestEpochFencesStaleMessages checks the cross-invocation staleness
// fence: a completion from invocation N delivered during invocation N+1 is
// discarded, not consumed as N+1's result.
func TestEpochFencesStaleMessages(t *testing.T) {
	rt := testRT(t, []string{"blue"}, map[int]func(w *Worker, args []val) val{
		1: func(w *Worker, args []val) val { return args[0] },
	})
	ic := &holdDones{}
	rt.SetInterceptor(ic)
	th := rt.NewThread()
	defer th.Close()
	u := th.Normal()

	th.AdvanceEpoch()
	u.Spawn(1, 1, []val{iv(1017)})
	if _, err := u.JoinTimeout(1, 10*time.Millisecond); !errors.Is(err, ErrWaitTimeout) {
		t.Fatalf("expected timeout while the done is held, got %v", err)
	}

	// Next invocation: the stale done is released mid-flight.
	th.AdvanceEpoch()
	rt.SetInterceptor(nil)
	ic.release()
	u.Spawn(1, 1, []val{iv(1012)})
	got, err := u.Join(1)
	if err != nil || got != iv(1012) {
		t.Fatalf("Join = %v, %v; stale completion leaked across epochs", got, err)
	}
	if st := rt.SupervisionStats(); st.DroppedStale == 0 {
		t.Error("stale message was not counted as dropped")
	}
}

// TestCloseDrainsLeftovers checks graceful shutdown: queue contents left
// by a crashed protocol are drained and counted, not leaked.
func TestCloseDrainsLeftovers(t *testing.T) {
	rt := testRT(t, []string{"blue"}, map[int]func(w *Worker, args []val) val{
		1: func(w *Worker, args []val) val {
			w.SendCont(0, 9, iv(1013))
			w.SendCont(0, 10, iv(1013))
			return val{}
		},
	})
	th := rt.NewThread()
	u := th.Normal()
	u.Spawn(1, 1, nil)
	if _, err := u.Join(1); err != nil {
		t.Fatalf("Join: %v", err)
	}
	th.Close()
	th.Close() // idempotent
	if st := rt.SupervisionStats(); st.Drained < 2 {
		t.Errorf("Drained = %d, want >= 2 leftover conts", st.Drained)
	}
}

// TestSupervisedRoundTripStillCorrect is the zero-fault sanity check: with
// the wait window armed, the ordinary protocol is unchanged.
func TestSupervisedRoundTripStillCorrect(t *testing.T) {
	rt := New(sgx.MachineB(), []string{"blue"}, func(w *Worker, chunkID int, args []val) (val, error) {
		return iv(args[0].I + 1), nil
	})
	rt.WaitTimeout = time.Second
	th := rt.NewThread()
	defer func() { th.Close(); rt.Shutdown() }()
	u := th.Normal()
	for j := 0; j < 200; j++ {
		th.AdvanceEpoch()
		u.Spawn(1, 1, []val{iv(j)})
		got, err := u.Join(1)
		if err != nil || got != iv(j+1) {
			t.Fatalf("round %d: %v, %v", j, got, err)
		}
	}
	st := rt.SupervisionStats()
	if st.Timeouts != 0 || st.Aborts != 0 || st.HostileTotal() != 0 {
		t.Errorf("clean run tripped counters: %+v", st)
	}
}

// TestCrossSendsBeforeWaitNeverBlock pins the promise supervision makes:
// a wait ends in a value or a typed error, never a hang. Two workers each
// send 64 conts to the other before either waits, so each send lands in
// the queue of a worker that is itself still sending. Sends never block,
// so every value arrives. (With a send that blocks at a queue bound of 2,
// both workers wedge inside their sends, outside any wait window.)
func TestCrossSendsBeforeWaitNeverBlock(t *testing.T) {
	const conts = 64
	rt := testRT(t, []string{"blue"}, map[int]func(w *Worker, args []val) val{
		1: func(w *Worker, args []val) val {
			for i := 0; i < conts; i++ {
				w.SendCont(0, 100+i, iv(i))
			}
			sum := int64(0)
			for i := 0; i < conts; i++ {
				v, err := w.Wait(200 + i)
				if err != nil {
					t.Errorf("enclave Wait(%d): %v", 200+i, err)
					return val{}
				}
				sum += v.I
			}
			return iv(sum)
		},
	})
	rt.WaitTimeout = 10 * time.Second
	th := rt.NewThread()
	defer th.Close()
	u := th.Normal()
	u.Spawn(1, 1, nil)
	for i := 0; i < conts; i++ {
		u.SendCont(1, 200+i, iv(1000+i))
	}
	for i := 0; i < conts; i++ {
		if got, err := u.Wait(100 + i); err != nil || got != iv(i) {
			t.Fatalf("Wait(%d) = %v, %v, want %d", 100+i, got, err, i)
		}
	}
	got, err := u.Join(1)
	if want := iv(conts*1000 + conts*(conts-1)/2); err != nil || got != want {
		t.Fatalf("Join = %v, %v, want %v", got, err, want)
	}
	if st := rt.SupervisionStats(); st.Timeouts != 0 {
		t.Errorf("Timeouts = %d, want 0", st.Timeouts)
	}
}

// TestNestedWaitFailureEndsOuterWait: a failure taken by the wait of a
// chunk nested in another wait on the same worker ends that outer wait
// too. Blue starts a chunk on U, nested in U's join, and fails before
// joining it; its failed Done reaches the nested chunk's wait, not the
// join it is owed to. No window is armed.
func TestNestedWaitFailureEndsOuterWait(t *testing.T) {
	rt := New(sgx.MachineB(), []string{"blue"}, func(w *Worker, chunkID int, args []val) (val, error) {
		if chunkID == 1 {
			w.Spawn(0, 2, nil)
			return val{}, errors.New("blue failed")
		}
		_, err := w.Wait(9) // nobody sends tag 9
		return val{}, err
	})
	th := rt.NewThread()
	defer th.Close()
	u := th.Normal()
	u.Spawn(1, 1, nil)
	done := make(chan error, 1)
	go func() {
		_, err := u.Join(1)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil || err.Error() != "blue failed" {
			t.Fatalf("Join = %v, want blue's failure", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the join never ended: the nested chunk's wait took the failure")
	}
}
