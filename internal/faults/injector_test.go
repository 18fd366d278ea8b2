package faults_test

import (
	"errors"
	"testing"
	"time"

	"privagic/internal/faults"
	"privagic/internal/prt"
	"privagic/internal/sgx"
	"privagic/internal/value"
)

// deliverTagged routes n tagged conts through an injector attached to a
// runtime with no enclave workers (so nothing consumes the queue), flushes,
// and returns the raw delivery order observed on the queue. With the
// background flusher disabled this is fully deterministic.
func deliverTagged(t *testing.T, cfg faults.Config, n int) ([]int, faults.Stats) {
	t.Helper()
	cfg.DisableFlusher = true
	rt := prt.New(sgx.MachineB(), nil, nil)
	th := rt.NewThread()
	u := th.Normal()
	inj := faults.Attach(rt, cfg)
	defer inj.Close()
	for i := 1; i <= n; i++ {
		u.SendCont(0, i, value.Val{}) // self-delivery: 0 is the app thread itself
	}
	inj.Flush()
	var order []int
	for {
		msg, ok := u.DequeueRaw()
		if !ok {
			break
		}
		if msg.Kind == prt.MsgCont {
			order = append(order, msg.Tag)
		}
	}
	return order, inj.Stats()
}

// TestSameSeedSameSchedule is the reproducibility contract: identical
// seeds produce identical fault decisions and identical delivery orders.
func TestSameSeedSameSchedule(t *testing.T) {
	cfg := faults.Config{
		Seed: 7, Drop: 0.1, Duplicate: 0.1, Delay: 0.15, Reorder: 0.15,
	}
	a, sa := deliverTagged(t, cfg, 300)
	b, sb := deliverTagged(t, cfg, 300)
	if len(a) != len(b) {
		t.Fatalf("same seed, different lengths: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at delivery %d: %d vs %d", i, a[i], b[i])
		}
	}
	if sa != sb {
		t.Errorf("same seed, different stats: %+v vs %+v", sa, sb)
	}
	if sa.Total() == 0 {
		t.Error("schedule injected no faults at these probabilities")
	}
	cfg.Seed = 8
	c, _ := deliverTagged(t, cfg, 300)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds produced the identical schedule")
	}
}

// TestDropIsOrderPreservingSubsequence: pure drops leave a strictly
// increasing subsequence of the sent tags — the FIFO queue must not
// reorder what the injector merely thins out.
func TestDropIsOrderPreservingSubsequence(t *testing.T) {
	order, st := deliverTagged(t, faults.Config{Seed: 1, Drop: 0.3}, 500)
	if st.Dropped == 0 {
		t.Fatal("no drops at p=0.3")
	}
	if got, want := int64(len(order)), int64(500)-st.Dropped; got != want {
		t.Fatalf("delivered %d, want 500 - %d dropped = %d", got, st.Dropped, want)
	}
	for i := 1; i < len(order); i++ {
		if order[i] <= order[i-1] {
			t.Fatalf("drop-only delivery reordered: %d after %d", order[i], order[i-1])
		}
	}
}

// TestDuplicateMultiset: duplication delivers every message at least once
// and the duplicated ones exactly twice, in FIFO order of first delivery.
func TestDuplicateMultiset(t *testing.T) {
	order, st := deliverTagged(t, faults.Config{Seed: 2, Duplicate: 0.3}, 500)
	if st.Duplicated == 0 {
		t.Fatal("no duplicates at p=0.3")
	}
	count := map[int]int{}
	for _, tag := range order {
		count[tag]++
	}
	var twice int64
	for tag := 1; tag <= 500; tag++ {
		switch count[tag] {
		case 1:
		case 2:
			twice++
		default:
			t.Fatalf("tag %d delivered %d times", tag, count[tag])
		}
	}
	if twice != st.Duplicated {
		t.Errorf("%d tags delivered twice, stats say %d duplicated", twice, st.Duplicated)
	}
	for i := 1; i < len(order); i++ {
		if order[i] < order[i-1] {
			t.Fatalf("duplicate-only delivery went backwards: %d after %d", order[i], order[i-1])
		}
	}
}

// TestReorderIsLosslessPermutation: reordering perturbs the order but loses
// and duplicates nothing.
func TestReorderIsLosslessPermutation(t *testing.T) {
	order, st := deliverTagged(t, faults.Config{Seed: 3, Reorder: 0.4}, 500)
	if st.Reordered == 0 {
		t.Fatal("no reorders at p=0.4")
	}
	if len(order) != 500 {
		t.Fatalf("reorder lost messages: delivered %d of 500", len(order))
	}
	seen := map[int]bool{}
	inversions := 0
	for i, tag := range order {
		if seen[tag] {
			t.Fatalf("tag %d delivered twice", tag)
		}
		seen[tag] = true
		if i > 0 && tag < order[i-1] {
			inversions++
		}
	}
	if inversions == 0 {
		t.Error("reorder schedule produced no inversions")
	}
}

// TestDelayHoldsForHops: a delayed message is overtaken by roughly
// DelayHops later sends but still arrives.
func TestDelayHoldsForHops(t *testing.T) {
	order, st := deliverTagged(t, faults.Config{Seed: 4, Delay: 0.3, DelayHops: 3}, 500)
	if st.Delayed == 0 {
		t.Fatal("no delays at p=0.3")
	}
	if len(order) != 500 {
		t.Fatalf("delay lost messages: delivered %d of 500", len(order))
	}
	maxDisplacement := 0
	for i, tag := range order {
		if d := i + 1 - tag; d > maxDisplacement {
			maxDisplacement = d
		}
	}
	if maxDisplacement == 0 {
		t.Error("no message was displaced by the delay schedule")
	}
}

// echoRT builds a one-enclave runtime whose single chunk echoes its
// argument (the minimal spawn/join protocol for end-to-end fault tests).
func echoRT() *prt.Runtime {
	return prt.New(sgx.MachineB(), []string{"blue"},
		func(w *prt.Worker, chunkID int, args []value.Val) (value.Val, error) { return args[0], nil })
}

// TestCrashInjectionBecomesTypedAbort: an injected crash surfaces as an
// *EnclaveAbort whose cause is the *InjectedCrash, never a dead worker.
func TestCrashInjectionBecomesTypedAbort(t *testing.T) {
	rt := echoRT()
	inj := faults.Attach(rt, faults.Config{Seed: 5, Crash: 1.0})
	defer inj.Close()
	th := rt.NewThread()
	defer th.Close()
	u := th.Normal()
	u.Spawn(1, 1, []value.Val{value.IV(1)})
	_, err := u.JoinTimeout(1, 5*time.Second)
	if !errors.Is(err, prt.ErrEnclaveAbort) {
		t.Fatalf("Join under crash injection = %v, want EnclaveAbort", err)
	}
	var ic *faults.InjectedCrash
	if !errors.As(err, &ic) || ic.ChunkID != 1 {
		t.Fatalf("abort cause = %v, want InjectedCrash{ChunkID:1}", err)
	}
	if st := inj.Stats(); st.Crashes != 1 {
		t.Errorf("Crashes = %d, want 1", st.Crashes)
	}
}

// TestRetransmitRecoversFromTotalLoss: with every first transmission
// dropped, the retransmitting transport still completes the protocol, and
// the meter shows what that cost.
func TestRetransmitRecoversFromTotalLoss(t *testing.T) {
	rt := echoRT()
	rt.WaitTimeout = 5 * time.Second
	inj := faults.Attach(rt, faults.Config{
		Seed: 6, Drop: 1.0, Retransmit: true, RetransmitAfter: time.Millisecond,
	})
	defer inj.Close()
	th := rt.NewThread()
	defer th.Close()
	u := th.Normal()
	for i := 0; i < 10; i++ {
		u.Spawn(1, 1, []value.Val{value.IV(int64(i))})
		got, err := u.Join(1)
		if err != nil || got != value.IV(int64(i)) {
			t.Fatalf("round %d under total first-loss: %v, %v", i, got, err)
		}
	}
	if n := rt.Meter.Retransmits(); n < 20 {
		t.Errorf("Retransmits = %d, want >= 20 (spawn+done per round)", n)
	}
	if st := inj.Stats(); st.Retransmitted != st.Dropped {
		t.Errorf("retransmitted %d of %d drops", st.Retransmitted, st.Dropped)
	}
}

// TestForgedMessagesAllRejected: under heavy forgery the protocol still
// answers correctly and every forged message is counted at the admit gate.
func TestForgedMessagesAllRejected(t *testing.T) {
	rt := echoRT()
	rt.WaitTimeout = 5 * time.Second
	rt.ValidateSpawn = func(workerIdx, chunkID int) bool { return chunkID == 1 }
	inj := faults.Attach(rt, faults.Config{Seed: 7, Forge: 0.9})
	defer inj.Close()
	th := rt.NewThread()
	defer th.Close()
	u := th.Normal()
	for i := 0; i < 50; i++ {
		u.Spawn(1, 1, []value.Val{value.IV(int64(i))})
		got, err := u.Join(1)
		if err != nil || got != value.IV(int64(i)) {
			t.Fatalf("round %d under forgery: %v, %v", i, got, err)
		}
	}
	st := inj.Stats()
	if st.Forged == 0 {
		t.Fatal("no forgeries at p=0.9")
	}
	// Forgeries delivered alongside the final completions may not have
	// been dequeued yet: give the idle enclave worker a moment to reject
	// its in-flight ones, then drain the app thread's queue (its leftovers
	// can only be forged messages — every authentic one was consumed).
	time.Sleep(20 * time.Millisecond)
	var inFlight int64
	for {
		if _, ok := u.DequeueRaw(); !ok {
			break
		}
		inFlight++
	}
	sup := rt.SupervisionStats()
	if sup.HostileTotal()+inFlight != st.Forged {
		t.Errorf("forged %d, admit gate rejected %d (+%d still queued)",
			st.Forged, sup.HostileTotal(), inFlight)
	}
}
