package prt

import (
	"errors"
	"strings"
	"testing"
	"time"

	"privagic/internal/obs"
)

// TestTraceCoversSpawnProtocol runs one spawn/join round trip with the
// tracer armed and checks the structured stream: spans balance, the
// transport events carry the receiver, and counts are exact.
func TestTraceCoversSpawnProtocol(t *testing.T) {
	rt := testRT(t, []string{"blue"}, map[int]func(w *Worker, args []val) val{
		1: func(w *Worker, args []val) val { return iv(7) },
	})
	rt.Tracer = obs.NewTracer(256)
	th := rt.NewThread()
	defer th.Close()
	u := th.Normal()
	u.Spawn(1, 1, nil)
	if got, err := u.Join(1); err != nil || got != iv(7) {
		t.Fatalf("Join = %v, %v", got, err)
	}
	counts := rt.Tracer.Counts()
	if counts["spawn"] != 1 || counts["spawn.end"] != 1 {
		t.Fatalf("span counts %v, want one spawn and one spawn.end", counts)
	}
	if counts["send"] != 2 { // the spawn out, the done back
		t.Fatalf("send count %v, want 2", counts)
	}
	if counts["join"] != 1 {
		t.Fatalf("join count %v, want 1", counts)
	}
}

// TestAbortCarriesFlightRecord checks the flight recorder: an enclave
// abort surfaces with the tracer's trailing events attached, and the
// record's last line is the abort itself.
func TestAbortCarriesFlightRecord(t *testing.T) {
	rt := testRT(t, []string{"blue"}, map[int]func(w *Worker, args []val) val{
		1: func(w *Worker, args []val) val { panic("enclave blew up") },
	})
	rt.Tracer = obs.NewTracer(256)
	th := rt.NewThread()
	defer th.Close()
	u := th.Normal()
	u.Spawn(1, 1, nil)
	_, err := u.Join(1)
	var abort *EnclaveAbort
	if !errors.As(err, &abort) {
		t.Fatalf("Join = %v, want *EnclaveAbort", err)
	}
	fr := abort.FlightRecord()
	if fr == "" {
		t.Fatal("abort has no flight record despite an armed tracer")
	}
	lines := strings.Split(strings.TrimRight(fr, "\n"), "\n")
	if !strings.Contains(lines[len(lines)-1], "abort") {
		t.Fatalf("flight record's last line is not the abort:\n%s", fr)
	}
}

// TestTimeoutCarriesFlightRecord checks the other error surface: a wait
// timeout's diagnostics include the flight record next to the pending
// tags and queue depths.
func TestTimeoutCarriesFlightRecord(t *testing.T) {
	rt := testRT(t, []string{"blue"}, map[int]func(w *Worker, args []val) val{})
	rt.Tracer = obs.NewTracer(256)
	rt.WaitTimeout = 20 * time.Millisecond
	th := rt.NewThread()
	defer th.Close()
	u := th.Normal()
	_, err := u.Wait(42) // nobody ever sends tag 42
	var te *TimeoutError
	if !errors.As(err, &te) {
		t.Fatalf("Wait = %v, want *TimeoutError", err)
	}
	if te.FlightRecord() == "" {
		t.Fatal("timeout has no flight record despite an armed tracer")
	}
	if !strings.Contains(te.FlightRecord(), "wait") {
		t.Fatalf("flight record does not show the blocked wait:\n%s", te.FlightRecord())
	}
}

// TestWaitHistogramObservesBlockedWaits checks that RegisterMetrics arms
// the wait-latency histogram and that a satisfied blocking wait lands one
// sample derived from the admit stamp.
func TestWaitHistogramObservesBlockedWaits(t *testing.T) {
	rt := testRT(t, []string{"blue"}, map[int]func(w *Worker, args []val) val{
		1: func(w *Worker, args []val) val {
			time.Sleep(2 * time.Millisecond)
			w.SendCont(0, 5, iv(1014))
			return val{}
		},
	})
	reg := obs.NewRegistry()
	rt.RegisterMetrics(reg)
	th := rt.NewThread()
	defer th.Close()
	u := th.Normal()
	u.Spawn(1, 1, nil)
	if got, err := u.Wait(5); err != nil || got != iv(1014) {
		t.Fatalf("Wait = %v, %v", got, err)
	}
	snap := reg.Snapshot()
	if snap["prt.wait_block_us.count"] != 1 {
		t.Fatalf("wait histogram count = %d, want 1", snap["prt.wait_block_us.count"])
	}
	// The chunk's sample lands after its body returns, which can be after
	// the cont arrived: join the chunk before reading it.
	if _, err := u.JoinOne(); err != nil {
		t.Fatalf("JoinOne: %v", err)
	}
	snap = reg.Snapshot()
	if snap["prt.chunk_exec_us.count"] != 1 {
		t.Fatalf("chunk histogram count = %d, want 1", snap["prt.chunk_exec_us.count"])
	}
}

// TestWaitHistogramCountsEveryWait: a cont already buffered when its Wait
// starts and one that arrives while the Wait blocks each add one sample,
// so the count is the number of waits, not of waits that happened to
// block. The buffered one is observed as 0 us.
func TestWaitHistogramCountsEveryWait(t *testing.T) {
	rt := testRT(t, []string{"blue"}, map[int]func(w *Worker, args []val) val{
		1: func(w *Worker, args []val) val {
			time.Sleep(2 * time.Millisecond)
			w.SendCont(0, 6, iv(2))
			return val{}
		},
	})
	reg := obs.NewRegistry()
	rt.RegisterMetrics(reg)
	th := rt.NewThread()
	defer th.Close()
	u := th.Normal()
	u.SendCont(0, 5, iv(1)) // buffered before its Wait
	u.Spawn(1, 1, nil)
	if got, err := u.Wait(6); err != nil || got != iv(2) {
		t.Fatalf("Wait(6) = %v, %v", got, err)
	}
	blocked := reg.Snapshot()
	if blocked["prt.wait_block_us.count"] != 1 {
		t.Fatalf("after the blocking wait, count = %d, want 1", blocked["prt.wait_block_us.count"])
	}
	if got, err := u.Wait(5); err != nil || got != iv(1) {
		t.Fatalf("Wait(5) = %v, %v", got, err)
	}
	snap := reg.Snapshot()
	if snap["prt.wait_block_us.count"] != 2 || snap["prt.wait_block_us.sum"] != blocked["prt.wait_block_us.sum"] {
		t.Fatalf("after the buffered wait, count = %d, sum = %d; want 2 and an unchanged %d",
			snap["prt.wait_block_us.count"], snap["prt.wait_block_us.sum"], blocked["prt.wait_block_us.sum"])
	}
	if _, err := u.JoinOne(); err != nil {
		t.Fatalf("JoinOne: %v", err)
	}
	if n := reg.Snapshot()["prt.wait_block_us.count"]; n != 2 {
		t.Errorf("a join was observed as a wait: count = %d, want 2", n)
	}
}

// TestHopHistogramStampsOnlyWhenArmed: with metrics registered, the
// first message of each stream and every 8th after it record one
// send-to-admit hop; without metrics, sends carry no clock stamp at all.
func TestHopHistogramStampsOnlyWhenArmed(t *testing.T) {
	rt := testRT(t, []string{"blue"}, map[int]func(w *Worker, args []val) val{
		1: func(w *Worker, args []val) val { return iv(7) },
	})
	th := rt.NewThread()
	defer th.Close()
	u := th.Normal()
	msg := Message{Kind: MsgCont, Tag: 3}
	rt.send(u, u, msg, nil)
	if got, ok := u.DequeueRaw(); !ok || got.sentNS != 0 {
		t.Fatalf("unarmed send stamped sentNS = %d", got.sentNS)
	}
	th.AdvanceEpoch() // the raw dequeue took a stream position: start over
	reg := obs.NewRegistry()
	rt.RegisterMetrics(reg)
	for i := 0; i < 3; i++ {
		th.AdvanceEpoch() // new streams, as every Call opens
		u.Spawn(1, 1, nil)
		if _, err := u.Join(1); err != nil {
			t.Fatalf("Join: %v", err)
		}
	}
	if n, _, _ := rt.hHopUS.Stats(); n != 6 { // a spawn and a Done per round
		t.Errorf("prt.queue.hop_us recorded %d hops over 3 round trips, want 6", n)
	}
	for i := 0; i < 16; i++ { // stream positions 2..17 of the Done stream
		u.SendCont(0, 5, iv(i))
		if _, err := u.Wait(5); err != nil {
			t.Fatalf("Wait: %v", err)
		}
	}
	if n, _, _ := rt.hHopUS.Stats(); n != 8 { // positions 9 and 17
		t.Errorf("prt.queue.hop_us recorded %d hops after 16 more, want 8", n)
	}
}
