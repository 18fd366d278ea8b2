package prt

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"privagic/internal/sgx"
)

// testRT builds a runtime whose Exec is a dispatch table of chunk bodies.
func testRT(t *testing.T, colors []string, chunks map[int]func(w *Worker, args []any) any) *Runtime {
	t.Helper()
	rt := New(sgx.MachineB(), colors, func(w *Worker, chunkID int, args []any) any {
		fn := chunks[chunkID]
		if fn == nil {
			t.Errorf("spawned unknown chunk %d", chunkID)
			return nil
		}
		return fn(w, args)
	})
	return rt
}

// TestSpawnJoin checks the basic §7.3.2 protocol: a normal-mode caller
// spawns a chunk into an enclave worker and joins its completion.
func TestSpawnJoin(t *testing.T) {
	var ran atomic.Int32
	rt := testRT(t, []string{"blue"}, map[int]func(w *Worker, args []any) any{
		1: func(w *Worker, args []any) any {
			ran.Add(1)
			return args[0].(int) * 2
		},
	})
	th := rt.NewThread()
	defer th.Close()
	u := th.Normal()
	u.Spawn(1, 1, []any{21}, true)
	got, err := u.Join(1)
	if err != nil {
		t.Fatalf("Join: %v", err)
	}
	if got != 42 {
		t.Errorf("Join = %v, want 42", got)
	}
	if ran.Load() != 1 {
		t.Errorf("chunk ran %d times", ran.Load())
	}
	if u.Mode != sgx.Unsafe {
		t.Error("normal context has wrong mode")
	}
	if th.Worker(1).Mode != 1 {
		t.Error("enclave worker has wrong mode")
	}
}

// TestContDelivery checks cont message payload delivery with tags.
func TestContDelivery(t *testing.T) {
	rt := testRT(t, []string{"blue"}, map[int]func(w *Worker, args []any) any{
		1: func(w *Worker, args []any) any {
			// The enclave chunk sends a tagged value back to normal
			// mode, then returns.
			w.SendCont(0, 7, "payload")
			return nil
		},
	})
	th := rt.NewThread()
	defer th.Close()
	u := th.Normal()
	u.Spawn(1, 1, nil, true)
	if got, err := u.Wait(7); err != nil || got != "payload" {
		t.Errorf("Wait(7) = %v, %v", got, err)
	}
	if _, err := u.Join(1); err != nil {
		t.Fatalf("Join: %v", err)
	}
}

// TestTaggedWaitsAreOrderFree reproduces the race the tags exist for: two
// producers send differently-tagged conts to the same consumer in an
// arbitrary order; each wait still receives its own value.
func TestTaggedWaitsAreOrderFree(t *testing.T) {
	rt := testRT(t, []string{"blue", "red"}, map[int]func(w *Worker, args []any) any{
		1: func(w *Worker, args []any) any { // blue
			w.SendCont(0, 100, "from-blue")
			return nil
		},
		2: func(w *Worker, args []any) any { // red
			w.SendCont(0, 200, "from-red")
			return nil
		},
	})
	for i := 0; i < 50; i++ {
		th := rt.NewThread()
		u := th.Normal()
		u.Spawn(1, 1, nil, true)
		u.Spawn(2, 2, nil, true)
		// Consume in the opposite order of a possible arrival order.
		red, errR := u.Wait(200)
		blue, errB := u.Wait(100)
		if errR != nil || errB != nil {
			t.Fatalf("Wait errors: %v / %v", errR, errB)
		}
		if red != "from-red" || blue != "from-blue" {
			t.Fatalf("tag routing failed: %v / %v", red, blue)
		}
		if _, err := u.Join(2); err != nil {
			t.Fatalf("Join: %v", err)
		}
		th.Close()
	}
}

// TestWaitExecutesSpawns checks the Figure 7 semantics: a worker blocked in
// wait() runs spawn messages that arrive in the meantime (main.U runs g.U
// between its two waits).
func TestWaitExecutesSpawns(t *testing.T) {
	var nested atomic.Int32
	var rt *Runtime
	rt = testRT(t, []string{"blue"}, map[int]func(w *Worker, args []any) any{
		1: func(w *Worker, args []any) any {
			// Enclave chunk: first make normal mode run a nested
			// chunk, then unblock it.
			w.Thread.Normal().enqueueSpawnForTest(2, w)
			w.SendCont(0, 5, 99)
			return nil
		},
		2: func(w *Worker, args []any) any {
			nested.Add(1)
			return nil
		},
	})
	th := rt.NewThread()
	defer th.Close()
	u := th.Normal()
	u.Spawn(1, 1, nil, true)
	if got, err := u.Wait(5); err != nil || got != 99 {
		t.Errorf("Wait = %v, %v", got, err)
	}
	if nested.Load() != 1 {
		t.Error("nested spawn did not run inside Wait")
	}
	if _, err := u.Join(1); err != nil {
		t.Fatalf("Join: %v", err)
	}
}

// TestContBeforeSpawnIsBuffered checks that an idle worker keeps a cont
// that overtakes the spawn of the chunk waiting for it: the sender's
// stream order puts the cont first, and the chunk must still find it.
func TestContBeforeSpawnIsBuffered(t *testing.T) {
	rt := testRT(t, []string{"blue"}, map[int]func(w *Worker, args []any) any{
		1: func(w *Worker, args []any) any {
			v, err := w.Wait(7)
			if err != nil {
				return err
			}
			return v
		},
	})
	rt.Supervise = Supervision{WaitTimeout: 50 * time.Millisecond}
	th := rt.NewThread()
	defer th.Close()
	u := th.Normal()
	u.SendCont(1, 7, 5)
	u.Spawn(1, 1, nil, true)
	if got, err := u.Join(1); err != nil || got != 5 {
		t.Fatalf("Join = %v, %v; want 5 from the early cont", got, err)
	}
}

// TestWaitFindsContBufferedByNestedWait checks that a wait resumes from
// the buffer after running a spawn: the nested chunk's own wait consumed
// and buffered the outer wait's cont while it blocked.
func TestWaitFindsContBufferedByNestedWait(t *testing.T) {
	rt := testRT(t, []string{"blue"}, map[int]func(w *Worker, args []any) any{
		1: func(w *Worker, args []any) any {
			w.Thread.Normal().enqueueSpawnForTest(2, w)
			w.SendCont(0, 1, "outer")
			w.SendCont(0, 2, "inner")
			return nil
		},
		2: func(w *Worker, args []any) any {
			v, err := w.Wait(2)
			if err != nil || v != "inner" {
				t.Errorf("nested Wait(2) = %v, %v", v, err)
			}
			return nil
		},
	})
	rt.Supervise = Supervision{WaitTimeout: 50 * time.Millisecond}
	th := rt.NewThread()
	defer th.Close()
	u := th.Normal()
	u.Spawn(1, 1, nil, true)
	if got, err := u.Wait(1); err != nil || got != "outer" {
		t.Fatalf("Wait(1) = %v, %v; want the cont the nested wait buffered", got, err)
	}
	if _, err := u.Join(1); err != nil {
		t.Fatalf("Join: %v", err)
	}
}

// enqueueSpawnForTest lets a test route a spawn at a specific worker.
func (w *Worker) enqueueSpawnForTest(chunkID int, from *Worker) {
	w.Thread.RT.send(from, w, Message{Kind: MsgSpawn, ChunkID: chunkID, ReplyTo: nil})
}

// TestJoinOneCarriesSender checks the From field the interface versions
// use to pick the chunk carrying the return color.
func TestJoinOneCarriesSender(t *testing.T) {
	rt := testRT(t, []string{"blue", "red"}, map[int]func(w *Worker, args []any) any{
		1: func(w *Worker, args []any) any { return "blue-result" },
		2: func(w *Worker, args []any) any { return "red-result" },
	})
	th := rt.NewThread()
	defer th.Close()
	u := th.Normal()
	u.Spawn(1, 1, nil, true)
	u.Spawn(2, 2, nil, true)
	got := map[int]any{}
	for i := 0; i < 2; i++ {
		msg, err := u.JoinOne()
		if err != nil {
			t.Fatalf("JoinOne: %v", err)
		}
		got[msg.From] = msg.Payload
	}
	if got[1] != "blue-result" || got[2] != "red-result" {
		t.Errorf("JoinOne senders wrong: %v", got)
	}
}

// TestMessageCostAccounting checks that every hop charges the meter.
func TestMessageCostAccounting(t *testing.T) {
	rt := testRT(t, []string{"blue"}, map[int]func(w *Worker, args []any) any{
		1: func(w *Worker, args []any) any { return nil },
	})
	th := rt.NewThread()
	defer th.Close()
	before, _, _, _ := rt.Meter.Counts()
	_ = before
	_, msgBefore, _, _ := rt.Meter.Counts()
	u := th.Normal()
	u.Spawn(1, 1, nil, true)
	if _, err := u.Join(1); err != nil {
		t.Fatalf("Join: %v", err)
	}
	_, msgAfter, _, _ := rt.Meter.Counts()
	if msgAfter-msgBefore != 2 { // spawn + done
		t.Errorf("messages charged = %d, want 2", msgAfter-msgBefore)
	}
}

// TestParallelThreads checks thread isolation: each application thread has
// its own workers and queues (paper §8: one worker per thread per enclave).
func TestParallelThreads(t *testing.T) {
	rt := testRT(t, []string{"blue"}, map[int]func(w *Worker, args []any) any{
		1: func(w *Worker, args []any) any { return args[0] },
	})
	done := make(chan bool, 8)
	for i := 0; i < 8; i++ {
		go func(i int) {
			th := rt.NewThread()
			defer th.Close()
			u := th.Normal()
			for j := 0; j < 100; j++ {
				u.Spawn(1, 1, []any{i*1000 + j}, true)
				got, err := u.Join(1)
				if err != nil {
					t.Errorf("thread %d: Join error: %v", i, err)
					done <- false
					return
				}
				if got != i*1000+j {
					t.Errorf("thread %d: Join = %v", i, got)
					done <- false
					return
				}
			}
			done <- true
		}(i)
	}
	for i := 0; i < 8; i++ {
		if !<-done {
			t.Fatal("a thread failed")
		}
	}
}

// TestSpawnWakesParkedWorker: an idle enclave worker parks on its empty
// queue, and a spawn sent after it parked still runs and completes.
func TestSpawnWakesParkedWorker(t *testing.T) {
	rt := testRT(t, []string{"blue"}, map[int]func(w *Worker, args []any) any{
		1: func(w *Worker, args []any) any { return args[0].(int) + 1 },
	})
	th := rt.NewThread()
	defer th.Close()
	q := th.Worker(1).q
	deadline := time.Now().Add(10 * time.Second)
	for q.Parks() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("idle enclave worker never parked")
		}
		runtime.Gosched()
	}
	u := th.Normal()
	u.Spawn(1, 1, []any{41}, true)
	got, err := u.JoinTimeout(1, 10*time.Second)
	if err != nil {
		t.Fatalf("Join: %v", err)
	}
	if got != 42 {
		t.Errorf("Join = %v, want 42", got)
	}
}
