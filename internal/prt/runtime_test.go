package prt

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"privagic/internal/sgx"
	"privagic/internal/value"
)

// testRT builds a runtime whose Exec is a dispatch table of chunk bodies.
func testRT(t *testing.T, colors []string, chunks map[int]func(w *Worker, args []val) val) *Runtime {
	t.Helper()
	rt := New(sgx.MachineB(), colors, func(w *Worker, chunkID int, args []val) (val, error) {
		fn := chunks[chunkID]
		if fn == nil {
			t.Errorf("spawned unknown chunk %d", chunkID)
			return val{}, nil
		}
		return fn(w, args), nil
	})
	return rt
}

// TestSpawnJoin checks the basic §7.3.2 protocol: a normal-mode caller
// spawns a chunk into an enclave worker and joins its completion.
func TestSpawnJoin(t *testing.T) {
	var ran atomic.Int32
	rt := testRT(t, []string{"blue"}, map[int]func(w *Worker, args []val) val{
		1: func(w *Worker, args []val) val {
			ran.Add(1)
			return iv(args[0].I * 2)
		},
	})
	th := rt.NewThread()
	defer th.Close()
	u := th.Normal()
	u.Spawn(1, 1, []val{iv(21)})
	got, err := u.Join(1)
	if err != nil {
		t.Fatalf("Join: %v", err)
	}
	if got != iv(42) {
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
	rt := testRT(t, []string{"blue"}, map[int]func(w *Worker, args []val) val{
		1: func(w *Worker, args []val) val {
			// The enclave chunk sends a tagged value back to normal
			// mode, then returns.
			w.SendCont(0, 7, iv(1001))
			return val{}
		},
	})
	th := rt.NewThread()
	defer th.Close()
	u := th.Normal()
	u.Spawn(1, 1, nil)
	if got, err := u.Wait(7); err != nil || got != iv(1001) {
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
	rt := testRT(t, []string{"blue", "red"}, map[int]func(w *Worker, args []val) val{
		1: func(w *Worker, args []val) val { // blue
			w.SendCont(0, 100, iv(1002))
			return val{}
		},
		2: func(w *Worker, args []val) val { // red
			w.SendCont(0, 200, iv(1003))
			return val{}
		},
	})
	for i := 0; i < 50; i++ {
		th := rt.NewThread()
		u := th.Normal()
		u.Spawn(1, 1, nil)
		u.Spawn(2, 2, nil)
		// Consume in the opposite order of a possible arrival order.
		red, errR := u.Wait(200)
		blue, errB := u.Wait(100)
		if errR != nil || errB != nil {
			t.Fatalf("Wait errors: %v / %v", errR, errB)
		}
		if red != iv(1003) || blue != iv(1002) {
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
	rt = testRT(t, []string{"blue"}, map[int]func(w *Worker, args []val) val{
		1: func(w *Worker, args []val) val {
			// Enclave chunk: first make normal mode run a nested
			// chunk, then unblock it.
			w.Thread.Normal().enqueueSpawnForTest(2, w)
			w.SendCont(0, 5, iv(99))
			return val{}
		},
		2: func(w *Worker, args []val) val {
			nested.Add(1)
			return val{}
		},
	})
	th := rt.NewThread()
	defer th.Close()
	u := th.Normal()
	u.Spawn(1, 1, nil)
	if got, err := u.Wait(5); err != nil || got != iv(99) {
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
	rt := testRT(t, []string{"blue"}, map[int]func(w *Worker, args []val) val{
		1: func(w *Worker, args []val) val {
			v, err := w.Wait(7)
			if err != nil {
				return iv(-1) // a failed wait cannot answer 5
			}
			return v
		},
	})
	rt.WaitTimeout = 50 * time.Millisecond
	th := rt.NewThread()
	defer th.Close()
	u := th.Normal()
	u.SendCont(1, 7, iv(5))
	u.Spawn(1, 1, nil)
	if got, err := u.Join(1); err != nil || got != iv(5) {
		t.Fatalf("Join = %v, %v; want 5 from the early cont", got, err)
	}
}

// TestWaitFindsContBufferedByNestedWait checks that a wait resumes from
// the buffer after running a spawn: the nested chunk's own wait consumed
// and buffered the outer wait's cont while it blocked.
func TestWaitFindsContBufferedByNestedWait(t *testing.T) {
	rt := testRT(t, []string{"blue"}, map[int]func(w *Worker, args []val) val{
		1: func(w *Worker, args []val) val {
			w.Thread.Normal().enqueueSpawnForTest(2, w)
			w.SendCont(0, 1, iv(1004))
			w.SendCont(0, 2, iv(1005))
			return val{}
		},
		2: func(w *Worker, args []val) val {
			v, err := w.Wait(2)
			if err != nil || v != iv(1005) {
				t.Errorf("nested Wait(2) = %v, %v", v, err)
			}
			return val{}
		},
	})
	rt.WaitTimeout = 50 * time.Millisecond
	th := rt.NewThread()
	defer th.Close()
	u := th.Normal()
	u.Spawn(1, 1, nil)
	if got, err := u.Wait(1); err != nil || got != iv(1004) {
		t.Fatalf("Wait(1) = %v, %v; want the cont the nested wait buffered", got, err)
	}
	if _, err := u.Join(1); err != nil {
		t.Fatalf("Join: %v", err)
	}
}

// enqueueSpawnForTest lets a test route a spawn at a specific worker.
func (w *Worker) enqueueSpawnForTest(chunkID int, from *Worker) {
	w.Thread.RT.send(from, w, Message{Kind: MsgSpawn, ChunkID: chunkID, ReplyTo: nil}, nil)
}

// TestJoinOneCarriesSender checks the From field the interface versions
// use to pick the chunk carrying the return color.
func TestJoinOneCarriesSender(t *testing.T) {
	rt := testRT(t, []string{"blue", "red"}, map[int]func(w *Worker, args []val) val{
		1: func(w *Worker, args []val) val { return iv(1006) },
		2: func(w *Worker, args []val) val { return iv(1007) },
	})
	th := rt.NewThread()
	defer th.Close()
	u := th.Normal()
	u.Spawn(1, 1, nil)
	u.Spawn(2, 2, nil)
	got := map[int]any{}
	for i := 0; i < 2; i++ {
		msg, err := u.JoinOne()
		if err != nil {
			t.Fatalf("JoinOne: %v", err)
		}
		got[msg.From] = msg.Payload
	}
	if got[1] != iv(1006) || got[2] != iv(1007) {
		t.Errorf("JoinOne senders wrong: %v", got)
	}
}

// TestMessageCostAccounting checks that every hop charges the meter.
func TestMessageCostAccounting(t *testing.T) {
	rt := testRT(t, []string{"blue"}, map[int]func(w *Worker, args []val) val{
		1: func(w *Worker, args []val) val { return val{} },
	})
	th := rt.NewThread()
	defer th.Close()
	before, _, _, _ := rt.Meter.Counts()
	_ = before
	_, msgBefore, _, _ := rt.Meter.Counts()
	u := th.Normal()
	u.Spawn(1, 1, nil)
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
	rt := testRT(t, []string{"blue"}, map[int]func(w *Worker, args []val) val{
		1: func(w *Worker, args []val) val { return args[0] },
	})
	done := make(chan bool, 8)
	for i := 0; i < 8; i++ {
		go func(i int) {
			th := rt.NewThread()
			defer th.Close()
			u := th.Normal()
			for j := 0; j < 100; j++ {
				u.Spawn(1, 1, []val{iv(i*1000 + j)})
				got, err := u.Join(1)
				if err != nil {
					t.Errorf("thread %d: Join error: %v", i, err)
					done <- false
					return
				}
				if got != iv(i*1000+j) {
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
	rt := testRT(t, []string{"blue"}, map[int]func(w *Worker, args []val) val{
		1: func(w *Worker, args []val) val { return iv(args[0].I + 1) },
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
	u.Spawn(1, 1, []val{iv(41)})
	got, err := u.JoinTimeout(1, 10*time.Second)
	if err != nil {
		t.Fatalf("Join: %v", err)
	}
	if got != iv(42) {
		t.Errorf("Join = %v, want 42", got)
	}
}

// val and iv keep the tests' payloads short.
type val = value.Val

func iv[T ~int | ~int64](x T) val { return value.IV(int64(x)) }

// TestWarmHopsAllocateNothing: with recovery off, a warm spawn→Done round
// trip and a warm cont hop allocate nothing, on either side: queue nodes
// are recycled through the senders' caches, and arguments and payloads
// travel as typed values, not boxes.
func TestWarmHopsAllocateNothing(t *testing.T) {
	rt := testRT(t, []string{"blue"}, map[int]func(w *Worker, args []val) val{
		1: func(w *Worker, args []val) val { return iv(args[0].I + 1) },
	})
	th := rt.NewThread()
	defer th.Close()
	u := th.Normal()
	args := []val{iv(41)}
	roundTrip := func() {
		u.Spawn(1, 1, args)
		if got, err := u.Join(1); err != nil || got != iv(42) {
			t.Fatalf("Join = %v, %v, want 42", got, err)
		}
	}
	contHop := func() {
		u.SendCont(0, 5, iv(7)) // self-delivery: 0 is the app thread itself
		if got, err := u.Wait(5); err != nil || got != iv(7) {
			t.Fatalf("Wait = %v, %v, want 7", got, err)
		}
	}
	for i := 0; i < 4; i++ { // warm the caches and the stream counters
		roundTrip()
		contHop()
	}
	if allocs := testing.AllocsPerRun(200, roundTrip); allocs != 0 {
		t.Errorf("a warm spawn→Done round trip allocates %.2f objects, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(200, contHop); allocs != 0 {
		t.Errorf("a warm cont hop allocates %.2f objects, want 0", allocs)
	}
}

// TestStrSeqTwoEpochSlots pins the sender-side stream counters: epochs e
// and e-1 count independently, a newer epoch takes over the older slot,
// a straggler older than both evicts nothing, and a warm stamp
// allocates nothing.
func TestStrSeqTwoEpochSlots(t *testing.T) {
	th := &Thread{nw: 2}
	steps := []struct {
		epoch uint64
		to    int
		want  uint64
	}{
		{5, 1, 1}, {5, 1, 2}, {5, 0, 1},
		{6, 1, 1}, {5, 1, 3}, // e-1 keeps counting beside e
		{4, 1, 0}, {6, 1, 2}, {5, 1, 4}, // the straggler evicted neither
		{7, 1, 1}, {6, 1, 3}, // 7 took over 5's slot, not 6's
		{5, 1, 0},
	}
	for i, s := range steps {
		if got := th.nextStrSeq(s.epoch, s.to); got != s.want {
			t.Fatalf("step %d: nextStrSeq(%d, %d) = %d, want %d", i, s.epoch, s.to, got, s.want)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { th.nextStrSeq(7, 0) }); allocs != 0 {
		t.Errorf("a warm stamp allocates %.1f objects, want 0", allocs)
	}
}
