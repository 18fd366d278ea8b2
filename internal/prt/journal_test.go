package prt

import (
	"encoding/binary"
	"errors"
	"slices"
	"sync/atomic"
	"testing"
	"time"
)

// These tests pin the load journal: each attempt keeps its own load log,
// publishes it to the spawn's entry before every send and when it aborts,
// and a replay is served the published log in place of live memory.

// journaledLoad reads mem the way an embedder's checked load does: the
// live value, then threaded through the executing attempt's load log.
func journaledLoad(w *Worker, mem *atomic.Int64) int64 {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(mem.Load()))
	w.JournalLoad(buf[:])
	return int64(binary.LittleEndian.Uint64(buf[:]))
}

// pair packs two small integers into one value, for chunks that report
// two loads.
func pair(a, b int64) val { return iv(a<<32 | b) }

// TestReplayServedCrashedAttemptLoads: a chunk that loads, changes the
// memory it loaded and then crashes must, on replay, be served the bytes
// the crashed attempt read, not the changed memory.
func TestReplayServedCrashedAttemptLoads(t *testing.T) {
	var mem atomic.Int64
	mem.Store(7)
	var execs atomic.Int32
	rt := testRT(t, []string{"blue"}, map[int]func(w *Worker, args []val) val{
		1: func(w *Worker, args []val) val {
			a := journaledLoad(w, &mem)
			b := journaledLoad(w, &mem)
			if execs.Add(1) == 1 {
				mem.Store(99) // an effect the replay must not observe
				panic("crash after loading")
			}
			return iv(a*100 + b)
		},
	})
	rt.ReplayBudget = 3
	th := rt.NewThread()
	defer th.Close()
	u := th.Normal()
	u.Spawn(1, 1, nil)
	got, err := u.JoinTimeout(1, 5*time.Second)
	if err != nil {
		t.Fatalf("Join: %v", err)
	}
	if got != iv(707) {
		t.Errorf("replay returned %v, want 707 (the crashed attempt's loads)", got)
	}
	if n := execs.Load(); n != 2 {
		t.Errorf("chunk executed %d times, want 2", n)
	}
}

// TestNestedSpawnKeepsOuterLoadLog: a spawn that runs nested inside a
// chunk's wait on the same worker loads memory of its own; the outer
// chunk's replay must still be served exactly the outer attempt's loads,
// from before and after the nested spawn.
func TestNestedSpawnKeepsOuterLoadLog(t *testing.T) {
	var mem atomic.Int64
	var outerExecs atomic.Int32
	rt := testRT(t, []string{"blue"}, map[int]func(w *Worker, args []val) val{
		1: func(w *Worker, args []val) val { // outer
			a := journaledLoad(w, &mem)
			if _, err := w.WaitTimeout(5, 2*time.Second); err != nil {
				t.Errorf("outer Wait(5): %v", err)
				return val{}
			}
			b := journaledLoad(w, &mem)
			if outerExecs.Add(1) == 1 {
				mem.Store(-1)
				panic("outer crashes after the nested spawn")
			}
			return pair(a, b)
		},
		2: func(w *Worker, args []val) val { // nested, runs inside outer's wait
			v := journaledLoad(w, &mem)
			journaledLoad(w, &mem)
			mem.Store(20)
			return iv(v)
		},
	})
	rt.ReplayBudget = 3
	th := rt.NewThread()
	defer th.Close()
	u := th.Normal()
	mem.Store(10)
	u.Spawn(1, 1, nil)
	u.Spawn(1, 2, nil)
	done, err := u.JoinOneTimeout(5 * time.Second)
	if err != nil || done.ChunkID != 2 {
		t.Fatalf("JoinOne = chunk %d, %v; want the nested chunk 2", done.ChunkID, err)
	}
	u.SendCont(1, 5, val{})
	got, err := u.JoinTimeout(1, 5*time.Second)
	if err != nil {
		t.Fatalf("Join outer: %v", err)
	}
	if want := pair(10, 20); got != want {
		t.Errorf("outer replay was served %v, want %v", got, want)
	}
	if n := outerExecs.Load(); n != 2 {
		t.Errorf("outer executed %d times, want 2", n)
	}
}

// TestStaleAttemptCannotMoveReplayLog: an attempt still running after
// its Call timed out keeps loading and sending, both while the next
// Call's spawn of the same chunk runs nested in its wait and after that
// spawn committed. Neither that spawn nor the one of the Call after it
// is served the stale attempt's loads or has its sends suppressed
// against the stale attempt's: a stale attempt never publishes. Run
// under -race, this also checks that the attempts share no unguarded
// state.
func TestStaleAttemptCannotMoveReplayLog(t *testing.T) {
	var mem atomic.Int64
	var execs atomic.Int32
	staleDone := make(chan struct{})
	rt := testRT(t, []string{"blue"}, map[int]func(w *Worker, args []val) val{
		1: func(w *Worker, args []val) val {
			a := journaledLoad(w, &mem)
			w.SendCont(0, 7, iv(a))
			if execs.Add(1) > 1 {
				return iv(a)
			}
			// The stale attempt: its Call times out while it waits, and
			// the next Call's spawn runs inside this wait.
			defer close(staleDone)
			if _, err := w.WaitTimeout(5, 10*time.Second); err != nil {
				t.Errorf("stale attempt Wait(5): %v", err)
			}
			for i := 0; i < 50; i++ {
				journaledLoad(w, &mem)
				w.SendCont(0, 8, iv(i))
			}
			return iv(-1)
		},
	})
	rt.ReplayBudget = 3
	rt.WaitTimeout = 50 * time.Millisecond
	th := rt.NewThread()
	defer th.Close()
	u := th.Normal()
	call := func(v int64) (val, error) {
		th.AdvanceEpoch()
		mem.Store(v)
		u.Spawn(1, 1, nil)
		if got, err := u.Wait(7); err != nil || got != iv(v) {
			t.Fatalf("Wait(7) = %v, %v; want %d", got, err, v)
		}
		return u.Join(1)
	}
	if _, err := call(100); !errors.Is(err, ErrWaitTimeout) {
		t.Fatalf("Call 1 Join = %v, want a timeout: its chunk is waiting", err)
	}
	if got, err := call(200); err != nil || got != iv(200) {
		t.Fatalf("Call 2 Join = %v, %v; want 200", got, err)
	}
	u.SendCont(1, 5, val{}) // the stale attempt resumes
	select {
	case <-staleDone:
	case <-time.After(10 * time.Second):
		t.Fatal("the stale attempt never finished")
	}
	if got, err := call(300); err != nil || got != iv(300) {
		t.Fatalf("Call 3 Join = %v, %v; want 300", got, err)
	}
	if _, err := u.WaitTimeout(8, 60*time.Millisecond); !errors.Is(err, ErrWaitTimeout) {
		t.Errorf("a stale attempt's cont was admitted: Wait(8) = %v, want timeout", err)
	}
	if rs := rt.RecoveryStats(); rs.SpawnsJournaled != 3 || rs.Commits != 2 {
		t.Errorf("journaled %d, commits %d; want 3 and 2", rs.SpawnsJournaled, rs.Commits)
	}
}

// TestJournaledLoadAllocationFree: once an attempt's load log has room, a
// journaled load allocates nothing and takes no lock.
func TestJournaledLoadAllocationFree(t *testing.T) {
	rec := &spawnRec{}
	w := &Worker{}
	w.att = rec.beginAttempt(logSize{loads: 1024, bytes: 8 * 1024}, false)
	buf := make([]byte, 8)
	if allocs := testing.AllocsPerRun(1000, func() { w.JournalLoad(buf) }); allocs != 0 {
		t.Errorf("a journaled load allocates %.1f times, want 0", allocs)
	}
	if got := w.att.loads.size(); got != (logSize{1001, 8008}) {
		t.Errorf("load log holds %+v, want 1001 loads of 8 bytes", got)
	}
}

// TestWarmJournaledHopsAllocateNothing is TestWarmHopsAllocateNothing
// with recovery armed: a warm journaled spawn→Done round trip, whose
// chunk journals a load and consumes a cont, and a warm cont hop
// allocate nothing. The committed spawn's record, load log and cont
// cache are recycled for the next spawn.
func TestWarmJournaledHopsAllocateNothing(t *testing.T) {
	var mem atomic.Int64
	mem.Store(40)
	rt := testRT(t, []string{"blue"}, map[int]func(w *Worker, args []val) val{
		1: func(w *Worker, args []val) val {
			a := journaledLoad(w, &mem)
			b, err := w.Wait(5)
			if err != nil {
				t.Errorf("Wait(5): %v", err)
			}
			return iv(a + b.I + args[0].I)
		},
	})
	rt.ReplayBudget = 3
	th := rt.NewThread()
	defer th.Close()
	u := th.Normal()
	args := []val{iv(1)}
	roundTrip := func() {
		u.Spawn(1, 1, args)
		u.SendCont(1, 5, iv(1))
		if got, err := u.Join(1); err != nil || got != iv(42) {
			t.Fatalf("Join = %v, %v, want 42", got, err)
		}
	}
	contHop := func() {
		u.SendCont(0, 6, iv(7))
		if got, err := u.Wait(6); err != nil || got != iv(7) {
			t.Fatalf("Wait = %v, %v, want 7", got, err)
		}
	}
	for i := 0; i < 4; i++ {
		roundTrip()
		contHop()
	}
	if allocs := testing.AllocsPerRun(200, roundTrip); allocs != 0 {
		t.Errorf("a warm journaled spawn→Done round trip allocates %.2f objects, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(200, contHop); allocs != 0 {
		t.Errorf("a warm cont hop allocates %.2f objects, want 0", allocs)
	}
	if rs := rt.RecoveryStats(); rs.SpawnsJournaled != rs.Commits || rs.Commits < 200 {
		t.Errorf("journaled %d spawns, committed %d; want equal and at least 200", rs.SpawnsJournaled, rs.Commits)
	}
}

// freeHolds reports whether the journal's free list holds rec.
func freeHolds(rt *Runtime, rec *spawnRec) bool {
	rt.jr.mu.Lock()
	defer rt.jr.mu.Unlock()
	return slices.Contains(rt.jr.free, rec)
}

// TestRecycledRecordsKeepSmallLogs: a committed spawn's record is
// recycled, and its next spawn reuses the record's load log in place; a
// record whose load log is past the retention caps is dropped.
func TestRecycledRecordsKeepSmallLogs(t *testing.T) {
	rt := testRT(t, []string{"blue"}, map[int]func(w *Worker, args []val) val{
		1: func(w *Worker, args []val) val {
			var mem atomic.Int64
			for i := int64(0); i < args[0].I; i++ {
				journaledLoad(w, &mem)
			}
			return val{}
		},
	})
	rt.ReplayBudget = 3
	th := rt.NewThread()
	defer th.Close()
	u := th.Normal()
	spawn := func(loads int) (*spawnRec, bool) {
		u.Spawn(1, 1, []val{iv(loads)})
		rec := rt.lookupSpawn(th, 1, 1, th.epoch.Load())
		if _, err := u.JoinTimeout(1, 5*time.Second); err != nil {
			t.Fatalf("Join: %v", err)
		}
		return rec, freeHolds(rt, rec)
	}
	small, kept := spawn(16)
	if !kept {
		t.Fatal("a spawn of 16 loads that ran once was not recycled")
	}
	buf := small.loads.buf[:1]
	if again, _ := spawn(16); again != small || &again.loads.buf[:1][0] != &buf[0] {
		t.Errorf("the next spawn did not reuse the recycled record and its load log")
	}
	if big, kept := spawn(logRetainBytes/8 + 1); kept {
		t.Errorf("a record with a load log of %d bytes and %d loads, past the caps of %d and %d, was kept",
			cap(big.loads.buf), cap(big.loads.lens), logRetainBytes, logRetainLoads)
	}
}

// TestReplayedRecordNotReused: the record of a spawn that crashed and was
// replayed is never recycled, even though its replay committed.
func TestReplayedRecordNotReused(t *testing.T) {
	var execs atomic.Int32
	rt := testRT(t, []string{"blue"}, map[int]func(w *Worker, args []val) val{
		1: func(w *Worker, args []val) val {
			if execs.Add(1) == 1 {
				panic("the first attempt crashes")
			}
			return iv(1)
		},
	})
	rt.ReplayBudget = 3
	th := rt.NewThread()
	defer th.Close()
	u := th.Normal()
	u.Spawn(1, 1, nil)
	rec := rt.lookupSpawn(th, 1, 1, th.epoch.Load())
	if got, err := u.JoinTimeout(1, 5*time.Second); err != nil || got != iv(1) {
		t.Fatalf("Join = %v, %v, want 1", got, err)
	}
	if rs := rt.RecoveryStats(); rs.Replays != 1 || rs.Commits != 1 {
		t.Fatalf("replays %d, commits %d; want 1 and 1", rs.Replays, rs.Commits)
	}
	if freeHolds(rt, rec) {
		t.Error("the record of a replayed spawn was recycled")
	}
}

// TestRestartedRecordNotReused: the record of a spawn whose Call timed
// out is never recycled when the next Call restarts that chunk. The
// timed-out attempt, stale once the next Call's spawn replaced its
// entry, keeps loading and sending after that spawn committed: if its
// record were reused by a later spawn, the stale sends would count
// against that spawn's and suppress its cont.
func TestRestartedRecordNotReused(t *testing.T) {
	var mem atomic.Int64
	var execs atomic.Int32
	staleDone := make(chan struct{})
	rt := testRT(t, []string{"blue"}, map[int]func(w *Worker, args []val) val{
		1: func(w *Worker, args []val) val {
			if execs.Add(1) > 1 {
				return iv(1) // the next Call's spawn, nested in the stale wait
			}
			defer close(staleDone)
			if _, err := w.WaitTimeout(5, 10*time.Second); err != nil {
				t.Errorf("stale attempt Wait(5): %v", err)
			}
			for i := 0; i < 50; i++ {
				mem.Add(1)
				journaledLoad(w, &mem)
				w.SendCont(0, 8, iv(i))
			}
			return iv(-1)
		},
		2: func(w *Worker, args []val) val {
			a := journaledLoad(w, &mem)
			w.SendCont(0, 9, iv(a))
			return iv(a)
		},
	})
	rt.ReplayBudget = 3
	rt.WaitTimeout = 50 * time.Millisecond
	th := rt.NewThread()
	defer th.Close()
	u := th.Normal()
	th.AdvanceEpoch()
	u.Spawn(1, 1, nil)
	rec := rt.lookupSpawn(th, 1, 1, th.epoch.Load())
	if _, err := u.Join(1); !errors.Is(err, ErrWaitTimeout) {
		t.Fatalf("Call 1 Join = %v, want a timeout: its chunk is waiting", err)
	}
	th.AdvanceEpoch()
	u.Spawn(1, 1, nil)
	if got, err := u.JoinTimeout(1, 5*time.Second); err != nil || got != iv(1) {
		t.Fatalf("Call 2 Join = %v, %v; want 1", got, err)
	}
	if freeHolds(rt, rec) {
		t.Error("the record of the timed-out Call's spawn was recycled when the next Call replaced it")
	}
	u.SendCont(1, 5, val{}) // the stale attempt resumes
	select {
	case <-staleDone:
	case <-time.After(10 * time.Second):
		t.Fatal("the stale attempt never finished")
	}
	if freeHolds(rt, rec) {
		t.Error("the record of the timed-out Call's spawn was recycled after its stale attempt finished")
	}
	th.AdvanceEpoch()
	mem.Store(500)
	u.Spawn(1, 2, nil)
	if got, err := u.WaitTimeout(9, 2*time.Second); err != nil || got != iv(500) {
		t.Fatalf("Wait(9) = %v, %v; want 500 from the next spawn", got, err)
	}
	if got, err := u.JoinTimeout(1, 5*time.Second); err != nil || got != iv(500) {
		t.Fatalf("Join = %v, %v, want 500", got, err)
	}
}

// TestLoadWordMatchesLoad threads the same loads of 1 to 8 bytes through
// logs as words (loadWord, into a log with room for whole words and into
// one without) and through another as bytes (load): the logs must hold
// the same entries, and a replay of any, through either entry point,
// must serve every position the bytes recorded there.
func TestLoadWordMatchesLoad(t *testing.T) {
	const v = 0x8877665544332211
	byWord := loadLog{buf: make([]byte, 0, 64)}
	var tight, byBytes loadLog
	for n := 1; n <= 8; n++ {
		low := v & (uint64(1)<<(8*n) - 1)
		for _, l := range []*loadLog{&byWord, &tight} {
			if got := l.loadWord(low, n); got != low {
				t.Fatalf("recording %d bytes returned %#x", n, got)
			}
		}
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], v)
		byBytes.load(buf[:n])
	}
	for _, l := range []loadLog{byWord, tight} {
		if !slices.Equal(l.lens, byBytes.lens) || !slices.Equal(l.buf, byBytes.buf) {
			t.Fatalf("word log %v %x, byte log %v %x", l.lens, l.buf, byBytes.lens, byBytes.buf)
		}
	}
	for _, log := range []loadLog{byWord, tight, byBytes} {
		asWord := loadLog{buf: log.buf, lens: log.lens}
		asBytes := loadLog{buf: log.buf, lens: log.lens}
		for n := 1; n <= 8; n++ {
			mask := uint64(1)<<(8*n) - 1
			// Live memory has moved on: the replay must not see it.
			if got := asWord.loadWord(0, n); got != v&mask {
				t.Errorf("word replay of %d bytes served %#x, want %#x", n, got, v&mask)
			}
			var buf [8]byte
			asBytes.load(buf[:n])
			if got := binary.LittleEndian.Uint64(buf[:]); got != v&mask {
				t.Errorf("byte replay of %d bytes served %#x, want %#x", n, got, v&mask)
			}
		}
		if asWord.logged() || asBytes.logged() {
			t.Errorf("a replay left entries unserved")
		}
	}
}
