package prt

import (
	"encoding/binary"
	"slices"
	"sync"
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
	rt.Recovery = RecoveryPolicy{MaxAttempts: 3}
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
	rt.Recovery = RecoveryPolicy{MaxAttempts: 3}
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

// signalAbort is a test interceptor that delivers everything and closes
// aborted once the first poisoned completion has been delivered — by then
// the crashed attempt has published its load log.
type signalAbort struct {
	once    sync.Once
	aborted chan struct{}
}

func (s *signalAbort) Deliver(to *Worker, msg Message) {
	to.EnqueueRaw(msg)
	if msg.Kind == MsgDone && msg.Err != nil {
		s.once.Do(func() { close(s.aborted) })
	}
}

// TestStaleAttemptCannotMoveReplayLog: after a restart, the replaced
// attempt keeps loading and sending, both while the newer attempt runs
// and after that attempt has crashed. The attempt after that must be
// served exactly the newer attempt's loads: a stale attempt never
// publishes. Run under -race, this also checks that the two attempts
// share no unguarded state.
func TestStaleAttemptCannotMoveReplayLog(t *testing.T) {
	var mem atomic.Int64
	mem.Store(100)
	var execs atomic.Int32
	started, release, staleDone := make(chan struct{}), make(chan struct{}), make(chan struct{})
	var second atomic.Int64 // the second attempt's live second load
	ic := &signalAbort{aborted: make(chan struct{})}
	rt := testRT(t, []string{"blue"}, map[int]func(w *Worker, args []val) val{
		1: func(w *Worker, args []val) val {
			n := execs.Add(1)
			a := journaledLoad(w, &mem)
			w.SendCont(0, 7, iv(a))
			switch n {
			case 1:
				close(started)
				<-release
				defer close(staleDone)
				for i := 0; i < 200; i++ {
					if i == 100 {
						select {
						case <-ic.aborted:
						case <-time.After(5 * time.Second):
							t.Error("the second attempt never crashed")
							return val{}
						}
					}
					mem.Add(1)
					journaledLoad(w, &mem)
					w.SendCont(0, 8, iv(i))
				}
				return iv(-1)
			case 2:
				close(release)
				second.Store(journaledLoad(w, &mem))
				panic("the newer attempt crashes")
			}
			return pair(a, journaledLoad(w, &mem))
		},
	})
	rt.Recovery = RecoveryPolicy{MaxAttempts: 3}
	rt.SetInterceptor(ic)
	th := rt.NewThread()
	defer th.Close()
	u := th.Normal()
	u.Spawn(1, 1, nil)
	if got, err := u.WaitTimeout(7, 5*time.Second); err != nil || got != iv(100) {
		t.Fatalf("Wait(7) = %v, %v, want 100", got, err)
	}
	<-started
	mem.Store(200)
	th.RestartWorker(1)
	select {
	case <-staleDone:
	case <-time.After(10 * time.Second):
		t.Fatal("the stale attempt never finished")
	}
	got, err := u.JoinTimeout(1, 5*time.Second)
	if err != nil {
		t.Fatalf("Join: %v", err)
	}
	if want := pair(100, second.Load()); got != want || second.Load() < 200 {
		t.Errorf("third attempt was served %v, want %v (the second attempt's loads)", got, want)
	}
	if n := execs.Load(); n != 3 {
		t.Errorf("chunk executed %d times, want 3", n)
	}
}

// TestJournaledLoadAllocationFree: once an attempt's load log has room, a
// journaled load allocates nothing and takes no lock.
func TestJournaledLoadAllocationFree(t *testing.T) {
	rec := &spawnRec{}
	w := &Worker{}
	w.att = rec.beginAttempt(logSize{loads: 1024, bytes: 8 * 1024})
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
	rt.Recovery = RecoveryPolicy{MaxAttempts: 3}
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
	rt.Recovery = RecoveryPolicy{MaxAttempts: 3}
	th := rt.NewThread()
	defer th.Close()
	u := th.Normal()
	spawn := func(loads int) (*spawnRec, bool) {
		u.Spawn(1, 1, []val{iv(loads)})
		rec := rt.lookupSpawn(th, 1, 1)
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
	rt.Recovery = RecoveryPolicy{MaxAttempts: 3}
	th := rt.NewThread()
	defer th.Close()
	u := th.Normal()
	u.Spawn(1, 1, nil)
	rec := rt.lookupSpawn(th, 1, 1)
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

// TestRestartedRecordNotReused: the record of a spawn in flight across a
// restart is never recycled. Its first attempt, stale after the restart,
// keeps loading and sending after the replay committed: if the record
// were reused by the next spawn, the stale sends would count against
// that spawn's and suppress its cont.
func TestRestartedRecordNotReused(t *testing.T) {
	var mem atomic.Int64
	var execs atomic.Int32
	started, release, staleDone := make(chan struct{}), make(chan struct{}), make(chan struct{})
	rt := testRT(t, []string{"blue"}, map[int]func(w *Worker, args []val) val{
		1: func(w *Worker, args []val) val {
			if execs.Add(1) > 1 {
				return iv(1) // the replay on the replacement worker
			}
			close(started)
			<-release
			defer close(staleDone)
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
	rt.Recovery = RecoveryPolicy{MaxAttempts: 3}
	th := rt.NewThread()
	defer th.Close()
	u := th.Normal()
	u.Spawn(1, 1, nil)
	rec := rt.lookupSpawn(th, 1, 1)
	<-started
	th.RestartWorker(1)
	if got, err := u.JoinTimeout(1, 5*time.Second); err != nil || got != iv(1) {
		t.Fatalf("Join = %v, %v, want the replay's 1", got, err)
	}
	if freeHolds(rt, rec) {
		t.Error("the record of a spawn in flight across a restart was recycled")
	}
	close(release)
	select {
	case <-staleDone:
	case <-time.After(10 * time.Second):
		t.Fatal("the stale attempt never finished")
	}
	mem.Store(500)
	u.Spawn(1, 2, nil)
	if got, err := u.WaitTimeout(9, 2*time.Second); err != nil || got != iv(500) {
		t.Fatalf("Wait(9) = %v, %v; want 500 from the next spawn", got, err)
	}
	if got, err := u.JoinTimeout(1, 5*time.Second); err != nil || got != iv(500) {
		t.Fatalf("Join = %v, %v, want 500", got, err)
	}
}
