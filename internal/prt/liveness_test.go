package prt

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestWaitOutlivesWindowsWhileRuntimeAdmits: a wait whose own queue stays
// silent keeps waiting, window after window, while another thread of the
// same runtime keeps admitting messages, and times out within a few
// windows once that traffic stops.
func TestWaitOutlivesWindowsWhileRuntimeAdmits(t *testing.T) {
	const window = 100 * time.Millisecond
	rt := testRT(t, []string{"blue"}, map[int]func(w *Worker, args []val) val{
		1: func(w *Worker, args []val) val { return iv(args[0].I + 1) },
	})
	rt.WaitTimeout = window
	waiter, busy := rt.NewThread(), rt.NewThread()
	defer rt.Shutdown()

	var returned atomic.Bool
	done := make(chan error, 1)
	go func() {
		_, err := waiter.Normal().Wait(7) // nobody sends tag 7
		returned.Store(true)
		done <- err
	}()

	// Keep the runtime admitting for five windows: each round trip
	// admits a spawn on blue and its Done on busy's app thread.
	u := busy.Normal()
	for start, j := time.Now(), 0; time.Since(start) < 5*window; j++ {
		u.Spawn(1, 1, []val{iv(j)})
		if got, err := u.Join(1); err != nil || got != iv(j+1) {
			t.Fatalf("round %d: Join = %v, %v", j, got, err)
		}
	}
	if returned.Load() {
		t.Fatalf("the wait ended while the runtime was admitting: %v", <-done)
	}
	stopped := time.Now()
	select {
	case err := <-done:
		if !errors.Is(err, ErrWaitTimeout) {
			t.Fatalf("Wait = %v, want ErrWaitTimeout", err)
		}
	case <-time.After(20 * window):
		t.Fatalf("the wait outlived the traffic by %v", time.Since(stopped))
	}
}

// captureCont is a test interceptor that keeps a copy of the first cont
// it delivers.
type captureCont struct {
	once sync.Once
	msg  Message
}

func (c *captureCont) Deliver(to *Worker, msg Message) {
	if msg.Kind == MsgCont {
		c.once.Do(func() { c.msg = msg })
	}
	to.EnqueueRaw(msg)
}

// TestRejectedStreamCannotKeepWaitAlive: forged messages and replayed
// duplicates, sent to the waiting worker several times per window, are
// rejected at the admit gate and do not keep its wait alive. The wait
// times out while the stream is still running.
func TestRejectedStreamCannotKeepWaitAlive(t *testing.T) {
	const window = 50 * time.Millisecond
	rt := testRT(t, []string{"blue"}, map[int]func(w *Worker, args []val) val{
		1: func(w *Worker, args []val) val {
			w.SendCont(0, 5, iv(1))
			return val{}
		},
	})
	ic := &captureCont{}
	rt.SetInterceptor(ic)
	th := rt.NewThread()
	defer th.Close()
	u := th.Normal()
	u.Spawn(1, 1, nil)
	if _, err := u.Wait(5); err != nil {
		t.Fatalf("Wait(5): %v", err)
	}
	if _, err := u.Join(1); err != nil {
		t.Fatalf("Join: %v", err)
	}
	rt.SetInterceptor(nil)
	dup := ic.msg

	// Five rejected messages per window, for up to 50 windows.
	var streaming atomic.Bool
	streaming.Store(true)
	quit := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer streaming.Store(false)
		tick := time.NewTicker(window / 5)
		defer tick.Stop()
		for i := 0; i < 250; i++ {
			select {
			case <-quit:
				return
			case <-tick.C:
			}
			if i%2 == 0 {
				u.EnqueueRaw(dup)
			} else {
				u.DeliverHostile(Message{Kind: MsgCont, Tag: 6, Payload: iv(-1)})
			}
		}
	}()
	_, err := u.WaitTimeout(6, window)
	stillStreaming := streaming.Load()
	close(quit)
	wg.Wait()
	if !errors.Is(err, ErrWaitTimeout) {
		t.Fatalf("WaitTimeout = %v, want ErrWaitTimeout", err)
	}
	if !stillStreaming {
		t.Fatal("the wait outlived the rejected stream: rejected messages kept it alive")
	}
	if st := rt.SupervisionStats(); st.DroppedDuplicates == 0 || st.HostileConts == 0 {
		t.Fatalf("the stream never reached the admit gate: %+v", st)
	}
}
