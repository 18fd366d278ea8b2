package interp

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"privagic/internal/prt"
	"privagic/internal/typing"
)

// stallingObserver holds the first enclave-mode load of unsafe memory
// until release closes, so a Call can time out while a blue worker sits
// inside the observer.
type stallingObserver struct {
	entered chan struct{}
	release chan struct{}
	once    atomic.Bool
	left    atomic.Bool
}

func (o *stallingObserver) GuardedLoad(addr uint64, n int, enclave, fresh bool, load func()) {
	if enclave && o.once.CompareAndSwap(false, true) {
		close(o.entered)
		<-o.release
		defer o.left.Store(true)
	}
	load()
}

func (o *stallingObserver) GuardedStore(addr uint64, n int, store func()) { store() }

// TestCloseStopsWorkersBeforeDroppingObserver times a Call out while its
// blue worker is stalled inside the boundary observer, then lets the
// worker go and closes the interpreter at once. The worker's next
// accesses read the observer; Close must stop the worker before it drops
// the observer. Under -race, dropping it first is reported as a data race.
func TestCloseStopsWorkersBeforeDroppingObserver(t *testing.T) {
	ip := build(t, typing.Relaxed, `
long color(blue) acc = 0;
long in = 3;
entry long f(long* p) { acc = acc + *p; *p = 7; return 0; }
`, "f")
	ip.RT.WaitTimeout = 50 * time.Millisecond
	o := &stallingObserver{entered: make(chan struct{}), release: make(chan struct{})}
	ip.SetBoundaryObserver(o)
	in := ip.globals[ip.Prog.Mod.Global("in")]
	if _, err := ip.Call("f", int64(in)); !errors.Is(err, prt.ErrWaitTimeout) {
		t.Fatalf("Call with the blue worker stalled = %v, want ErrWaitTimeout", err)
	}
	<-o.entered
	close(o.release)
	ip.Close()
	if !o.left.Load() {
		t.Error("Close returned while the timed-out Call's worker was still in the observer")
	}
	if ip.bobs != nil {
		t.Error("Close left the boundary observer installed")
	}
}
