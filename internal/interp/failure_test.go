package interp

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"privagic/internal/prt"
	"privagic/internal/typing"
)

// callDeadline bounds every Call of the failure tests: a failure that
// does not reach the wait it starves hangs the Call, and the test fails
// instead of hanging with it.
const callDeadline = 10 * time.Second

type callResult struct {
	v   int64
	err error
}

// callWithin runs one Call under callDeadline.
func callWithin(t *testing.T, ip *Interp, entry string, args ...int64) (int64, error) {
	t.Helper()
	done := make(chan callResult, 1)
	go func() {
		v, err := ip.Call(entry, args...)
		done <- callResult{v, err}
	}()
	select {
	case r := <-done:
		return r.v, r.err
	case <-time.After(callDeadline):
		t.Fatalf("%s%v did not return within %v", entry, args, callDeadline)
		return 0, nil
	}
}

// closeWithin closes the interpreter under callDeadline.
func closeWithin(t *testing.T, ip *Interp) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		ip.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(callDeadline):
		t.Fatalf("Close did not return within %v", callDeadline)
	}
}

// divSrc is a vault chunk that divides by the caller's argument and owes
// the U chunk the cont carrying reveal(acc): U waits for it, not for
// the vault chunk's completion.
const divSrc = `
ignore long reveal(long color(vault) v);
long color(vault) secret = 3;
long color(vault) acc = 0;
long shared = 4;
entry long run(long z) {
	acc = acc + secret / z;
	shared = shared + z;
	return reveal(acc);
}
`

// coloredDivSrc divides by a colored divisor, which hardened mode
// accepts: k - 1 is 0 in the first Call and 1 in the second. Hardened
// conts carry no Free values, so the failing vault chunk owes its Done to
// the join inside the U chunk, and U's store after the join must not run
// in the failed Call.
const coloredDivSrc = `
long color(vault) secret = 3;
long color(vault) acc = 0;
long color(vault) k = 0;
long shared = 4;
void bump() {
	k = k + 1;
	acc = acc + secret / (k - 1);
}
entry long run(long z) {
	bump();
	shared = shared + z;
	return shared;
}
`

// siblingSrc fails in red, whose chunk owes its cont to blue, not to U:
// U only joins, and blue waits for a cont red will never send.
const siblingSrc = `
ignore long reveal(long color(red) v);
long color(red) r = 6;
long color(blue) b = 0;
entry long run(long z) {
	long t = reveal(r / z);
	b = b + t;
	return 0;
}
`

// boundsSrc indexes a blue array past the region ceiling on the first
// Call (k = 1) and at 0 on the second, in a chunk that owes U its cont.
const boundsSrc = `
ignore long reveal(long color(blue) v);
long color(blue) arr[4];
long color(blue) k = 0;
long color(blue) acc = 0;
long shared = 4;
entry long run(long z) {
	k = k + 1;
	acc = acc + arr[(2 - k) * 100000000] + 7;
	shared = shared + z;
	return reveal(acc);
}
`

// coloredBoundsSrc is boundsSrc's bounds error in the form hardened mode
// accepts, failing at a join like coloredDivSrc.
const coloredBoundsSrc = `
long color(blue) arr[4];
long color(blue) k = 0;
long color(blue) acc = 0;
long shared = 4;
void look() {
	k = k + 1;
	acc = acc + arr[(2 - k) * 100000000];
}
entry long run(long z) {
	look();
	shared = shared + z;
	return shared;
}
`

// failCall is one Call of run in a failure case and what it must
// return: the value, or an error the check accepts.
type failCall struct {
	arg  int64
	want int64
	err  func(error) bool
}

func isDivision(err error) bool {
	return err != nil && strings.Contains(err.Error(), "integer division by zero")
}

func isCeiling(err error) bool {
	return err != nil && strings.Contains(err.Error(), "beyond region ceiling")
}

func isAbort(err error) bool { return errors.Is(err, prt.ErrEnclaveAbort) }

// TestChunkFailureEndsStarvedWaits: a chunk that fails ends the waits
// its failure starves, with no wait window armed. Each failing Call
// returns its typed error, the next Call on the same instance returns
// its correct answer, and Close returns.
func TestChunkFailureEndsStarvedWaits(t *testing.T) {
	cases := []struct {
		name  string
		src   string
		modes []typing.Mode
		// arm configures the instance; it returns a function that
		// disarms the injected fault before the next Call (nil if none).
		arm   func(ip *Interp) func()
		calls []failCall
		// global is a word checked after the calls (none if empty).
		global string
		want   int64
		// committed: every journaled spawn committed, none replayed.
		committed bool
	}{
		{
			name: "division", src: divSrc, modes: []typing.Mode{typing.Relaxed},
			calls: []failCall{{0, 0, isDivision}, {1, 3, nil}},
		},
		{
			name: "colored division", src: coloredDivSrc, modes: []typing.Mode{typing.Relaxed, typing.Hardened},
			calls: []failCall{{7, 0, isDivision}, {1, 5, nil}},
		},
		{
			// A runtime error is no crash: under recovery its chunk's
			// journal entry and effects (k's increment) commit.
			name: "colored division under recovery", src: coloredDivSrc, modes: []typing.Mode{typing.Relaxed, typing.Hardened},
			arm: func(ip *Interp) func() {
				ip.EnableRecovery(3)
				return nil
			},
			calls:  []failCall{{7, 0, isDivision}, {1, 5, nil}},
			global: "k", want: 2, committed: true,
		},
		{
			// The second Call's red cont must reach its own blue chunk,
			// not the first Call's stranded one, so b is added to once.
			name: "sibling", src: siblingSrc, modes: []typing.Mode{typing.Relaxed},
			calls:  []failCall{{0, 0, isDivision}, {1, 0, nil}},
			global: "b", want: 6,
		},
		{
			name: "bounds", src: boundsSrc, modes: []typing.Mode{typing.Relaxed},
			calls: []failCall{{0, 0, isCeiling}, {1, 7, nil}},
		},
		{
			name: "colored bounds", src: coloredBoundsSrc, modes: []typing.Mode{typing.Relaxed, typing.Hardened},
			calls: []failCall{{7, 0, isCeiling}, {1, 5, nil}},
		},
		{
			// Every attempt crashes at its first buffered store, so the
			// one replay the budget allows is spent.
			name: "spent replay budget", src: countsSrc, modes: []typing.Mode{typing.Relaxed},
			arm: func(ip *Interp) func() {
				ip.EnableRecovery(1)
				ip.SetCrashPoint(func(_, _, store int) any {
					if store == 1 {
						return injectedCrash{}
					}
					return nil
				})
				return func() { ip.SetCrashPoint(nil) }
			},
			calls: []failCall{{5, 0, isAbort}, {5, 60, nil}},
		},
	}
	for _, c := range cases {
		for _, mode := range c.modes {
			for _, e := range allEngines {
				t.Run(c.name+"/"+mode.String()+"/"+e.String(), func(t *testing.T) {
					ip := withEngine(t, build(t, mode, c.src, "run"), e)
					var disarm func()
					if c.arm != nil {
						disarm = c.arm(ip)
					}
					for i, k := range c.calls {
						if i == 1 && disarm != nil {
							disarm()
						}
						v, err := callWithin(t, ip, "run", k.arg)
						switch {
						case k.err != nil && !k.err(err):
							t.Fatalf("run(%d) = %d, %v; want its typed error", k.arg, v, err)
						case k.err == nil && (err != nil || v != k.want):
							t.Fatalf("run(%d) = %d, %v; want %d", k.arg, v, err, k.want)
						}
					}
					if c.global != "" {
						checkGlobal(t, ip, c.global, c.want)
					}
					if rs := ip.RT.RecoveryStats(); c.committed && (rs.Commits != rs.SpawnsJournaled || rs.Replays != 0) {
						t.Errorf("recovery stats %+v, want every journaled spawn committed and none replayed", rs)
					}
					closeWithin(t, ip)
				})
			}
		}
	}
}

// gateObserver holds the first enclave-mode load of unsafe memory until
// release closes.
type gateObserver struct {
	entered chan struct{}
	release chan struct{}
	once    sync.Once
}

func (o *gateObserver) GuardedLoad(addr uint64, n int, enclave, fresh bool, load func()) {
	if enclave {
		o.once.Do(func() {
			close(o.entered)
			<-o.release
		})
	}
	load()
}

func (o *gateObserver) GuardedStore(addr uint64, n int, store func()) { store() }

// doneSignal forwards every message and closes done when the first
// completion is sent.
type doneSignal struct {
	done chan struct{}
	once sync.Once
}

func (d *doneSignal) Deliver(to *prt.Worker, msg prt.Message) {
	to.EnqueueRaw(msg)
	if msg.Kind == prt.MsgDone {
		d.once.Do(func() { close(d.done) })
	}
}

// TestLateChunkFailureStaysWithItsCall: a blue chunk held past its
// Call's wait window fails once released. Its failure belongs to the
// timed-out Call, so the next, healthy Call returns its own answer and
// no error.
func TestLateChunkFailureStaysWithItsCall(t *testing.T) {
	const src = `
long color(blue) secret = 3;
long color(blue) acc = 0;
long in = 1;
entry long slow(long z) {
	acc = acc + in;
	acc = acc + secret / z;
	return 0;
}
entry long ok() { return 5; }
`
	for _, e := range allEngines {
		t.Run(e.String(), func(t *testing.T) {
			ip := withEngine(t, build(t, typing.Relaxed, src, "slow", "ok"), e)
			ip.RT.WaitTimeout = 5 * time.Millisecond
			gate := &gateObserver{entered: make(chan struct{}), release: make(chan struct{})}
			ip.SetBoundaryObserver(gate)
			sig := &doneSignal{done: make(chan struct{})}
			ip.RT.SetInterceptor(sig)
			if _, err := callWithin(t, ip, "slow", 0); !errors.Is(err, prt.ErrWaitTimeout) {
				t.Fatalf("slow(0) with blue held = %v, want ErrWaitTimeout", err)
			}
			<-gate.entered
			close(gate.release)
			<-sig.done
			if v, err := callWithin(t, ip, "ok"); err != nil || v != 5 {
				t.Fatalf("ok() after the late failure = %d, %v; want 5", v, err)
			}
			closeWithin(t, ip)
		})
	}
}

// TestThreadFailureSurfacesAtJoin: a failure in a thread_create'd
// thread, in its U chunk or in an enclave chunk, is returned by the
// Call that ran thread_join, and the next Call succeeds.
func TestThreadFailureSurfacesAtJoin(t *testing.T) {
	const src = `
long color(blue) secret = 3;
long color(blue) acc = 0;
long u = 0;
void inU(long z) { u = u + 6 / z; }
void inBlue(long z) { acc = acc + secret / z; }
entry long runU(long z) { thread_create(inU, z); thread_join(); return 1; }
entry long runBlue(long z) { thread_create(inBlue, z); thread_join(); return 1; }
`
	for _, entry := range []string{"runU", "runBlue"} {
		for _, e := range allEngines {
			t.Run(entry+"/"+e.String(), func(t *testing.T) {
				ip := withEngine(t, build(t, typing.Relaxed, src, "runU", "runBlue"), e)
				if v, err := callWithin(t, ip, entry, 0); !isDivision(err) {
					t.Fatalf("%s(0) = %d, %v; want the thread's division error", entry, v, err)
				}
				if v, err := callWithin(t, ip, entry, 1); err != nil || v != 1 {
					t.Fatalf("%s(1) = %d, %v; want 1", entry, v, err)
				}
				closeWithin(t, ip)
			})
		}
	}
}
