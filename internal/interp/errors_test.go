package interp

import (
	"errors"
	"testing"
	"time"

	"privagic/internal/prt"
	"privagic/internal/typing"
)

// dropAll is an interceptor that loses every message, stalling the
// protocol into a supervised timeout.
type dropAll struct{}

func (dropAll) Deliver(to *prt.Worker, msg prt.Message) {}

// TestCallJoinsRootCauseWithTimeoutDiagnostics pins the error-surfacing
// contract of Call: when a worker's recorded root cause (an enclave
// abort) starves the main goroutine into a wait timeout, the returned
// error must expose BOTH — the abort as the leading cause, and the
// timeout with its pending-tags/queue-depth diagnostics still reachable
// through errors.As. Replacing the timeout with the cause used to drop
// those diagnostics.
func TestCallJoinsRootCauseWithTimeoutDiagnostics(t *testing.T) {
	ip := build(t, typing.Relaxed, `
int color(blue) blue = 1;
int f(int y) { return y + blue; }
entry int main() { return f(2); }
`, "main")
	ip.RT.WaitTimeout = 25 * time.Millisecond
	cause := &prt.EnclaveAbort{Worker: 1, ChunkID: 3, Cause: errors.New("boom")}
	ip.recordErr(cause)
	ip.RT.SetInterceptor(dropAll{}) // every spawn is lost: main's join must time out
	_, err := ip.Call("main")
	if err == nil {
		t.Fatal("Call succeeded with all messages dropped")
	}
	if !errors.Is(err, prt.ErrEnclaveAbort) {
		t.Fatalf("err = %v, does not match ErrEnclaveAbort", err)
	}
	if !errors.Is(err, prt.ErrWaitTimeout) {
		t.Fatalf("err = %v, does not match ErrWaitTimeout", err)
	}
	var abort *prt.EnclaveAbort
	if !errors.As(err, &abort) || abort.ChunkID != 3 {
		t.Fatalf("err = %v, abort cause not reachable via errors.As", err)
	}
	var te *prt.TimeoutError
	if !errors.As(err, &te) {
		t.Fatalf("err = %v, timeout not reachable via errors.As", err)
	}
	if len(te.QueueDepths) == 0 {
		t.Fatal("joined timeout lost its queue-depth diagnostics")
	}
}

// TestCallSurfacesTimeoutAloneWithoutCause is the counterpart: with no
// recorded root cause, the timeout comes back unjoined and keeps its
// diagnostics.
func TestCallSurfacesTimeoutAloneWithoutCause(t *testing.T) {
	ip := build(t, typing.Relaxed, `
int color(blue) blue = 1;
int f(int y) { return y + blue; }
entry int main() { return f(2); }
`, "main")
	ip.RT.WaitTimeout = 25 * time.Millisecond
	ip.RT.SetInterceptor(dropAll{})
	_, err := ip.Call("main")
	if !errors.Is(err, prt.ErrWaitTimeout) {
		t.Fatalf("err = %v, want a wait timeout", err)
	}
	if errors.Is(err, prt.ErrEnclaveAbort) {
		t.Fatalf("err = %v, matches ErrEnclaveAbort with no abort recorded", err)
	}
}
