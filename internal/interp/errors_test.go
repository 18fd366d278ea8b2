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

// TestCallSurfacesTimeoutAloneWithoutCause: with no chunk failure, the
// timeout comes back alone and keeps its diagnostics.
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
