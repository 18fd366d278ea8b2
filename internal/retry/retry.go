// Package retry is the cluster router's bounded retry-with-backoff
// policy and its per-shard circuit breaker (internal/cluster): one place
// where "exponential backoff with decorrelating jitter, bounded attempts"
// is defined and tested. The runtime's crash replays (internal/prt) do
// not use it: they are sent at once, under a plain attempt budget.
package retry

import (
	"context"
	crand "crypto/rand"
	"encoding/binary"
	"math/rand"
	"sync"
	"time"
)

// Policy bounds retry behavior. The zero value disables retries.
type Policy struct {
	// MaxAttempts is how many times a failed operation is retried before
	// its error is surfaced. 0 disables retries; the budget is per
	// operation, so an unlucky one costs at most MaxAttempts+1
	// executions — bounded recovery, never a retry loop.
	MaxAttempts int
	// Backoff is the delay before the first retry (default 100µs). Each
	// further retry doubles it up to MaxBackoff (default 2ms). The
	// defaults sit well inside a sane supervision window: retry traffic
	// restarts the inactivity window, so backoff never reads as a stall.
	Backoff    time.Duration
	MaxBackoff time.Duration
	// Jitter randomizes each delay by ±Jitter fraction (default 0.2),
	// decorrelating the retries of independent threads so a mass failure
	// does not re-issue in lockstep.
	Jitter float64
}

// Enabled reports whether the policy performs any retries.
func (p Policy) Enabled() bool { return p.MaxAttempts > 0 }

// jitterRng decorrelates retry delays. Jitter is deliberately outside
// any deterministic fault-schedule RNG: it perturbs timing only, never a
// protocol decision. It is seeded from entropy — jitter exists so that
// independent processes do NOT back off in lockstep, which a constant
// seed would reintroduce across every process running this code.
var (
	jitterMu  sync.Mutex
	jitterRng = rand.New(rand.NewSource(entropySeed()))
)

// entropySeed draws a jitter seed from the OS entropy pool, falling back
// to the wall clock if that fails (timing decorrelation still beats a
// constant).
func entropySeed() int64 {
	var b [8]byte
	if _, err := crand.Read(b[:]); err == nil {
		return int64(binary.LittleEndian.Uint64(b[:]))
	}
	return time.Now().UnixNano()
}

// SeedJitter re-seeds the jitter RNG deterministically — for soak tests
// that want reproducible backoff timing within one process. Production
// code should never call it.
func SeedJitter(seed int64) {
	jitterMu.Lock()
	jitterRng = rand.New(rand.NewSource(seed))
	jitterMu.Unlock()
}

// Delay computes the backoff before retry number attempt (1-based):
// Backoff doubled attempt-1 times, capped at MaxBackoff, jittered.
func (p Policy) Delay(attempt int) time.Duration {
	base := p.Backoff
	if base <= 0 {
		base = 100 * time.Microsecond
	}
	maxB := p.MaxBackoff
	if maxB <= 0 {
		maxB = 2 * time.Millisecond
	}
	d := base
	for i := 1; i < attempt && d < maxB; i++ {
		d *= 2
	}
	if d > maxB {
		d = maxB
	}
	jit := p.Jitter
	if jit <= 0 {
		jit = 0.2
	}
	if jit > 1 {
		jit = 1
	}
	jitterMu.Lock()
	f := 1 + jit*(2*jitterRng.Float64()-1)
	jitterMu.Unlock()
	return time.Duration(float64(d) * f)
}

// Sleep blocks for Delay(attempt), returning early with ctx.Err() when
// ctx is canceled first — a caller shutting down must not serve out the
// full backoff before noticing. A nil ctx sleeps unconditionally.
func (p Policy) Sleep(ctx context.Context, attempt int) error {
	d := p.Delay(attempt)
	if ctx == nil {
		time.Sleep(d)
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
