package retry

import (
	"testing"
	"time"
)

// TestBreakerTripsOnConsecutiveFailures: Failures consecutive failures
// open the breaker; an interleaved success resets the streak.
func TestBreakerTripsOnConsecutiveFailures(t *testing.T) {
	b := NewBreaker(BreakerConfig{Failures: 3, Cooldown: time.Hour})
	b.Failure()
	b.Failure()
	b.Success() // streak broken
	if b.Failure() || b.Failure() {
		t.Fatal("tripped before 3 consecutive failures")
	}
	if !b.Failure() {
		t.Fatal("third consecutive failure did not trip")
	}
	if b.State() != BreakerOpen {
		t.Fatalf("state = %v, want open", b.State())
	}
	if b.Allow() {
		t.Fatal("open breaker admitted a request inside cooldown")
	}
}

// TestBreakerHalfOpenRecovery: after the cooldown, exactly one trial is
// admitted; its success closes the breaker.
func TestBreakerHalfOpenRecovery(t *testing.T) {
	b := NewBreaker(BreakerConfig{Failures: 1, Cooldown: time.Millisecond})
	b.Failure()
	time.Sleep(3 * time.Millisecond)
	if !b.Allow() {
		t.Fatal("cooldown lapsed but no trial admitted")
	}
	if b.State() != BreakerHalfOpen {
		t.Fatalf("state = %v, want half-open", b.State())
	}
	if b.Allow() {
		t.Fatal("second request admitted while trial in flight")
	}
	if !b.Success() {
		t.Fatal("trial success did not close the breaker")
	}
	if b.State() != BreakerClosed || !b.Allow() {
		t.Fatal("breaker not closed after successful trial")
	}
}

// TestBreakerHalfOpenFailureReopens: a failed trial re-opens the breaker
// and restarts the cooldown.
func TestBreakerHalfOpenFailureReopens(t *testing.T) {
	b := NewBreaker(BreakerConfig{Failures: 1, Cooldown: 2 * time.Millisecond})
	b.Failure()
	time.Sleep(5 * time.Millisecond)
	if !b.Allow() {
		t.Fatal("no trial admitted after cooldown")
	}
	if !b.Failure() {
		t.Fatal("failed trial did not report a re-trip")
	}
	if b.State() != BreakerOpen {
		t.Fatalf("state = %v, want open after failed trial", b.State())
	}
	if b.Allow() {
		t.Fatal("request admitted immediately after failed trial")
	}
}

// TestBreakerReset force-closes from any state.
func TestBreakerReset(t *testing.T) {
	b := NewBreaker(BreakerConfig{Failures: 1, Cooldown: time.Hour})
	b.Failure()
	if b.State() != BreakerOpen {
		t.Fatal("setup: breaker not open")
	}
	b.Reset()
	if b.State() != BreakerClosed || !b.Allow() {
		t.Fatal("Reset did not close the breaker")
	}
	// The old failure streak must be gone: one new failure (< Failures
	// after reset re-defaults? no — same config) trips again at 1.
	if !b.Failure() {
		t.Fatal("post-reset failure accounting broken")
	}
}

// TestBreakerDefaults: zero config takes 5 failures / 50ms.
func TestBreakerDefaults(t *testing.T) {
	b := NewBreaker(BreakerConfig{})
	for i := 0; i < 4; i++ {
		if b.Failure() {
			t.Fatalf("tripped at failure %d, want 5", i+1)
		}
	}
	if !b.Failure() {
		t.Fatal("did not trip at 5 consecutive failures")
	}
}

// TestBreakerStateString covers the state labels used in error text.
func TestBreakerStateString(t *testing.T) {
	for s, want := range map[BreakerState]string{
		BreakerClosed:    "closed",
		BreakerOpen:      "open",
		BreakerHalfOpen:  "half-open",
		BreakerState(99): "unknown",
	} {
		if got := s.String(); got != want {
			t.Errorf("State(%d).String() = %q, want %q", s, got, want)
		}
	}
}
