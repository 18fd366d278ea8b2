package retry

import (
	"sync"
	"time"
)

// Breaker is the per-dependency circuit breaker that complements Policy:
// the policy bounds how hard one operation tries, the breaker bounds how
// hard the whole client keeps trying a dependency that is failing for
// everyone. The cluster router runs one per shard so that a gray-failed
// link (resets, blackholes, saturated timeouts) degrades into fast typed
// errors and a demotion instead of every caller burning its full
// timeout-times-attempts budget against a dead data path.
//
// States follow the classic machine:
//
//	Closed    — requests flow; Failures consecutive failures trip to Open.
//	Open      — requests are refused (Allow() == false) until Cooldown
//	            has passed, then the breaker half-opens.
//	HalfOpen  — exactly one trial request is admitted at a time; its
//	            success closes the breaker, its failure re-opens it and
//	            restarts the cooldown.
//
// The trial in half-open is how probing stays bounded: the router wires
// its per-shard data-path canary through Allow(), so a broken shard is
// re-tested at the probe cadence, never by live traffic stampeding back.
//
// All methods are safe for concurrent use.
type Breaker struct {
	cfg BreakerConfig

	mu       sync.Mutex
	state    BreakerState
	fails    int // consecutive failures while Closed
	openedAt time.Time
	trial    bool // a half-open trial is in flight
}

// BreakerState is the breaker's position in the trip/probe cycle.
type BreakerState int32

const (
	BreakerClosed BreakerState = iota
	BreakerOpen
	BreakerHalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	}
	return "unknown"
}

// BreakerConfig tunes a Breaker. Zero values take the documented
// defaults.
type BreakerConfig struct {
	// Failures is how many consecutive failures trip the breaker
	// (default 5). Only consecutive failures count: any success resets
	// the streak, so a lossy-but-working dependency never trips.
	Failures int
	// Cooldown is how long the breaker stays Open before admitting a
	// half-open trial (default 50ms).
	Cooldown time.Duration
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.Failures <= 0 {
		c.Failures = 5
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 50 * time.Millisecond
	}
	return c
}

// NewBreaker builds a closed breaker.
func NewBreaker(cfg BreakerConfig) *Breaker {
	return &Breaker{cfg: cfg.withDefaults()}
}

// Allow reports whether a request may proceed. Closed always admits.
// Open refuses until the cooldown has elapsed, at which point the
// breaker half-opens and this call is admitted as the trial. HalfOpen
// admits one trial at a time; callers that were admitted MUST report the
// outcome with Success or Failure, or the trial slot leaks.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return true
	case BreakerOpen:
		if time.Since(b.openedAt) < b.cfg.Cooldown {
			return false
		}
		b.state = BreakerHalfOpen
		b.trial = true
		return true
	default: // BreakerHalfOpen
		if b.trial {
			return false
		}
		b.trial = true
		return true
	}
}

// Success records a successful request. In HalfOpen it completes the
// in-flight trial and closes the breaker.
// Returns true when this call transitioned the breaker to Closed.
func (b *Breaker) Success() (closed bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		b.fails = 0
	case BreakerHalfOpen:
		b.trial = false
		b.state = BreakerClosed
		b.fails = 0
		return true
	}
	// A success while Open belongs to a request admitted before the
	// trip; the verdict is stale, ignore it.
	return false
}

// Failure records a failed request. Returns true when this call tripped
// the breaker to Open (from Closed after Failures consecutive failures,
// or from HalfOpen on a failed trial).
func (b *Breaker) Failure() (tripped bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		b.fails++
		if b.fails >= b.cfg.Failures {
			b.state = BreakerOpen
			b.openedAt = time.Now()
			return true
		}
	case BreakerHalfOpen:
		b.trial = false
		b.state = BreakerOpen
		b.openedAt = time.Now()
		return true
	}
	return false
}

// State returns the breaker's current state (Open reported as Open even
// when the cooldown has lapsed — the transition happens on Allow).
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// Reset force-closes the breaker and clears every streak — for a
// dependency known to have been replaced (the router calls it when a
// shard is readmitted at a fresh incarnation).
func (b *Breaker) Reset() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.state = BreakerClosed
	b.fails = 0
	b.trial = false
}
