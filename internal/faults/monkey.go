package faults

import (
	"math/rand"
	"sync"
	"time"

	"privagic/internal/obs"
)

// monkey is the action scheduler the shard-level Chaos and the
// network-level GrayChaos share: Actions pauses drawn from [MinDelay,
// MaxDelay], each followed by one act, plus the bookkeeping for the
// recoveries (respawns, heals) the acts schedule. An act draws its
// fault choices from the same rng after the pause's draw, so a seed
// fixes the whole schedule.
type monkey struct {
	rng                *rand.Rand
	actions            int
	minDelay, maxDelay time.Duration
	act                func()

	// mu guards the embedding monkey's victim set and tallies.
	mu          sync.Mutex
	counterList []obs.NamedCounter

	stopOnce sync.Once
	stopCh   chan struct{}
	doneCh   chan struct{}
	wg       sync.WaitGroup // in-flight recoveries
}

// newMonkey defaults the shared timing (1 action, pauses of 1ms to
// 5ms) and seeds the schedule. The caller sets act and counterList.
func newMonkey(seed int64, actions int, minDelay, maxDelay time.Duration) monkey {
	if actions <= 0 {
		actions = 1
	}
	if minDelay <= 0 {
		minDelay = time.Millisecond
	}
	if maxDelay < minDelay {
		maxDelay = 5 * time.Millisecond
		if maxDelay < minDelay {
			maxDelay = minDelay
		}
	}
	return monkey{
		rng:      rand.New(rand.NewSource(seed)),
		actions:  actions,
		minDelay: minDelay,
		maxDelay: maxDelay,
		stopCh:   make(chan struct{}),
		doneCh:   make(chan struct{}),
	}
}

// Start launches the action loop.
func (m *monkey) Start() {
	go m.run()
}

// Wait blocks until every configured action has been injected and every
// scheduled recovery has completed.
func (m *monkey) Wait() {
	<-m.doneCh
	m.wg.Wait()
}

// Stop aborts the remaining actions and waits for in-flight recoveries,
// so teardown never races a respawning shard or a healing link.
func (m *monkey) Stop() {
	m.stopOnce.Do(func() { close(m.stopCh) })
	<-m.doneCh
	m.wg.Wait()
}

func (m *monkey) run() {
	defer close(m.doneCh)
	for n := 0; n < m.actions; n++ {
		span := int64(m.maxDelay-m.minDelay) + 1
		delay := m.minDelay + time.Duration(m.rng.Int63n(span))
		select {
		case <-m.stopCh:
			return
		case <-time.After(delay):
		}
		m.act()
	}
}

// settle polls cond every millisecond until it holds (true) or the
// monkey is stopped (false). A nil cond holds at once.
func (m *monkey) settle(cond func() bool) bool {
	if cond == nil {
		return true
	}
	for !cond() {
		select {
		case <-m.stopCh:
			return false
		case <-time.After(time.Millisecond):
		}
	}
	return true
}

// after runs fn once d passes, as a recovery Wait and Stop wait for.
func (m *monkey) after(d time.Duration, fn func()) {
	m.wg.Add(1)
	time.AfterFunc(d, func() {
		defer m.wg.Done()
		fn()
	})
}

// count bumps a mutex-guarded tally.
func (m *monkey) count(v *int64) {
	m.mu.Lock()
	*v++
	m.mu.Unlock()
}

// locked adapts a mutex-guarded tally to the NamedCounter Load shape.
func (m *monkey) locked(v *int64) func() int64 {
	return func() int64 {
		m.mu.Lock()
		defer m.mu.Unlock()
		return *v
	}
}

// Counters reports the monkey's activity (CounterSource;
// obs.SnapshotCounters over the static list its constructor built).
func (m *monkey) Counters() map[string]int64 {
	return obs.SnapshotCounters(m.counterList)
}
