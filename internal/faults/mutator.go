package faults

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"privagic/internal/prt"
	"privagic/internal/sgx"
	"privagic/internal/value"
)

// The mutator adversary: the §4 attacker who owns unsafe *memory*, not
// just the message protocol. Where the Injector drops, replays and forges
// whole messages, the Mutator corrupts contents in place — it flips U
// words between two reads of the same barrier interval (the double-fetch
// window), smashes U-resident pointer slots to point past their region's
// mapped extent (the Iago pointer attack on the §7.2 split-struct
// layout), and rewrites queued message payloads without touching the auth
// stamp or sequence number (the in-place mutation the plain stamp cannot
// see).
//
// It attaches on two seams at once: as the interp.BoundaryObserver it is
// invoked around every backing access to unsafe memory (GuardedLoad /
// GuardedStore, matched structurally — no interp import), and as the
// prt.Interceptor it sits on every queue delivery.
//
// Corruption discipline — the attacker is malicious, not magical: a word
// is corrupted only *after* it has been read at least once (TOCTOU means
// check-then-use, so the check must see the good value), and corruption
// is restored before any normal-mode read and before legitimate data is
// stored over it. Flips are additionally restored before a first enclave
// read of a new barrier interval: a flipped word is *plausible alternate
// data*, and U data legitimately changing between intervals would make
// the exact expected answer ill-defined — so flips are confined to the
// double-fetch window copy-in snapshots claim to close. Smashes persist
// across intervals: a pointer redirected past its region's extent is
// detectable garbage, never a plausible input, so hardened mode may
// answer it with a typed violation instead of the exact result — which
// is precisely the guarantee ("exact answer or typed violation") the
// soak asserts. With the full boundary defense armed, hardened-mode
// behavior under this adversary is thus deterministic by construction;
// with it disarmed (the relaxed negative control), the same schedule
// corrupts silently.
type Mutator struct {
	rt  *prt.Runtime
	cfg MutatorConfig
	u   *sgx.Region

	mu      sync.Mutex
	rng     *rand.Rand
	seen    []uint64 // U word offsets read at least once (flipper targets)
	seenSet map[uint64]struct{}
	held    map[uint64]heldCorruption // word offset -> pending corruption

	stats struct {
		flips, smashes, payloadMuts, restores atomic.Int64
	}

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// heldCorruption is one outstanding in-memory corruption: the original
// word for restoration, and whether it is a pointer smash (which is
// allowed to persist across barrier intervals) or a data flip (which is
// confined to the double-fetch window).
type heldCorruption struct {
	orig  uint64
	smash bool
}

// MutatorConfig sets the corruption probabilities (each in [0,1]) of the
// mutator adversary. The zero value mutates nothing.
type MutatorConfig struct {
	Seed int64

	// FlipAfterRead is the per-word probability that an enclave-read U
	// word is bit-flipped right after the read (visible only to a re-read
	// of the same barrier interval).
	FlipAfterRead float64
	// SmashPointers is the per-word probability that an enclave-read U
	// word holding an enclave pointer (a §7.2 slot) is rewritten to point
	// past its region's mapped extent.
	SmashPointers float64
	// MutatePayload is the per-message probability that a queued
	// message's payload words are rewritten in place (auth stamp and
	// sequence number intact).
	MutatePayload float64

	// Concurrent additionally runs a background goroutine corrupting
	// already-read words asynchronously (real attacker timing; the
	// per-schedule decision sequence is then no longer deterministic, but
	// the hardened-mode guarantee does not depend on timing).
	Concurrent bool
	// MaxHeld caps outstanding in-memory corruptions (default 16).
	MaxHeld int
}

// NewMutator creates the adversary and installs it as the runtime's
// interceptor. Wire its memory half with Interp.SetBoundaryObserver.
// Call before the workload starts.
func NewMutator(rt *prt.Runtime, cfg MutatorConfig) *Mutator {
	if cfg.MaxHeld <= 0 {
		cfg.MaxHeld = 16
	}
	m := &Mutator{
		rt:      rt,
		cfg:     cfg,
		u:       rt.Space.Region(sgx.Unsafe),
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		seenSet: map[uint64]struct{}{},
		held:    map[uint64]heldCorruption{},
		stop:    make(chan struct{}),
	}
	rt.SetInterceptor(m)
	if cfg.Concurrent {
		m.wg.Add(1)
		go m.flipper()
	}
	return m
}

// GuardedLoad implements the interp.BoundaryObserver read seam: restore
// pending corruption per the discipline above (everything before a
// normal-mode read, flips also before a first enclave read of an
// interval), perform the backing load, then — for enclave reads — maybe
// corrupt the word so a later read would see the change. All under one
// lock, atomic with the load.
func (m *Mutator) GuardedLoad(addr uint64, n int, enclave, fresh bool, load func()) {
	_, off := sgx.DecodePtr(addr)
	word := off &^ 7
	m.mu.Lock()
	defer m.mu.Unlock()
	if !enclave {
		m.restoreLocked(word)
	} else if fresh {
		if h, ok := m.held[word]; ok && !h.smash {
			m.restoreLocked(word)
		}
	}
	load()
	if _, ok := m.seenSet[word]; !ok {
		m.seenSet[word] = struct{}{}
		m.seen = append(m.seen, word)
	}
	if enclave {
		m.maybeCorruptLocked(word)
	}
	_ = n
}

// GuardedStore implements the write seam: legitimate data is about to
// land on these words, so pending corruptions overlapping the range are
// resolved first (a later restore would otherwise clobber the new data —
// an attack on *availability* of writes this adversary does not model).
func (m *Mutator) GuardedStore(addr uint64, n int, store func()) {
	_, off := sgx.DecodePtr(addr)
	if n < 1 {
		n = 1
	}
	last := (off + uint64(n) - 1) &^ 7
	m.mu.Lock()
	defer m.mu.Unlock()
	for w := off &^ 7; w <= last; w += 8 {
		m.restoreLocked(w)
	}
	store()
}

// Deliver implements prt.Interceptor: maybe rewrite the payload words of
// the message in place, then enqueue it raw — metadata (auth stamp,
// sequence, epoch, integrity tag) untouched, exactly what an attacker
// editing the U-memory queue node achieves.
func (m *Mutator) Deliver(to *prt.Worker, msg prt.Message) {
	if m.cfg.MutatePayload > 0 {
		m.mu.Lock()
		hit := m.rng.Float64() < m.cfg.MutatePayload
		var xor uint64
		if hit {
			xor = uint64(m.rng.Int63()) | 1
		}
		m.mu.Unlock()
		if hit {
			msg = mutateMessage(msg, xor)
			m.stats.payloadMuts.Add(1)
		}
	}
	to.EnqueueRaw(msg)
}

// mutateMessage rewrites one payload word of the message: a spawn
// argument (or vectored-cont value) when there are any, the cont/done
// payload otherwise. The word is xored in place — an integer, a pointer
// or a float's bits alike — so the mutated message stays well-typed.
func mutateMessage(msg prt.Message, xor uint64) prt.Message {
	if len(msg.Args) > 0 {
		// Copy the slice: the journal may hold the original for replay,
		// and the attacker edits the queue node, not the sender's state.
		args := append([]value.Val(nil), msg.Args...)
		args[xor%uint64(len(args))].I ^= int64(xor)
		msg.Args = args
		return msg
	}
	msg.Payload.I ^= int64(xor)
	return msg
}

// maybeCorruptLocked draws one decision for a just-read word: smash it if
// it holds an enclave pointer, flip it otherwise, or leave it alone.
func (m *Mutator) maybeCorruptLocked(word uint64) {
	if _, already := m.held[word]; already || len(m.held) >= m.cfg.MaxHeld {
		return
	}
	r := m.rng.Float64()
	switch {
	case r < m.cfg.SmashPointers:
		m.smashLocked(word)
	case r < m.cfg.SmashPointers+m.cfg.FlipAfterRead:
		m.flipLocked(word)
	}
}

// flipLocked corrupts a word's bits. The top two bytes are forced to an
// unmapped-region marker so a flipped word misread as a pointer fails
// fast instead of forging an in-extent address (which could send the
// relaxed interpreter chasing accidental pointer cycles); the low bytes
// get a random xor, so a flipped scalar is simply hugely wrong.
func (m *Mutator) flipLocked(word uint64) {
	orig := m.u.LoadWord(word)
	bad := orig ^ uint64(byte(m.rng.Intn(255))+1)
	bad ^= uint64(byte(m.rng.Intn(256))) << 24
	bad = bad&(1<<48-1) | 0x7fff<<48 // region 0x7fff: never mapped
	m.held[word] = heldCorruption{orig: orig}
	m.u.StoreWord(word, bad)
	m.stats.flips.Add(1)
}

// smashLocked rewrites a word holding an enclave pointer (a split-struct
// slot, by the §7.2 layout the only enclave pointers resident in U) to
// the same region at an offset past its mapped extent. Eligibility is a
// genuine *live* pointer — mapped enclave region, 8-aligned offset inside
// the extent — so a scalar whose bits happen to decode plausibly is left
// alone: smashing a hash or a count would be indistinguishable from
// legitimate alternate input and would break the soak's ground truth.
func (m *Mutator) smashLocked(word uint64) {
	orig := m.u.LoadWord(word)
	rid, off := sgx.DecodePtr(orig)
	if rid == sgx.Unsafe || off == 0 || off%8 != 0 {
		return
	}
	r := m.rt.Space.Region(rid)
	if r == nil || off >= r.Extent() {
		return
	}
	m.held[word] = heldCorruption{orig: orig, smash: true}
	m.u.StoreWord(word, sgx.EncodePtr(rid, r.Extent()+4096))
	m.stats.smashes.Add(1)
}

// restoreLocked undoes a pending corruption of the word, if any.
func (m *Mutator) restoreLocked(word uint64) {
	h, ok := m.held[word]
	if !ok {
		return
	}
	m.u.StoreWord(word, h.orig)
	delete(m.held, word)
	m.stats.restores.Add(1)
}

// flipper is the concurrent half: it corrupts already-read words on its
// own schedule, under the same lock (so restores stay atomic with loads).
func (m *Mutator) flipper() {
	defer m.wg.Done()
	for {
		select {
		case <-m.stop:
			return
		default:
		}
		m.mu.Lock()
		if len(m.seen) > 0 {
			m.maybeCorruptLocked(m.seen[m.rng.Intn(len(m.seen))])
		}
		m.mu.Unlock()
		time.Sleep(50 * time.Microsecond)
	}
}

// MutStats counts what the mutator did.
type MutStats struct {
	Flips            int64 // U words bit-flipped after an enclave read
	Smashes          int64 // pointer slots redirected past their extent
	PayloadMutations int64 // queued messages rewritten in place
	Restores         int64 // corruptions undone by the freshness contract
}

// Total mutations injected (restores are bookkeeping, not attacks).
func (s MutStats) Total() int64 { return s.Flips + s.Smashes + s.PayloadMutations }

// Stats snapshots the mutator's counters.
func (m *Mutator) Stats() MutStats {
	return MutStats{
		Flips:            m.stats.flips.Load(),
		Smashes:          m.stats.smashes.Load(),
		PayloadMutations: m.stats.payloadMuts.Load(),
		Restores:         m.stats.restores.Load(),
	}
}

// Counters exposes the mutator's counters in the uniform name -> count
// form shared by every fault class (see Injector.Counters).
func (m *Mutator) Counters() map[string]int64 {
	s := m.Stats()
	return map[string]int64{
		"flips":             s.Flips,
		"smashes":           s.Smashes,
		"payload_mutations": s.PayloadMutations,
		"restores":          s.Restores,
	}
}

// Close stops the concurrent flipper, detaches the interceptor, and
// restores every outstanding corruption so the address space is clean for
// inspection at teardown.
func (m *Mutator) Close() {
	m.stopOnce.Do(func() {
		close(m.stop)
		m.wg.Wait()
		m.rt.SetInterceptor(nil)
		m.mu.Lock()
		for w := range m.held {
			m.restoreLocked(w)
		}
		m.mu.Unlock()
	})
}
