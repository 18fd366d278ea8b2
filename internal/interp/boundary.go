package interp

import (
	"sync/atomic"

	"privagic/internal/prt"
	"privagic/internal/sgx"
)

// Runtime boundary defense (the hardened-mode Iago layer).
//
// The static checker guarantees no *instruction* crosses a color boundary
// illegally, but the §4 attacker owns unsafe memory at runtime: a U word
// can change between two reads of the same barrier interval (double
// fetch), a U-resident pointer slot can be smashed to point anywhere, and
// a queued message can be rewritten in place. The three defenses here
// close those windows:
//
//  1. Copy-in snapshots: the first time a colored chunk reads a U word in
//     a barrier interval, the word is copied into enclave-private memory
//     (the snapshot, kept in the worker's state); every later read
//     of that word in the interval is served from the copy. A mutation of
//     the backing word between the two reads is simply never observed —
//     TOCTOU is defeated by construction, not detected.
//  2. Pointer sanitization: before any dereference, the address is
//     validated against the simulated memory map (region mapped, offset
//     inside the region's allocation extent). A smashed pointer surfaces
//     as a typed *prt.IagoViolation instead of garbage or a crash.
//  3. Payload integrity tags live in internal/prt (Runtime.PayloadTags):
//     spawn arguments and cont payloads travel through messages, so their
//     copy-in is the message itself and their freshness is the tag.
//
// The snapshot map also does double duty as the freshness tracker for the
// mutator adversary (internal/faults): a BoundaryObserver sees every
// backing U load with its (enclave, fresh) classification and every
// backing U store, which is exactly the information a U-memory attacker
// simulation needs to corrupt precisely the windows the defense claims to
// close — and nothing else.

// BoundaryConfig selects which boundary defenses are armed.
type BoundaryConfig struct {
	// Snapshots serves repeated U reads of a barrier interval from an
	// enclave-private copy taken at first read.
	Snapshots bool
	// SanitizePointers validates every load/store address against the
	// memory map before dereference.
	SanitizePointers bool
	// PayloadTags arms the prt payload integrity tags (set through
	// EnableBoundaryDefense so one call configures the whole layer).
	PayloadTags bool
}

func (c BoundaryConfig) any() bool { return c.Snapshots || c.SanitizePointers || c.PayloadTags }

// FullBoundary is the hardened-mode default: everything armed.
func FullBoundary() BoundaryConfig {
	return BoundaryConfig{Snapshots: true, SanitizePointers: true, PayloadTags: true}
}

// EnableBoundaryDefense arms the runtime Iago defenses. Call before the
// first Call (the payload-tag half configures the runtime, and threads
// cache nothing, but arming mid-protocol would tag only some messages of
// a stream).
func (ip *Interp) EnableBoundaryDefense(cfg BoundaryConfig) {
	ip.boundary = cfg
	ip.RT.PayloadTags = cfg.PayloadTags
}

// BoundaryObserver sees every backing access to unsafe memory — the seam
// the mutator adversary attaches to. GuardedLoad wraps the actual backing
// read of one aligned 8-byte word: enclave says whether an enclave-mode
// chunk is reading, fresh whether this is the word's first read of the
// current barrier interval. GuardedStore wraps a backing write (direct
// stores and effect-transaction commits), so an attacker holding a
// pending corruption of those words can resolve it before legitimate data
// lands. Both run the access inside the callback so the observer can make
// its own writes atomic with it.
type BoundaryObserver interface {
	GuardedLoad(addr uint64, n int, enclave, fresh bool, load func())
	GuardedStore(addr uint64, n int, store func())
}

// SetBoundaryObserver installs (or removes, with nil) the U-memory access
// observer. Install before Call; Close removes it once every worker has
// stopped. Worker goroutines read it without synchronization, so it must
// not change while one may run — a timed-out Call's worker included.
func (ip *Interp) SetBoundaryObserver(o BoundaryObserver) {
	ip.bobs = o
}

// boundaryCounters classifies boundary crossings, summed over every
// worker. Counted only while the defense is armed. A worker counts in
// its own boundaryCounts and adds them here when an activation ends
// (publishCounts); violations are added as they are raised.
type boundaryCounters struct {
	snapCopyIns  atomic.Int64 // U words copied into a snapshot (first read)
	snapServed   atomic.Int64 // U word reads served from the snapshot
	trustedLoads atomic.Int64 // loads from enclave (S) memory
	unsafeLoads  atomic.Int64 // U loads not covered by a snapshot
	sanChecks    atomic.Int64 // addresses validated before dereference
	violations   atomic.Int64 // typed Iago violations raised
}

// boundaryCounts are one worker's boundary counts not yet published:
// plain fields, touched only on the worker's goroutine, so a checked
// access counts without touching a cache line other workers write.
type boundaryCounts struct {
	snapCopyIns, snapServed, trustedLoads, unsafeLoads, sanChecks int64
}

// publishCounts adds the worker's boundary counts to the interpreter's
// and zeroes them. Every activation publishes when it returns (runFn,
// runCompiled) and, when it unwinds, where the panic is recovered
// (execChunk, Call, a thread_create thread), so a chunk's counts are
// published before its Done or result leaves the worker.
func (ip *Interp) publishCounts(ws *workerState) {
	c := &ws.counts
	if *c == (boundaryCounts{}) {
		return
	}
	addCount(&ip.bStats.snapCopyIns, c.snapCopyIns)
	addCount(&ip.bStats.snapServed, c.snapServed)
	addCount(&ip.bStats.trustedLoads, c.trustedLoads)
	addCount(&ip.bStats.unsafeLoads, c.unsafeLoads)
	addCount(&ip.bStats.sanChecks, c.sanChecks)
	*c = boundaryCounts{}
}

// addCount adds n to a shared counter, skipping the write when n is 0.
func addCount(sum *atomic.Int64, n int64) {
	if n != 0 {
		sum.Add(n)
	}
}

// BoundaryStats is a snapshot of the interpreter-side defense counters
// (payload-tag rejections are counted by the runtime: SupervisionStats).
type BoundaryStats struct {
	SnapshotCopyIns int64 // U words copied in at first read
	SnapshotServed  int64 // repeated reads served from the copy
	TrustedLoads    int64 // loads from enclave memory (no defense needed)
	UnsafeLoads     int64 // U loads outside snapshot coverage
	SanitizeChecks  int64 // pointer validations performed
	Violations      int64 // typed violations raised
}

// BoundaryStats snapshots the defense counters.
func (ip *Interp) BoundaryStats() BoundaryStats {
	return BoundaryStats{
		SnapshotCopyIns: ip.bStats.snapCopyIns.Load(),
		SnapshotServed:  ip.bStats.snapServed.Load(),
		TrustedLoads:    ip.bStats.trustedLoads.Load(),
		UnsafeLoads:     ip.bStats.unsafeLoads.Load(),
		SanitizeChecks:  ip.bStats.sanChecks.Load(),
		Violations:      ip.bStats.violations.Load(),
	}
}

// boundarySnap is the per-barrier-interval copy-in cache of one worker:
// whole aligned 8-byte U words, keyed by word offset. It models the
// enclave-private staging buffer a hardened compiler would emit copy-in
// code for. serve is false in tracking-only mode (snapshots disarmed but
// an observer needs the freshness classification): words are recorded but
// reads still hit backing memory.
type boundarySnap struct {
	words map[uint64]uint64
	serve bool
}

// beginSnap opens a snapshot for a spawned chunk when snapshots are armed
// or an observer needs freshness tracking (nil otherwise).
func (ip *Interp) beginSnap() *boundarySnap {
	if !ip.boundary.Snapshots && ip.bobs == nil {
		return nil
	}
	return &boundarySnap{words: make(map[uint64]uint64, 16), serve: ip.boundary.Snapshots}
}

// snapBarrier starts a new barrier interval on the worker: the snapshot
// is dropped, so the next read of each U word re-copies it. Called after
// every successful wait/join — the values a peer produced behind the
// barrier must be observable, and the TOCTOU window the snapshot closes
// is *within* an interval, not across barriers.
func (ip *Interp) snapBarrier(w *prt.Worker) {
	if sn := stateOf(w).snap; sn != nil {
		clear(sn.words)
	}
}

// snapWord is the backing read of one aligned unsafe word while
// snapshots or an observer are engaged: a word the snapshot already
// holds is served from it, any other word is read (through the observer,
// when installed) and copied in. Enclave memory never comes here: it is
// trusted by the SGX model itself.
func (ip *Interp) snapWord(ws *workerState, enclave bool, r *sgx.Region, wordOff uint64) uint64 {
	sn := ws.snap
	var v uint64
	cached := false
	if sn != nil {
		v, cached = sn.words[wordOff]
	}
	if cached && sn.serve {
		ws.counts.snapServed++
		return v
	}
	if ip.bobs != nil {
		v = ip.guardedWord(r, wordOff, enclave, !cached)
	} else {
		v = r.LoadWord(wordOff)
	}
	if sn != nil && !cached {
		sn.words[wordOff] = v
		if ip.boundary.Snapshots {
			ws.counts.snapCopyIns++
		}
	}
	return v
}

// guardedWord reads one unsafe word inside the observer's GuardedLoad.
// It is its own function so the word the callback captures moves to the
// heap only when an observer is installed.
func (ip *Interp) guardedWord(r *sgx.Region, wordOff uint64, enclave, fresh bool) (v uint64) {
	ip.bobs.GuardedLoad(sgx.EncodePtr(sgx.Unsafe, wordOff), 8, enclave, fresh, func() {
		v = r.LoadWord(wordOff)
	})
	return v
}

// sync keeps the snapshot coherent with the chunk's own direct stores: a
// word the chunk already copied in takes the bits of v under mask, so
// later snapshot-served reads see the chunk's write (under a
// transaction, reads merge the effect overlay instead).
func (sn *boundarySnap) sync(wordOff, v, mask uint64) {
	if old, cached := sn.words[wordOff]; cached {
		sn.words[wordOff] = old&^mask | v&mask
	}
}

// sanitize validates a resolved address against the simulated memory map
// before a dereference: the region must be mapped and the offset inside
// its allocation extent (full range for stores; for loads only the start
// is checked, because trusted bulk readers — readString's chunked scan —
// may legitimately overshoot the final allocation and rely on the
// machine's zero fill). A failure is the typed Iago violation of the
// hardened mode.
func (ip *Interp) sanitize(w *prt.Worker, ws *workerState, ref sgx.Ref, n int, store bool) {
	ws.counts.sanChecks++
	if ref.Region != nil {
		ext := ref.Region.Extent()
		if ref.Off < ext && (!store || ref.Off+uint64(n) <= ext) {
			return
		}
	}
	ip.iagoViolation(w, ref, n)
}

// iagoViolation raises the typed pointer violation for an n-byte access
// at ref.
func (ip *Interp) iagoViolation(w *prt.Worker, ref sgx.Ref, n int) {
	var extent uint64
	if ref.Region != nil {
		extent = ref.Region.Extent()
	}
	ip.bStats.violations.Add(1)
	panic(runtimeErr{Err: &prt.IagoViolation{
		Kind: "pointer", Worker: w.Index, Addr: ref.Addr,
		Region: int(ref.ID), Extent: extent, Len: n,
	}})
}

// Payload integrity needs no hook here: messages carry typed values
// (value.Val), whose words the runtime sums directly, so a message's tag
// does not depend on which engine produced its payload.
