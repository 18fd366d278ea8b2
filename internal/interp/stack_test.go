package interp

import (
	"flag"
	"fmt"
	"testing"
	"time"

	"privagic/internal/ir"
	"privagic/internal/sgx"
	"privagic/internal/sources"
	"privagic/internal/typing"
)

// stackCalls is how many Calls each stack repro makes; make tier3-stack
// raises it to 10M.
var stackCalls = flag.Int("stackcalls", 5000, "calls per worker-stack repro")

// bigFrameSrc is the first repro of unreleased stack memory: a 64 KiB
// local array filled a region's 256 MiB ceiling after 4,095 activations.
const bigFrameSrc = `
long touch(long n) {
	char a[65536];
	a[0] = n;
	a[65535] = n;
	return a[0] + a[65535];
}
entry long loop(long n) {
	long s = 0;
	for (long i = 0; i < n; i = i + 1) { s = s + touch(1); }
	return s;
}
entry long once() {
	return touch(2);
}
`

// kvOpSrc is the treemap with the benchmark's kv_op entry, the second
// repro: every call allocas a 64-byte blue buffer.
const kvOpSrc = sources.TreemapColored + `
entry long kv_op(long kind, long key) {
	char color(blue) buf[64];
	if (kind == 1) { return map_get(key); }
	map_put(key, buf);
	return 1;
}
`

// mcBatchSrc is the hardened memcached core with a YCSB batch entry over
// 64 keys; mc_set and mc_get alloca a slot for their colored parameter
// on every call.
const mcBatchSrc = sources.MemcachedCoreColored + `
entry long batch() {
	long seed = 3;
	long hits = 0;
	for (long i = 0; i < 200; i++) {
		seed = (seed * 1103515245 + 12345) & 2147483647;
		long key = (seed >> 12) & 63;
		if (((seed >> 24) & 1) == 0) { mc_set(key, inbuf); }
		else { hits = hits + mc_get(key); }
	}
	return hits;
}
`

func withEngine(t *testing.T, ip *Interp, e Engine) *Interp {
	t.Helper()
	if err := ip.SetEngine(e); err != nil {
		t.Fatalf("SetEngine(%v): %v", e, err)
	}
	return ip
}

func callOK(t *testing.T, ip *Interp, entry string, args ...int64) int64 {
	t.Helper()
	v, err := ip.Call(entry, args...)
	if err != nil {
		t.Fatalf("%s: %v", entry, err)
	}
	return v
}

// TestStackReleasedWithinCall loops over a function with a 64 KiB local
// in one Call: each activation gives its frame back, so the loop never
// reaches the region ceiling.
func TestStackReleasedWithinCall(t *testing.T) {
	for _, e := range allEngines {
		t.Run(e.String(), func(t *testing.T) {
			ip := withEngine(t, build(t, typing.Relaxed, bigFrameSrc, "loop", "once"), e)
			if got := callOK(t, ip, "loop", 5000); got != 10000 {
				t.Fatalf("loop(5000) = %d, want 10000", got)
			}
			if ext := ip.RT.Space.Region(sgx.Unsafe).Extent(); ext > 1<<20 {
				t.Errorf("unsafe extent %d B after 5,000 activations of a 64 KiB frame, want one frame's worth", ext)
			}
		})
	}
}

// TestStackReleasedAcrossCalls makes the same activation in separate
// Calls.
func TestStackReleasedAcrossCalls(t *testing.T) {
	n := min(*stackCalls, 5000)
	for _, e := range allEngines {
		t.Run(e.String(), func(t *testing.T) {
			ip := withEngine(t, build(t, typing.Relaxed, bigFrameSrc, "loop", "once"), e)
			for i := 0; i < n; i++ {
				if got := callOK(t, ip, "once"); got != 4 {
					t.Fatalf("call %d: once() = %d, want 4", i, got)
				}
			}
		})
	}
}

// TestTreemapKVExtentFlat serves kv_op calls: once the tree holds every
// key, the blue region stops growing.
func TestTreemapKVExtentFlat(t *testing.T) {
	for _, e := range allEngines {
		t.Run(e.String(), func(t *testing.T) {
			ip := withEngine(t, build(t, typing.Relaxed, kvOpSrc, "kv_op"), e)
			blue := ip.RT.Space.Region(sgx.RegionID(ip.Prog.ColorIndex(ir.Named("blue"))))
			serve := func(n int) {
				for i := 0; i < n; i++ {
					callOK(t, ip, "kv_op", int64(1+i%2), int64(i%32))
				}
			}
			serve(1000)
			at1k := blue.Extent()
			serve(1000)
			if at2k := blue.Extent(); at2k != at1k {
				t.Errorf("blue extent %d B after 1,000 calls, %d B after 2,000: kv_op's frame is not given back", at1k, at2k)
			}
		})
	}
}

// TestMemcachedBatchExtentFlat runs the hardened memcached core with
// every defense armed: the store region stops growing once the table
// holds every key, although each mc_set/mc_get allocas a slot.
func TestMemcachedBatchExtentFlat(t *testing.T) {
	for _, e := range allEngines {
		t.Run(e.String(), func(t *testing.T) {
			ip := withEngine(t, build(t, typing.Hardened, mcBatchSrc, "batch"), e)
			ip.EnableBoundaryDefense(FullBoundary())
			ip.RT.WaitTimeout = 10 * time.Second
			ip.EnableRecovery(3)
			store := ip.RT.Space.Region(sgx.RegionID(ip.Prog.ColorIndex(ir.Named("store"))))
			want := callOK(t, ip, "batch")
			for i := 0; i < 20; i++ {
				callOK(t, ip, "batch")
			}
			before := store.Extent()
			for i := 0; i < 50; i++ {
				if got := callOK(t, ip, "batch"); got == 0 || i == 0 && got < want {
					t.Fatalf("batch %d returned %d hits", i, got)
				}
			}
			if after := store.Extent(); after != before {
				t.Errorf("store extent grew from %d to %d B over 50 batches", before, after)
			}
		})
	}
}

// escapeSrc sends a frame address to a sibling chunk that outlives the
// frame: f().U sends arr to f().blue and returns; run().U then calls
// probe, whose pad lands on arr's slot unless the frame is pinned, while
// f().blue still reads arr[0]. peek declassifies what it read.
const escapeSrc = `
ignore long reveal(long color(blue) v);
long color(blue) seen;
long probe(long n) {
	long pad[8];
	for (long i = 0; i < 8; i = i + 1) { pad[i] = n; }
	return pad[3];
}
void f() {
	long arr[4];
	arr[0] = 5;
	arr[1] = 5;
	seen = arr[0];
}
void g() {
	probe(9);
}
entry void run() {
	f();
	g();
}
entry long peek() {
	return reveal(seen);
}
`

// TestEscapingFramePinned: a frame whose address left its worker in a
// cont payload is pinned to the Call boundary, so the sibling reading it
// after the activation returned sees its bytes, never a later frame's.
func TestEscapingFramePinned(t *testing.T) {
	for _, e := range allEngines {
		t.Run(e.String(), func(t *testing.T) {
			ip := withEngine(t, build(t, typing.Relaxed, escapeSrc, "run", "peek"), e)
			wrong := 0
			for i := 0; i < 2000; i++ {
				callOK(t, ip, "run")
				if callOK(t, ip, "peek") != 5 {
					wrong++
				}
			}
			if wrong > 0 {
				t.Errorf("%d of 2,000 calls read a reused frame", wrong)
			}
			if pins := ip.stackPins.Load(); pins < 2000 {
				t.Errorf("%d pins over 2,000 escaping frames", pins)
			}
			if ext := ip.RT.Space.Region(sgx.Unsafe).Extent(); ext > 64<<10 {
				t.Errorf("unsafe extent %d B: pins were not dropped at the Call boundary", ext)
			}
		})
	}
}

// nestedTxSrc nests a spawn inside a transaction on the normal worker:
// m().U (a spawned chunk) calls fill, whose released frame stays
// buffered in m's transaction, then waits while k spawns g().U onto the
// same worker. g's frame escapes to g().blue, which leaves its address in
// held; outer reads it after m committed.
const nestedTxSrc = `
ignore long reveal(long color(blue) v);
long color(blue) seen;
long color(blue) held;
long fill(long n) {
	long tmp[4];
	tmp[0] = n; tmp[1] = n; tmp[2] = n; tmp[3] = n;
	return tmp[0] + tmp[3];
}
void g() {
	long arr[4];
	arr[0] = 5;
	held = (long) arr;
}
long k(long color(blue) c) {
	g();
	return 1;
}
void m(long color(blue) c) {
	long buf[2];
	buf[0] = fill(7);
	long r = k(c);
	buf[1] = r;
}
void outer() {
	long color(blue) c = seen + 1;
	m(c);
	long* p = (long*) reveal(held);
	seen = p[0] + c;
}
entry void run() { outer(); }
entry long peek() { return reveal(seen); }
`

// TestNestedSpawnAboveOuterTx: a nested spawn's frames start above the
// enclosing transaction's high-water mark, so the outer commit, which
// replays fill's buffered words, does not land on g's pinned frame.
func TestNestedSpawnAboveOuterTx(t *testing.T) {
	for _, e := range allEngines {
		t.Run(e.String(), func(t *testing.T) {
			ip := withEngine(t, build(t, typing.Relaxed, nestedTxSrc, "run", "peek"), e)
			ip.EnableRecovery(3)
			var seen int64
			for i := 0; i < 200; i++ {
				callOK(t, ip, "run")
				// seen = arr[0] + (seen + 1), with arr[0] = 5.
				want := seen + 6
				if seen = callOK(t, ip, "peek"); seen != want {
					t.Fatalf("call %d: seen = %d, want %d", i, seen, want)
				}
			}
		})
	}
}

// replaySrc crashes a spawned chunk after its frame address left: f().U
// sends arr to f().blue, which leaves it in held, and outer reads arr[0]
// through held after joining f().U.
const replaySrc = `
ignore long reveal(long color(blue) v);
long color(blue) seen;
long color(blue) held;
void f() {
	long arr[4];
	arr[0] = 5;
	arr[1] = 5;
	held = (long) arr;
}
void outer() {
	long color(blue) c = seen + 1;
	seen = c;
	f();
	long* p = (long*) reveal(held);
	seen = p[0] + c;
}
entry void run() { outer(); }
entry long peek() { return reveal(seen); }
`

type injectedCrash struct{}

func (injectedCrash) InjectedFault() {}
func (injectedCrash) Error() string  { return "injected crash" }

// TestReplayKeepsFrameAddress crashes f().U at its first store, after it
// sent arr's address. The peer keeps the crashed attempt's address (the
// replay's send is suppressed), so the replay must be served the same
// alloca address from the journal for its writes to land where the peer
// reads.
func TestReplayKeepsFrameAddress(t *testing.T) {
	for _, e := range allEngines {
		t.Run(e.String(), func(t *testing.T) {
			ip := withEngine(t, build(t, typing.Relaxed, replaySrc, "run", "peek"), e)
			ip.RT.WaitTimeout = 10 * time.Second
			ip.EnableRecovery(3)
			fU := -1
			for id, ch := range ip.Prog.ChunkByID {
				if ch.Fn.FName == "f().U" {
					fU = id
				}
			}
			if fU < 0 {
				t.Fatal("no f().U chunk")
			}
			armed := false
			ip.SetCrashPoint(func(_, chunk, store int) any {
				if armed && chunk == fU && store == 1 {
					armed = false
					return injectedCrash{}
				}
				return nil
			})
			var seen int64
			for i := 0; i < 200; i++ {
				armed = true
				callOK(t, ip, "run")
				want := seen + 6
				if seen = callOK(t, ip, "peek"); seen != want {
					t.Fatalf("call %d: seen = %d, want %d", i, seen, want)
				}
			}
			if r := ip.RT.RecoveryStats().Replays; r != 200 {
				t.Errorf("%d replays, want 200", r)
			}
		})
	}
}

// mallocReplaySrc is replaySrc with the buffer on the heap: f().U
// mallocs arr, sends its address to f().blue and stores through it.
const mallocReplaySrc = `
ignore long reveal(long color(blue) v);
long color(blue) seen;
long color(blue) held;
void f() {
	long* arr = malloc(sizeof(long) * 4);
	arr[0] = 5;
	arr[1] = 5;
	held = (long) arr;
}
void outer() {
	long color(blue) c = seen + 1;
	seen = c;
	f();
	long* p = (long*) reveal(held);
	seen = p[0] + c;
}
entry void run() { outer(); }
entry long peek() { return reveal(seen); }
`

// TestReplayKeepsMallocAddress crashes f().U at its first store, after it
// sent the address malloc returned. The replay must be served that address
// from the attempt's load log, without allocating again: its writes land
// where the peer reads, and the region's allocation cursor moves once per
// Call, crash or not.
func TestReplayKeepsMallocAddress(t *testing.T) {
	for _, e := range allEngines {
		t.Run(e.String(), func(t *testing.T) {
			ip := withEngine(t, build(t, typing.Relaxed, mallocReplaySrc, "run", "peek"), e)
			ip.RT.WaitTimeout = 10 * time.Second
			ip.EnableRecovery(3)
			fU := -1
			for id, ch := range ip.Prog.ChunkByID {
				if ch.Fn.FName == "f().U" {
					fU = id
				}
			}
			if fU < 0 {
				t.Fatal("no f().U chunk")
			}
			armed := false
			ip.SetCrashPoint(func(_, chunk, store int) any {
				if armed && chunk == fU && store == 1 {
					armed = false
					return injectedCrash{}
				}
				return nil
			})
			heap := ip.RT.Space.Region(sgx.Unsafe)
			var seen int64
			step := int64(-1) // cursor advance of one uncrashed run
			for i := 0; i < 50; i++ {
				armed = i > 0
				before := heap.Used()
				callOK(t, ip, "run")
				used := heap.Used() - before
				want := seen + 6
				if seen = callOK(t, ip, "peek"); seen != want {
					t.Fatalf("call %d: seen = %d, want %d", i, seen, want)
				}
				if step < 0 {
					step = used
				} else if used != step {
					t.Fatalf("call %d: a crashed run moved the allocation cursor by %d bytes, an uncrashed one by %d", i, used, step)
				}
			}
			if r := ip.RT.RecoveryStats().Replays; r != 49 {
				t.Errorf("%d replays, want 49", r)
			}
		})
	}
}

// TestStackRepros is the tier-3 gate (make tier3-stack): both repros of
// unreleased stack memory for -stackcalls Calls on every engine.
func TestStackRepros(t *testing.T) {
	if *stackCalls <= 5000 {
		t.Skip("run with -stackcalls (make tier3-stack)")
	}
	n := *stackCalls
	for _, e := range allEngines {
		t.Run(fmt.Sprintf("bigframe/%v", e), func(t *testing.T) {
			ip := withEngine(t, build(t, typing.Relaxed, bigFrameSrc, "loop", "once"), e)
			for i := 0; i < n; i++ {
				if got := callOK(t, ip, "once"); got != 4 {
					t.Fatalf("call %d: once() = %d, want 4", i, got)
				}
			}
		})
		t.Run(fmt.Sprintf("kv_op/%v", e), func(t *testing.T) {
			ip := withEngine(t, build(t, typing.Relaxed, kvOpSrc, "kv_op"), e)
			for i := 0; i < n; i++ {
				// Keys in scattered order keep the unbalanced tree shallow.
				callOK(t, ip, "kv_op", int64(1+i%2), int64(i*2654435761%1024))
			}
		})
	}
}

// TestCrashPinsAttemptFrames crashes a spawned chunk after it allocated
// a frame: until the Call boundary the frame stays reserved for the
// replay, which is served its address from the journal.
func TestCrashPinsAttemptFrames(t *testing.T) {
	for _, e := range allEngines {
		t.Run(e.String(), func(t *testing.T) {
			ip := withEngine(t, build(t, typing.Relaxed, nestedTxSrc, "run", "peek"), e)
			ip.EnableRecovery(3)
			fill := -1
			for id, ch := range ip.Prog.ChunkByID {
				if ch.Fn.FName == "fill(F).U" {
					fill = id
				}
			}
			if fill < 0 {
				t.Fatal("no fill(F).U chunk")
			}
			ip.SetCrashPoint(func(_, chunk, store int) any {
				if chunk == fill && store == 1 {
					return injectedCrash{}
				}
				return nil
			})
			w := ip.mainThread().Normal()
			func() {
				defer func() {
					if _, ok := recover().(injectedCrash); !ok {
						t.Fatal("fill did not crash")
					}
				}()
				ip.execChunk(w, fill, []val{iv(7)})
			}()
			st := &stateOf(w).stack
			base := st.regs[sgx.Unsafe].segs[0].base
			if off := ip.stackAlloc(st, sgx.Unsafe, 8); off < base+32 {
				t.Errorf("next frame at %d, inside the crashed attempt's tmp[4] at %d", off, base)
			}
			st.reset(true)
			if off := ip.stackAlloc(st, sgx.Unsafe, 8); off != base {
				t.Errorf("after the Call boundary the next frame is at %d, want %d", off, base)
			}
		})
	}
}

// pinSrc pins frames on both kinds of worker: run sends a U frame
// address to f().blue (the normal worker pins), keep stores a blue frame
// address in a blue global (the blue worker pins), fail pins and then
// aborts, and where reports where its own U frame lands.
const pinSrc = `
ignore long reveal(long color(blue) v);
long color(blue) seen;
long color(blue) bheld;
void f() {
	long arr[4];
	arr[0] = 5;
	seen = arr[0];
}
entry void run() { f(); }
entry void keep() {
	long color(blue) x[4];
	x[0] = 1;
	bheld = (long) x;
}
entry void fail() {
	f();
	abort();
}
entry long where() {
	long x[2];
	x[0] = 1;
	return (long) x;
}
`

// TestPinsDroppedAtCallBoundary: pins last until the Call boundary. A
// clean Call drops them, on the normal worker when the Call returns and
// on an enclave worker at its first spawn of the next epoch; a failed
// Call keeps them, since stragglers may still hold the frames.
func TestPinsDroppedAtCallBoundary(t *testing.T) {
	for _, e := range allEngines {
		t.Run(e.String(), func(t *testing.T) {
			ip := withEngine(t, build(t, typing.Relaxed, pinSrc, "run", "keep", "fail", "where"), e)
			home := callOK(t, ip, "where")
			if again := callOK(t, ip, "where"); again != home {
				t.Fatalf("second Call's frame at %#x, first at %#x: frames are not reused", again, home)
			}
			callOK(t, ip, "run")
			if got := callOK(t, ip, "where"); got != home {
				t.Errorf("after a clean Call that pinned, the next frame is at %#x, want %#x", got, home)
			}
			blue := ip.RT.Space.Region(sgx.RegionID(ip.Prog.ColorIndex(ir.Named("blue"))))
			callOK(t, ip, "keep")
			ext := blue.Extent()
			for i := 0; i < 1000; i++ {
				callOK(t, ip, "keep")
			}
			if got := blue.Extent(); got != ext {
				t.Errorf("blue extent grew from %d to %d B: an enclave worker kept its pins past the epoch", ext, got)
			}
			if pins := ip.stackPins.Load(); pins < 1001 {
				t.Errorf("%d pins, want one per keep Call", pins)
			}
			if _, err := ip.Call("fail"); err == nil {
				t.Fatal("fail() returned no error")
			}
			if got := callOK(t, ip, "where"); got <= home {
				t.Errorf("after a failed Call the next frame is at %#x, want above the kept pin (%#x)", got, home)
			}
		})
	}
}
