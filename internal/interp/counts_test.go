package interp

import (
	"sync"
	"testing"

	"privagic/internal/ir"
	"privagic/internal/sgx"
	"privagic/internal/typing"
)

// replayWordSrc reads the blue word g three ways before its first store:
// whole (the word core), one byte of it (the word core, at an offset)
// and all eight bytes through hash64 (the byte path).
const replayWordSrc = `
ignore long reveal(long color(blue) v);
long color(blue) g = 72623859790382856;
long color(blue) h = 0;
entry void probe() {
	long a = g;
	char color(blue)* p = (char color(blue)*) &g;
	long c = p[3];
	long b = hash64(&g, 8);
	h = a + b + c;
}
entry long peek() { return reveal(h); }
`

// TestReplayServesWordAndBytePaths crashes probe's blue chunk at its
// first store, after the crash hook rewrote g. The replay must be served
// from the load log, for the word core's loads as for the byte path's:
// h comes out as on an undisturbed run, not from the rewritten g.
func TestReplayServesWordAndBytePaths(t *testing.T) {
	for _, e := range allEngines {
		t.Run(e.String(), func(t *testing.T) {
			clean := withEngine(t, build(t, typing.Relaxed, replayWordSrc, "probe", "peek"), e)
			callOK(t, clean, "probe")
			wantH := callOK(t, clean, "peek")

			ip := withEngine(t, build(t, typing.Relaxed, replayWordSrc, "probe", "peek"), e)
			ip.EnableRecovery(2)
			ref := ip.RT.Space.Resolve(ip.globals[ip.Prog.Mod.Global("g")])
			crashed := false
			ip.SetCrashPoint(func(_, _, store int) any {
				if crashed || store != 1 {
					return nil
				}
				crashed = true
				ref.Region.StoreWord(ref.Off, ^uint64(0))
				return injectedCrash{}
			})
			callOK(t, ip, "probe")
			if got := callOK(t, ip, "peek"); got != wantH {
				t.Errorf("h = %d after the replay, want %d (the crashed attempt's loads)", got, wantH)
			}
			if r := ip.RT.RecoveryStats().Replays; r != 1 {
				t.Errorf("%d replays, want 1", r)
			}
		})
	}
}

// countsSrc loads and stores blue and unsafe words from both of its
// chunks; fail divides by its argument in blue, and bump's blue chunk
// loads and stores with no cont back to its U chunk, so its crash ends
// the Call.
const countsSrc = `
ignore long reveal(long color(blue) v);
long color(blue) secret = 3;
long color(blue) acc = 0;
long shared = 4;
entry long run(long n) {
	long i = 0;
	while (i < n) {
		acc = acc + secret * shared;
		i = i + 1;
	}
	shared = shared + n;
	return reveal(acc);
}
entry long fail(long z) {
	acc = acc + secret / z;
	return 0;
}
entry long bump(long z) {
	acc = acc + secret * z;
	return 0;
}
`

// accessTally counts the checked accesses an OnAccess hook sees, by the
// boundary class each one falls in.
type accessTally struct {
	mu                                  sync.Mutex
	all, trusted, unsafe, snapshotWords int64
}

func (a *accessTally) hook(addr uint64, _ int64, write bool, mode sgx.Mode) {
	id, _ := sgx.DecodePtr(addr)
	a.mu.Lock()
	defer a.mu.Unlock()
	a.all++
	switch {
	case write:
	case id != sgx.Unsafe:
		a.trusted++
	case mode == sgx.Unsafe:
		// The U chunk runs on the caller, outside any snapshot.
		a.unsafe++
	default:
		// Every program load is one in-word scalar: one word.
		a.snapshotWords++
	}
}

// TestBoundaryCountsPublished: the boundary counts each worker keeps are
// published by the time a Call returns — after a clean Call, after a
// chunk that ended in a runtime error, and after one that ended in an
// injected crash — and equal the checks the accesses made: one sanitizer
// check per access (and one for a store the crash cut short), one class
// per load.
func TestBoundaryCountsPublished(t *testing.T) {
	cases := []struct {
		name    string
		entry   string
		arg     int64
		crash   bool
		wantErr bool
	}{
		{"call", "run", 5, false, false},
		{"runtime error", "fail", 0, false, true},
		{"injected crash", "bump", 5, true, true},
	}
	for _, c := range cases {
		for _, e := range allEngines {
			t.Run(c.name+"/"+e.String(), func(t *testing.T) {
				ip := withEngine(t, build(t, typing.Relaxed, countsSrc, "run", "fail", "bump"), e)
				ip.EnableBoundaryDefense(FullBoundary())
				var tally accessTally
				ip.OnAccess = tally.hook
				cut := int64(0)
				if c.crash {
					ip.EnableRecovery(1)
					ip.SetCrashPoint(func(_, _, store int) any {
						if store != 1 {
							return nil
						}
						cut++
						return injectedCrash{}
					})
				}
				_, err := ip.Call(c.entry, c.arg)
				if (err != nil) != c.wantErr {
					t.Fatalf("%s(%d) error = %v, want error %v", c.entry, c.arg, err, c.wantErr)
				}
				bs := ip.BoundaryStats()
				tally.mu.Lock()
				defer tally.mu.Unlock()
				if bs.SanitizeChecks != tally.all+cut || bs.SanitizeChecks == 0 {
					t.Errorf("sanitizer checks = %d, want %d accesses + %d cut short", bs.SanitizeChecks, tally.all, cut)
				}
				if bs.TrustedLoads != tally.trusted || bs.UnsafeLoads != tally.unsafe {
					t.Errorf("trusted/unsafe loads = %d/%d, want %d/%d", bs.TrustedLoads, bs.UnsafeLoads, tally.trusted, tally.unsafe)
				}
				if got := bs.SnapshotCopyIns + bs.SnapshotServed; got != tally.snapshotWords {
					t.Errorf("snapshot copy-ins + served = %d + %d, want %d word reads", bs.SnapshotCopyIns, bs.SnapshotServed, tally.snapshotWords)
				}
			})
		}
	}
}

// loadSink keeps BenchmarkCheckedLoad's loads live.
var loadSink val

// BenchmarkCheckedLoad measures one compiled scalar load of a global
// through the checked access, per access, in three configurations: no
// defense, the full boundary defense with an open snapshot, and that
// defense with recovery's effect transaction open and holding g.
func BenchmarkCheckedLoad(b *testing.B) {
	for _, cfg := range []string{"none", "boundary", "boundary+recovery"} {
		b.Run(cfg, func(b *testing.B) {
			ip := build(b, typing.Relaxed, `
long g = 1;
entry long main(long x) { return g + x; }
`, "main")
			w := ip.mainThread().Normal()
			ws := stateOf(w)
			if cfg != "none" {
				ip.EnableBoundaryDefense(FullBoundary())
				ws.snap = ip.beginSnap()
			}
			if cfg == "boundary+recovery" {
				ip.EnableRecovery(1)
				ws.tx = ip.beginTx(0, &ws.txs)
			}
			addr := ip.globals[ip.Prog.Mod.Global("g")]
			if ws.tx != nil {
				// Buffer g, so every load merges the overlay.
				ip.memStore(w, addr, iv(2), ir.I64)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				loadSink = ip.memLoad(w, addr, ir.I64)
			}
			b.StopTimer()
			ip.publishCounts(ws)
		})
	}
}
