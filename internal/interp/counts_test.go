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
// and all eight bytes through hash64 (the byte path). probe's blue chunk
// sends nothing before its Done: it is a leaf.
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

// replaySentSrc is replayWordSrc with one cont before the first store:
// probe's blue chunk reveals the g it read to its U chunk, which returns
// it. The chunk is not a leaf.
const replaySentSrc = `
ignore long reveal(long color(blue) v);
long color(blue) g = 72623859790382856;
long color(blue) h = 0;
long seen = 0;
entry long probe() {
	long a = g;
	char color(blue)* p = (char color(blue)*) &g;
	long c = p[3];
	long b = hash64(&g, 8);
	seen = reveal(a);
	h = a + b + c;
	return seen;
}
entry long peek() { return reveal(h); }
`

// crashAfterRewrite arms a crash at the first buffered store of the first
// spawned chunk that makes one, after rewriting g to all ones.
func crashAfterRewrite(ip *Interp) {
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
}

// probeIsLeaf reports whether probe's blue chunk is a leaf.
func probeIsLeaf(ip *Interp) bool {
	for _, ch := range ip.Prog.ChunkByID {
		if ch.Part.Spec.Fn.FName == "probe" && ch.Color.IsEnclave() {
			return ip.RT.Leaves[ch.ID]
		}
	}
	return false
}

// TestReplayServesWordAndBytePaths crashes probe's blue chunk at its
// first store, after the crash hook rewrote g. The chunk already sent
// the g it read to its U chunk, so the replay must be served from the
// load log, for the word core's loads as for the byte path's: h comes
// out as on an undisturbed run, not from the rewritten g.
func TestReplayServesWordAndBytePaths(t *testing.T) {
	for _, e := range allEngines {
		t.Run(e.String(), func(t *testing.T) {
			clean := withEngine(t, build(t, typing.Relaxed, replaySentSrc, "probe", "peek"), e)
			wantSeen := callOK(t, clean, "probe")
			wantH := callOK(t, clean, "peek")

			ip := withEngine(t, build(t, typing.Relaxed, replaySentSrc, "probe", "peek"), e)
			if probeIsLeaf(ip) {
				t.Fatal("probe's blue chunk sends a cont but is marked a leaf")
			}
			ip.EnableRecovery(2)
			crashAfterRewrite(ip)
			if got := callOK(t, ip, "probe"); got != wantSeen {
				t.Errorf("probe() = %d, want %d", got, wantSeen)
			}
			if rs := ip.RT.RecoveryStats(); rs.Replays != 1 || rs.Unlogged != 0 {
				t.Errorf("%d replays, %d unlogged spawns; want 1 and 0", rs.Replays, rs.Unlogged)
			}
			if got := callOK(t, ip, "peek"); got != wantH {
				t.Errorf("h = %d after the replay, want %d (the crashed attempt's loads)", got, wantH)
			}
		})
	}
}

// TestLeafReplayRunsFresh is TestReplayServesWordAndBytePaths on the
// leaf probe: no peer saw the crashed attempt, so its replay keeps no
// load log and runs fresh. h is computed from the rewritten g, with one
// replay and one commit.
func TestLeafReplayRunsFresh(t *testing.T) {
	for _, e := range allEngines {
		t.Run(e.String(), func(t *testing.T) {
			clean := withEngine(t, build(t, typing.Relaxed, replayWordSrc, "probe", "peek"), e)
			ref := clean.RT.Space.Resolve(clean.globals[clean.Prog.Mod.Global("g")])
			ref.Region.StoreWord(ref.Off, ^uint64(0))
			callOK(t, clean, "probe")
			wantH := callOK(t, clean, "peek")

			ip := withEngine(t, build(t, typing.Relaxed, replayWordSrc, "probe", "peek"), e)
			if !probeIsLeaf(ip) {
				t.Fatal("probe's blue chunk is not marked a leaf")
			}
			ip.EnableRecovery(2)
			crashAfterRewrite(ip)
			callOK(t, ip, "probe")
			rs := ip.RT.RecoveryStats()
			if commits, _ := ip.EffectStats(); rs.Replays != 1 || rs.Commits != 1 || commits != 1 {
				t.Errorf("%d replays, %d journal and %d effect commits; want 1 of each", rs.Replays, rs.Commits, commits)
			}
			if rs.Unlogged != rs.SpawnsJournaled {
				t.Errorf("%d of %d journaled spawns unlogged, want all", rs.Unlogged, rs.SpawnsJournaled)
			}
			if got := callOK(t, ip, "peek"); got != wantH {
				t.Errorf("h = %d after the replay, want %d (a fresh run on the rewritten g)", got, wantH)
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
