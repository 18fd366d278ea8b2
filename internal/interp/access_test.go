package interp

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"privagic/internal/ir"
	"privagic/internal/prt"
	"privagic/internal/sgx"
	"privagic/internal/typing"
)

// TestBufferedStoreObeysCeiling stores far past the region ceiling from
// a blue chunk. The direct store (recovery off) and the buffered store
// (recovery on) must refuse it with the same error, at the faulting
// instruction, leaving the process alive and the region's extent as it
// was.
func TestBufferedStoreObeysCeiling(t *testing.T) {
	const src = `
long color(blue) sink = 0;
entry long poke(long k) {
	long color(blue)* p = &sink;
	p[k] = 1;
	return 0;
}
`
	for _, eng := range allEngines {
		t.Run(eng.String(), func(t *testing.T) {
			var msgs [2]string
			for i, recovery := range []bool{false, true} {
				ip := build(t, typing.Relaxed, src, "poke")
				if err := ip.SetEngine(eng); err != nil {
					t.Fatalf("SetEngine: %v", err)
				}
				buffered := 0
				if recovery {
					ip.EnableRecovery(2)
					ip.SetCrashPoint(func(_, _, _ int) any { buffered++; return nil })
				}
				blue := ip.RT.Space.Region(1)
				ext := blue.Extent()
				_, err := ip.Call("poke", 1<<34)
				if err == nil || !strings.Contains(err.Error(), "beyond region ceiling") {
					t.Fatalf("recovery=%v: poke(1<<34) error = %v, want a region-ceiling error", recovery, err)
				}
				msgs[i] = err.Error()
				if got := blue.Extent(); got != ext {
					t.Errorf("recovery=%v: blue extent moved from %d to %d", recovery, ext, got)
				}
				if _, err := ip.Call("poke", 0); err != nil {
					t.Fatalf("recovery=%v: poke(0) after the refused store: %v", recovery, err)
				}
				if recovery && buffered != 1 {
					t.Errorf("buffered stores = %d, want 1 (only poke(0)'s store passes the check)", buffered)
				}
			}
			if msgs[0] != msgs[1] {
				t.Errorf("direct and buffered stores disagree:\n  direct:   %s\n  buffered: %s", msgs[0], msgs[1])
			}
		})
	}
}

// TestBulkBuiltinsBoundLength hands every bulk builtin family a length
// past the region ceiling and a negative one. Each must be refused
// before the builtin allocates: a typed Iago violation with the
// sanitizer armed, a runtime error without it, and the instance keeps
// answering.
func TestBulkBuiltinsBoundLength(t *testing.T) {
	cases := []struct{ name, body string }{
		{"memcpy", `memcpy(buf, buf, n); return 0;`},
		{"strncpy", `strncpy(buf, buf, n); return 0;`},
		{"declassify", `declassify(buf, buf, n); return 0;`},
		{"memset", `memset(buf, 7, n); return 0;`},
		{"hash64", `return hash64(buf, n);`},
	}
	for _, c := range cases {
		src := `
ignore void declassify(char* dst, char* src, long n);
entry long f(long n) {
	char buf[16];
	` + c.body + `
}
`
		for _, armed := range []bool{false, true} {
			mode := typing.Relaxed
			if armed {
				mode = typing.Hardened
			}
			t.Run(c.name+"/"+mode.String(), func(t *testing.T) {
				ip := build(t, mode, src, "f")
				if armed {
					ip.EnableBoundaryDefense(FullBoundary())
				}
				for _, n := range []int64{1 << 36, -1} {
					_, err := ip.Call("f", n)
					if err == nil {
						t.Fatalf("f(%d) succeeded", n)
					}
					if iago := errors.Is(err, prt.ErrIagoViolation); iago != armed {
						t.Fatalf("f(%d) error = %v; Iago violation = %v, want %v", n, err, iago, armed)
					}
					if !armed && !strings.Contains(err.Error(), "region ceiling") {
						t.Fatalf("f(%d) error = %v, want a region-ceiling error", n, err)
					}
				}
				if _, err := ip.Call("f", 8); err != nil {
					t.Fatalf("f(8) after the refused lengths: %v", err)
				}
			})
		}
	}
}

// TestOnAccessSeesEveryAccess installs a counting OnAccess hook and runs
// one entry per memory-touching builtin: each must report its reads and
// writes of the global buffers it was handed.
func TestOnAccessSeesEveryAccess(t *testing.T) {
	ip := build(t, typing.Relaxed, `
ignore void classify_key(long* dst, long* src);
char dst[64];
char src[64];
long kdst;
long ksrc;
entry long do_memset() { memset(dst, 65, 8); return 0; }
entry long do_memcpy() { memcpy(dst, src, 8); return 0; }
entry long do_hash64() { return hash64(dst, 8); }
entry long do_strlen() { return strlen(dst); }
entry long do_strcmp() { return strcmp(dst, src); }
entry long do_classify_key() { classify_key(&kdst, &ksrc); return 0; }
`, "do_memset", "do_memcpy", "do_hash64", "do_strlen", "do_strcmp", "do_classify_key")
	addr := func(name string) uint64 { return ip.globals[ip.Prog.Mod.Global(name)] }
	type access struct {
		addr  uint64
		write bool
	}
	seen := map[access]int{}
	ip.OnAccess = func(a uint64, _ int64, write bool, _ sgx.Mode) { seen[access{a, write}]++ }
	cases := []struct {
		entry string
		want  []access
	}{
		{"do_memset", []access{{addr("dst"), true}}},
		{"do_memcpy", []access{{addr("src"), false}, {addr("dst"), true}}},
		{"do_hash64", []access{{addr("dst"), false}}},
		{"do_strlen", []access{{addr("dst"), false}}},
		{"do_strcmp", []access{{addr("dst"), false}, {addr("src"), false}}},
		{"do_classify_key", []access{{addr("ksrc"), false}, {addr("kdst"), true}}},
	}
	for _, c := range cases {
		clear(seen)
		if _, err := ip.Call(c.entry); err != nil {
			t.Fatalf("%s: %v", c.entry, err)
		}
		for _, a := range c.want {
			if seen[a] == 0 {
				t.Errorf("%s: OnAccess never saw the %s at %#x (saw %v)", c.entry, map[bool]string{false: "read", true: "write"}[a.write], a.addr, seen)
			}
		}
	}
}

// TestAccessPathAllocationFree runs a compiled body that loads and
// stores a global and requires zero allocations per run once warm, with
// no observer installed, in three configurations: no defense, the full
// boundary defense with an open snapshot, and recovery with a warm
// effect transaction. A buffer captured by an escaping closure anywhere
// on the path would show up here as one allocation per access.
func TestAccessPathAllocationFree(t *testing.T) {
	const src = `
long g = 1;
entry long main(long x) {
	g = g + x;
	return g;
}
`
	for _, cfg := range []string{"none", "boundary", "recovery"} {
		t.Run(cfg, func(t *testing.T) {
			ip := build(t, typing.Relaxed, src, "main")
			if err := ip.SetEngine(prt.EngineCompiled); err != nil {
				t.Fatalf("SetEngine: %v", err)
			}
			cf := ip.compiledFn(ip.Prog.Entries["main"].Chunks[ir.U].Fn)
			if cf == nil {
				t.Fatal("main's U chunk was not compiled")
			}
			w := ip.mainThread().Normal()
			ws := stateOf(w)
			switch cfg {
			case "boundary":
				ip.EnableBoundaryDefense(FullBoundary())
				ws.snap = ip.beginSnap()
			case "recovery":
				ip.EnableRecovery(1)
				ws.tx = ip.beginTx(0, &ws.txs)
			}
			args := []val{iv(1)}
			ip.runCompiled(cf, w, args, ip.live)
			if tx := ws.tx; tx != nil {
				// Warm: the overlay holds g's word and the logs have room.
				tx.redo = slices.Grow(tx.redo, 512)
				tx.arena = slices.Grow(tx.arena, 8*512)
			}
			allocs := testing.AllocsPerRun(100, func() { ip.runCompiled(cf, w, args, ip.live) })
			if allocs != 0 {
				t.Errorf("a compiled load and store allocate %.1f times per run, want 0", allocs)
			}
			bs := ip.BoundaryStats()
			switch {
			case cfg == "boundary" && (bs.SnapshotServed == 0 || bs.SanitizeChecks == 0):
				t.Errorf("the boundary layers did not run: %+v", bs)
			case cfg == "recovery" && len(ws.tx.redo) != 102:
				t.Errorf("buffered stores = %d, want 102", len(ws.tx.redo))
			}
		})
	}
}

// TestBulkBuiltinsReuseWorkerBuffer: once warm, a compiled memcpy,
// memset and hash64 of up to bulkRetain bytes stage through the worker's
// own buffer and allocate nothing; a longer one still runs correctly.
func TestBulkBuiltinsReuseWorkerBuffer(t *testing.T) {
	const src = `
char a[8192];
char b[8192];
entry long main(long n) {
	memset(b, 7, n);
	memcpy(a, b, n);
	return hash64(a, n);
}
`
	ip := build(t, typing.Relaxed, src, "main")
	if err := ip.SetEngine(prt.EngineCompiled); err != nil {
		t.Fatalf("SetEngine: %v", err)
	}
	cf := ip.compiledFn(ip.Prog.Entries["main"].Chunks[ir.U].Fn)
	if cf == nil {
		t.Fatal("main's U chunk was not compiled")
	}
	w := ip.mainThread().Normal()
	for _, n := range []int64{64, bulkRetain, bulkRetain + 1} {
		args := []val{iv(n)}
		got := ip.runCompiled(cf, w, args, ip.live)
		var h uint64 = 14695981039346656037
		for i := int64(0); i < n; i++ {
			h ^= 7
			h *= 1099511628211
		}
		if got != iv(int64(h)) {
			t.Fatalf("main(%d) = %v, want %d", n, got, int64(h))
		}
		allocs := testing.AllocsPerRun(20, func() { ip.runCompiled(cf, w, args, ip.live) })
		if n <= bulkRetain && allocs != 0 {
			t.Errorf("bulk builtins of %d bytes allocate %.1f times per run, want 0", n, allocs)
		}
		if n > bulkRetain && allocs == 0 {
			t.Errorf("bulk builtins of %d bytes, past the %d-byte buffer, did not allocate", n, bulkRetain)
		}
	}
}
