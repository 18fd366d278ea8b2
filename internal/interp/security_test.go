package interp

import (
	"testing"

	"privagic/internal/ir"
	"privagic/internal/typing"
)

// TestSpawnValidationRejectsInjection exercises the §8 attack surface: an
// attacker with access to the unsafe-memory queues injects a spawn message
// for a chunk the compiler never scheduled on that enclave. With the
// whitelist enabled the worker refuses it; legitimate traffic still flows.
func TestSpawnValidationRejectsInjection(t *testing.T) {
	ip := build(t, typing.Relaxed, `
long color(blue) secret = 7;
long color(blue) stolen = 0;
entry void steal() {
	stolen = secret;
}
entry long get_secret() {
	return secret;
}
`, "steal", "get_secret")
	ip.EnableSpawnValidation()

	// Legitimate calls work.
	if _, err := ip.Call("steal"); err != nil {
		t.Fatalf("legitimate call rejected: %v", err)
	}

	// Find a chunk that does NOT belong to the blue worker's whitelist
	// by fabricating an impossible id, and also inject a *wrong-worker*
	// spawn: the U chunk of an entry sent to the blue enclave.
	var uChunkID = -1
	for _, pf := range ip.Prog.Funcs {
		for c, ch := range pf.Chunks {
			if c == ir.U {
				uChunkID = ch.ID
			}
		}
	}
	if uChunkID < 0 {
		t.Fatal("no U chunk found")
	}
	th := ip.mainThread()
	blueWorker := th.Worker(1)
	before := ip.RT.SupervisionStats().RejectedSpawns
	// Inject: normal-mode attacker enqueues a spawn for the U chunk on
	// the blue worker (never legitimate: U chunks run in normal mode).
	th.Normal().Spawn(1, uChunkID, nil)
	th.Normal().JoinOne() // the rejection still completes the join
	if got := ip.RT.SupervisionStats().RejectedSpawns; got != before+1 {
		t.Errorf("RejectedSpawns = %d, want %d", got, before+1)
	}
	_ = blueWorker

	// The system still serves legitimate requests afterwards.
	v, err := ip.Call("get_secret")
	if err != nil {
		t.Fatalf("post-injection call failed: %v", err)
	}
	if v != 7 {
		t.Errorf("get_secret = %d, want 7", v)
	}
}

// TestSpawnValidationOffByDefault documents the paper's current state
// (§8: validation is future work): without opting in, the injected spawn
// executes.
func TestSpawnValidationOffByDefault(t *testing.T) {
	ip := build(t, typing.Relaxed, `
long color(blue) counter = 0;
entry void bump() { counter = counter + 1; }
entry long read_counter() { return counter; }
`, "bump", "read_counter")

	// Locate bump's blue chunk and inject it directly, bypassing the
	// interface: without validation the worker happily runs it.
	var bumpBlue int = -1
	for _, pf := range ip.Prog.Funcs {
		if pf.Spec.Orig.FName == "bump" {
			for c, ch := range pf.Chunks {
				if c == ir.Named("blue") {
					bumpBlue = ch.ID
				}
			}
		}
	}
	if bumpBlue < 0 {
		t.Fatal("bump.blue not found")
	}
	th := ip.mainThread()
	th.Normal().Spawn(1, bumpBlue, []val{})
	th.Normal().JoinOne()
	v, err := ip.Call("read_counter")
	if err != nil {
		t.Fatal(err)
	}
	if v != 1 {
		t.Errorf("counter = %d; the injected spawn should have run (validation off)", v)
	}
	if ip.RT.SupervisionStats().RejectedSpawns != 0 {
		t.Error("spawns rejected without validation enabled")
	}
}
