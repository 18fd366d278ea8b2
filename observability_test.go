package privagic

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"privagic/internal/sources"
)

// TestObservabilityFacade exercises the public observability surface end
// to end: arm metrics + tracer, run a partitioned program, and check that
// the snapshot carries catalogued runtime metrics, the trace exports as
// parseable Chrome JSON, the flight-record dump renders, and the exact
// per-kind totals reconcile.
func TestObservabilityFacade(t *testing.T) {
	src := `
int color(blue) blue = 10;
int f(int y) { return y + blue; }
entry int main() { return f(32); }
`
	prog, err := Compile("obs.c", src, Options{Mode: Relaxed, Entries: []string{"main"}})
	if err != nil {
		t.Fatal(err)
	}
	inst := prog.Instantiate(nil)
	defer inst.Close()
	inst.EnableObservability(ObservabilityOptions{Metrics: true, Trace: true})
	ret, err := inst.Call("main")
	if err != nil || ret != 42 {
		t.Fatalf("Call = %d, %v; want 42", ret, err)
	}

	snap := inst.MetricsSnapshot()
	if snap == nil {
		t.Fatal("MetricsSnapshot is nil with metrics enabled")
	}
	for _, name := range []string{"prt.chunk_exec_us.count", "prt.queue.enqueues", "obs.trace_events"} {
		if snap[name] <= 0 {
			t.Errorf("snapshot[%q] = %d, want > 0 (snapshot: %v)", name, snap[name], snap)
		}
	}
	// The blue global's initializer maps at least one 4 KiB page.
	if got := snap["interp.region_mapped_bytes"]; got <= 0 || got%4096 != 0 {
		t.Errorf("interp.region_mapped_bytes = %d; want a positive whole number of pages", got)
	}

	counts := inst.TraceCounts()
	if counts["spawn"] == 0 || counts["spawn"] != counts["spawn.end"] {
		t.Fatalf("TraceCounts spans unbalanced: %v", counts)
	}
	if snap["obs.trace_events"] != totalOf(counts) {
		t.Errorf("obs.trace_events = %d, but per-kind totals sum to %d",
			snap["obs.trace_events"], totalOf(counts))
	}

	var buf bytes.Buffer
	if err := inst.WriteChromeTrace(&buf); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace JSON does not parse: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("trace export is empty")
	}

	dump := inst.TraceDump(8)
	if dump == "" || !strings.Contains(dump, "spawn") {
		t.Fatalf("TraceDump does not show the schedule:\n%s", dump)
	}
}

func totalOf(counts map[string]int64) int64 {
	var n int64
	for _, v := range counts {
		n += v
	}
	return n
}

// TestObservabilityDisabledIsInert pins the fast path: with nothing
// enabled every accessor degrades to its zero value instead of panicking.
func TestObservabilityDisabledIsInert(t *testing.T) {
	src := `entry int main() { return 1; }`
	prog, err := Compile("plain.c", src, Options{Mode: Relaxed, Entries: []string{"main"}})
	if err != nil {
		t.Fatal(err)
	}
	inst := prog.Instantiate(nil)
	defer inst.Close()
	if _, err := inst.Call("main"); err != nil {
		t.Fatal(err)
	}
	if snap := inst.MetricsSnapshot(); snap != nil {
		t.Errorf("MetricsSnapshot = %v with observability off", snap)
	}
	if counts := inst.TraceCounts(); counts != nil {
		t.Errorf("TraceCounts = %v with observability off", counts)
	}
	if dump := inst.TraceDump(8); dump != "" {
		t.Errorf("TraceDump = %q with observability off", dump)
	}
	if err := inst.WriteChromeTrace(&bytes.Buffer{}); err == nil {
		t.Error("WriteChromeTrace must error with no tracer armed")
	}
}

// TestJournalUnloggedGauge: prt.journal.unlogged counts the journaled
// spawns of leaf chunks. The memcached core's batch spawns only its leaf
// store chunk, so the gauge equals prt.journal.spawns; the two-color
// hashmap's spawned chunks all exchange conts, so it reads 0.
func TestJournalUnloggedGauge(t *testing.T) {
	cases := []struct {
		name, src string
		mode      Mode
		all       bool
	}{
		{"memcached", sources.MemcachedCoreColored, Hardened, true},
		{"hashmap2", sources.HashmapColored2, Relaxed, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			prog, err := Compile(c.name+".c", c.src, Options{Mode: c.mode, Entries: []string{"run_ycsb"}})
			if err != nil {
				t.Fatal(err)
			}
			inst := prog.Instantiate(nil)
			defer inst.Close()
			inst.EnableRecovery(RecoveryOptions{MaxAttempts: 1})
			inst.EnableObservability(ObservabilityOptions{Metrics: true})
			if _, err := inst.Call("run_ycsb"); err != nil {
				t.Fatal(err)
			}
			snap := inst.MetricsSnapshot()
			spawns, unlogged := snap["prt.journal.spawns"], snap["prt.journal.unlogged"]
			want := int64(0)
			if c.all {
				want = spawns
			}
			if spawns == 0 || unlogged != want {
				t.Errorf("prt.journal.unlogged = %d of %d journaled spawns, want %d", unlogged, spawns, want)
			}
		})
	}
}
