package faults_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"testing"

	"privagic"
	"privagic/internal/faults"
)

// The observability soak proves the tracer tells the truth under fire: the
// figure-6 program swept through seeded fault schedules with the metrics
// registry and tracer both armed, reconciling the tracer's exact per-kind
// event totals against the registry's counters after every schedule, and
// parsing the Chrome export of the last schedule. An event kind whose
// total drifts from its counter means an instrumentation point fired
// without its counterpart — precisely the lie a trace viewer would then
// show a human debugging a production incident.
//
// Per-schedule reconciliation uses TraceCounts, not the exported events:
// the ring buffers bound the exportable bodies, but the per-shard totals
// are exact across wraparound (drop.stale has no single counter twin — the
// stale-epoch counter aggregates three drop sites, only one of which
// traces — so it is the one kind left out).

// reconcile asserts every (event kind, metric) pair that must agree.
// Call it only after inst.Close(): Close joins the worker goroutines, so
// a chunk still executing when the entry call timed out has closed its
// span and published its counters by the time Close returns. It returns
// whether the schedule recorded any spawn at all — a schedule whose very
// first spawn message was dropped legitimately records none.
func reconcile(t *testing.T, seed int64, inst *privagic.Instance) bool {
	t.Helper()
	counts := inst.TraceCounts()
	snap := inst.MetricsSnapshot()
	if counts["spawn"] != counts["spawn.end"] {
		t.Errorf("seed %d: %d spawn vs %d spawn.end events; a chunk span never closed",
			seed, counts["spawn"], counts["spawn.end"])
	}
	pairs := []struct {
		event  string
		metric string
	}{
		{"abort", "prt.aborts"},
		{"timeout", "prt.timeouts"},
		{"reject.payload", "prt.payload_tampered"},
		{"drop.duplicate", "prt.dropped_duplicates"},
		{"replay.spawn", "prt.journal.replays"},
		{"replay.giveup", "prt.journal.giveups"},
	}
	for _, p := range pairs {
		if counts[p.event] != snap[p.metric] {
			t.Errorf("seed %d: %d %s events vs %s = %d; tracer and registry disagree",
				seed, counts[p.event], p.event, p.metric, snap[p.metric])
		}
	}
	hostile := snap["prt.hostile_spawns"] + snap["prt.hostile_conts"] + snap["prt.hostile_other"]
	if counts["reject.forged"] != hostile {
		t.Errorf("seed %d: %d reject.forged events vs %d hostile-message rejections",
			seed, counts["reject.forged"], hostile)
	}
	if counts["send"] < counts["spawn"] {
		t.Errorf("seed %d: %d send events for %d spawns; every spawn is a send",
			seed, counts["send"], counts["spawn"])
	}
	return counts["spawn"] > 0
}

// TestSoakTraceReconcile is the nightly observability acceptance sweep.
func TestSoakTraceReconcile(t *testing.T) {
	prog, err := privagic.Compile("figure6.c", figure6Src, privagic.Options{
		Mode: privagic.Relaxed, Entries: []string{"main"},
	})
	if err != nil {
		t.Fatal(err)
	}
	n := soakCount(faults.Schedules().Figure6, testing.Short())
	var out soakOutcome
	spawned := 0
	for seed := int64(1); seed <= int64(n); seed++ {
		inst := prog.Instantiate(nil)
		inst.EnableSpawnValidation()
		inst.EnableSupervision(privagic.SupervisionOptions{WaitTimeout: soakWaitTimeout})
		inst.EnableFaultInjection(faultClassFor(seed))
		// After the injector, so its counters land in snapshots too. The
		// rings stay at the cache-friendly default: reconciliation reads
		// exact totals, not the bounded event bodies.
		inst.EnableObservability(privagic.ObservabilityOptions{Metrics: true, Trace: true})

		res := callWithDeadline(t, inst, "main", seed, func() string {
			return fmt.Sprintf("faults: %+v", inst.FaultStats())
		})
		switch {
		case res.err == nil:
			if res.ret != 42 {
				t.Fatalf("seed %d: SILENT WRONG ANSWER: ret %d != 42", seed, res.ret)
			}
			out.correct++
		case errors.Is(res.err, privagic.ErrWaitTimeout):
			out.timeouts++
		case errors.Is(res.err, privagic.ErrEnclaveAbort):
			out.aborts++
		case errors.Is(res.err, privagic.ErrStopped):
			out.stopped++
		default:
			t.Fatalf("seed %d: untyped failure %v", seed, res.err)
		}
		// Close first: it joins the worker goroutines, so in-flight chunk
		// executions (a timeout returns to the joiner while replays still
		// run) finish and the totals quiesce before we compare them.
		inst.Close()
		if reconcile(t, seed, inst) {
			spawned++
		}

		if seed == int64(n) {
			// The last schedule's trace must export as parseable Chrome
			// trace_event JSON (the Perfetto acceptance criterion).
			var buf bytes.Buffer
			if err := inst.WriteChromeTrace(&buf); err != nil {
				t.Fatalf("trace export: %v", err)
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
		}
	}
	t.Logf("trace-reconcile soak over %d schedules: %d correct, %d timeouts, %d aborts, %d stopped; %d recorded spawns",
		n, out.correct, out.timeouts, out.aborts, out.stopped, spawned)
	if out.correct < n/2 {
		t.Errorf("only %d/%d schedules completed correctly; observability changed behavior", out.correct, n)
	}
	if spawned < n/2 {
		t.Errorf("only %d/%d schedules recorded any spawn; instrumentation is dark", spawned, n)
	}
}
