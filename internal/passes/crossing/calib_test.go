package crossing_test

// Calibration and differential tests for the crossing analyzer and
// optimizer, over the runnable example corpus:
//
//   - TestCalibration is the ±10% acceptance gate: the analyzer's static
//     predicted crossings/op must land within 10% of what the tracer
//     actually measures, program by program (split-malloc traffic is
//     excluded from the static side — the runtime performs those
//     allocations without queue messages, so the tracer cannot see them).
//
//   - TestOptimizerDifferential is the soak: every runnable program is
//     compiled twice (reference vs OptimizeCrossings, both under strict
//     audit) and run to completion; return values and program output
//     must match exactly, and the optimizer must never increase the
//     measured message count.

import (
	"testing"

	"privagic"
	"privagic/internal/obs"
	"privagic/internal/passes/crossing"
	"privagic/internal/sources"
)

// runnable is the corpus with runnable entries: (name, src, entry, args).
var runnable = []struct {
	name  string
	src   string
	entry string
	args  []int64
}{
	{"figure6", sources.Figure6, "main", nil},
	{"hashmap1", sources.HashmapColored1, "run_ycsb", []int64{64, 100}},
	{"hashmap2", sources.HashmapColored2, "run_ycsb", []int64{64, 100}},
	{"memcached", sources.MemcachedCoreColored, "run_ycsb", []int64{64, 100}},
}

func TestCalibration(t *testing.T) {
	for _, p := range runnable {
		for _, optimize := range []bool{false, true} {
			name := p.name
			if optimize {
				name += "_optimized"
			}
			t.Run(name, func(t *testing.T) {
				opts := privagic.Options{
					Mode:              privagic.Relaxed,
					Entries:           []string{p.entry},
					OptimizeCrossings: optimize,
				}
				prog, err := privagic.Compile(p.name+".c", p.src, opts)
				if err != nil {
					t.Fatal(err)
				}
				rep := prog.CrossingReports(nil)[p.entry]
				if rep == nil {
					t.Fatalf("no crossing report for entry %s", p.entry)
				}

				inst := prog.Instantiate(nil)
				defer inst.Close()
				inst.EnableObservability(privagic.ObservabilityOptions{Trace: true, TraceBuffer: 1 << 16})
				if _, err := inst.Call(p.entry, p.args...); err != nil {
					t.Fatal(err)
				}
				var sends []crossing.TraceSend
				for _, ev := range inst.TraceEvents() {
					if ev.Kind == obs.EvSend {
						sends = append(sends, crossing.TraceSend{
							Chunk: int(ev.Chunk), Tag: int(ev.Tag), Dst: int(ev.Worker),
						})
					}
				}
				measured := 0.0
				for _, m := range crossing.MeasuredEdges(sends, rep.OpsPerCall) {
					measured += m
				}
				// Split allocations ride the boundary without queue
				// messages: invisible to the tracer, excluded here.
				static := 0.0
				for _, e := range rep.Edges {
					if e.Kind != crossing.KindSplit {
						static += e.PerOp
					}
				}
				if measured == 0 {
					t.Fatalf("tracer measured no crossings (static %.3f)", static)
				}
				dev := 100 * (static - measured) / measured
				t.Logf("static %.3f vs measured %.3f crossings/op (%+.1f%%)", static, measured, dev)
				if dev > 10 || dev < -10 {
					t.Errorf("static prediction off by %+.1f%% (static %.3f, measured %.3f); the ±10%% calibration gate failed",
						dev, static, measured)
				}
			})
		}
	}
}

func TestOptimizerDifferential(t *testing.T) {
	for _, p := range runnable {
		t.Run(p.name, func(t *testing.T) {
			run := func(optimize bool) (int64, string, int64) {
				opts := privagic.Options{
					Mode:              privagic.Relaxed,
					Entries:           []string{p.entry},
					Audit:             privagic.AuditStrict,
					OptimizeCrossings: optimize,
				}
				prog, err := privagic.Compile(p.name+".c", p.src, opts)
				if err != nil {
					t.Fatalf("compile (optimize=%v): %v", optimize, err)
				}
				inst := prog.Instantiate(nil)
				defer inst.Close()
				ret, err := inst.Call(p.entry, p.args...)
				if err != nil {
					t.Fatalf("run (optimize=%v): %v", optimize, err)
				}
				_, msgs, _, _ := inst.Meter().Counts()
				return ret, inst.Output(), msgs
			}
			rret, rout, rmsgs := run(false)
			oret, oout, omsgs := run(true)
			if rret != oret {
				t.Errorf("optimized run diverged: ret %d vs %d", rret, oret)
			}
			if rout != oout {
				t.Errorf("optimized run diverged in output:\nref:\n%s\nopt:\n%s", rout, oout)
			}
			if omsgs > rmsgs {
				t.Errorf("optimizer increased message count: %d -> %d", rmsgs, omsgs)
			}
			t.Logf("messages %d -> %d", rmsgs, omsgs)
		})
	}
}

// kvSrc is the Fig 10 hashmap with a one-op entry, the shape the
// benchmark drives: kind 1 reads a key, anything else writes it.
const kvSrc = sources.HashmapColored2 + `
entry long kv_op(long kind, long key) {
	char color(blue) buf[64];
	if (kind == 1) { return map_get(key); }
	map_put(key, buf);
	return 1;
}
`

// TestSunkEdgesPricedPerActivation checks the analyzer's pricing of sunk
// conts against the tracer: once per loop activation, not per node. The
// map is loaded first, so every measured get and put finds its key, its
// walk enters the loop, and each consumer receives exactly one cont per
// activation — the static 0.5 per op (a get or a put, each half the
// time) — however long the chain it walked.
func TestSunkEdgesPricedPerActivation(t *testing.T) {
	prog, err := privagic.Compile("kv.c", kvSrc, privagic.Options{
		Mode: privagic.Relaxed, Entries: []string{"kv_op"}, OptimizeCrossings: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := prog.CrossingReports(nil)["kv_op"]
	inst := prog.Instantiate(nil)
	defer inst.Close()
	inst.EnableObservability(privagic.ObservabilityOptions{Trace: true, TraceBuffer: 1 << 14})
	const keys, ops = 40, 400
	call := func(kind, key int64) {
		t.Helper()
		if _, err := inst.Call("kv_op", kind, key); err != nil {
			t.Fatal(err)
		}
	}
	sendsByKey := func() map[crossing.EdgeKey]float64 {
		var sends []crossing.TraceSend
		for _, ev := range inst.TraceEvents() {
			if ev.Kind == obs.EvSend {
				sends = append(sends, crossing.TraceSend{Chunk: int(ev.Chunk), Tag: int(ev.Tag), Dst: int(ev.Worker)})
			}
		}
		return crossing.MeasuredEdges(sends, 1)
	}
	for k := int64(0); k < keys; k++ {
		call(2, k)
	}
	before := sendsByKey()
	for i := int64(0); i < ops; i++ {
		call(1+i%2, (i*7)%keys)
	}
	after := sendsByKey()
	sunk := 0
	for _, e := range rep.Edges {
		if e.Kind != crossing.KindSunk {
			continue
		}
		sunk++
		k := crossing.EdgeKey{Kind: crossing.KindCont, Tag: e.Tag, DstChunk: e.DstChunk}
		measured := (after[k] - before[k]) / ops
		t.Logf("%s -> %s tag %d: static %.3f, measured %.3f per op", e.From, e.To, e.Tag, e.PerOp, measured)
		if d := e.PerOp - measured; d > 0.005 || d < -0.005 {
			t.Errorf("sunk edge %s -> %s (tag %d): static %.3f/op, measured %.3f/op", e.From, e.To, e.Tag, e.PerOp, measured)
		}
	}
	if sunk != 3 {
		t.Fatalf("report has %d sunk edges, want 3 (map_get to blue, map_put to U and blue)", sunk)
	}
}
