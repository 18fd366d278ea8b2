// Package e2e is the repository benchmark: four YCSB workloads timed from
// source to result — Compile, Instantiate, load, Call — on the partitioned
// runtime, plus the memcached cluster's network stack, with every answer
// checked against an independent Go model.
//
// Each workload makes two kinds of run. The end-to-end run measures what
// a user sees, with observability off: set-up time, throughput, request
// latency, allocation and live heap. The per-layer run arms the obs
// registry and tracer, records the benchmark's own spans, and reads each
// layer from outside through its public functions: compile phases,
// runtime chunks and waits, queue messages, boundary defenses, the Go
// runtime, and the store/wire/router layers of the cluster. README.md
// lists every metric, which end-to-end metric each layer metric should
// move, and how to compare two commits.
package e2e

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"privagic"
)

// Options configures one benchmark run of one workload.
type Options struct {
	// Seed derives every input that varies between runs: the op streams
	// and the memcached batches' LCG literals.
	Seed int64
	// Seconds sizes the runs by request count: the end-to-end run sends
	// the workload's rate×Seconds requests (about Seconds of work on a
	// 2-CPU host) and the per-layer run a quarter of that to each of its
	// two kinds of system.
	Seconds float64
	// Scale multiplies the data sizes, the records loaded before a run
	// (1 = full size).
	Scale float64
	// EndToEnd and PerLayer select the runs.
	EndToEnd, PerLayer bool
	// TraceOut, when set, is a directory the per-layer run writes its
	// spans and the runtime's own trace to, as Chrome trace_event JSON.
	TraceOut string
	// Log receives failure and wrong-answer reports (required).
	Log io.Writer
}

// Metric is one reported number.
type Metric struct {
	Name  string
	Unit  string
	Value float64
}

// Result is one workload's report.
type Result struct {
	Workload string
	// Metrics holds the declared metrics (BENCHMARK.json) of the runs
	// made, in declaration order.
	Metrics []Metric
	// Notes are printed beside the metrics but not declared: the failed
	// fraction, the GOMAXPROCS the workload ran under, and the end-to-end
	// run's measured request count.
	Notes []Metric
	// Attempted, Failed and Wrong count YCSB ops (loads included); Wrong
	// ops disagreed with the reference model and are also Failed.
	Attempted, Failed, Wrong int64
}

// Correct reports whether every answer matched its model.
func (r *Result) Correct() bool { return r.Wrong == 0 }

// workload is one input set of the benchmark.
type workload struct {
	name string
	// rate sizes every run by request count: a run of Options.Seconds
	// sends rate×Seconds requests in its measured phase, about Seconds of
	// work on a 2-vCPU Xeon VM of a busy shared host (the rates are its
	// measured medians).
	rate int
	// colored builds a partitioned workload's program; nil for the
	// cluster.
	colored func(seed int64) *colored
}

var workloads = []*workload{
	// Fig 8 memcached core, hardened, every defense armed: ~0.003 queue
	// messages per op, so the engine, boundary seams and journal dominate.
	{
		name:    "memcached-hardened",
		rate:    180,
		colored: memcachedHardened,
	},
	// Fig 10 two-color hashmap under YCSB-A: ~17 queue messages per op, so
	// queue hops and waits dominate.
	{
		name:    "hashmap2-relaxed",
		rate:    11000,
		colored: func(int64) *colored { return hashmap2Relaxed() },
	},
	// Fig 9 one-color tree under read-mostly YCSB-B: one Call round trip
	// per op, door latency without cross-enclave conts.
	{
		name:    "treemap-relaxed",
		rate:    35000,
		colored: func(int64) *colored { return treemapRelaxed() },
	},
	// 3-shard memcached cluster at R=2 under YCSB-A from 2 clients: no
	// Privagic runtime on the path, so runtime changes must not move it.
	{
		name: "cluster-ycsb-a",
		rate: 30000,
	},
}

// Workloads lists the workload names in benchmark order.
func Workloads() []string {
	out := make([]string, len(workloads))
	for i, w := range workloads {
		out[i] = w.name
	}
	return out
}

// Run benchmarks one workload on every CPU the process may use. On a
// 2-vCPU VM, one P made the partitioned workloads three to four times less
// steady over ten seeds. Once both the caller and the enclave worker are
// in the queue's parked sleep, the only P is idle, and Go's netpoller
// rounds the sub-millisecond sleep up to 1 ms. How often a handoff falls
// into that state follows the host's jitter.
func Run(name string, opts Options) (*Result, error) {
	var w *workload
	for _, c := range workloads {
		if c.name == name {
			w = c
		}
	}
	if w == nil {
		return nil, fmt.Errorf("e2e: unknown workload %q (have %v)", name, Workloads())
	}
	if opts.Scale <= 0 {
		opts.Scale = 1
	}
	r := &run{w: w, opts: opts, metrics: map[string]float64{},
		log: &failureLog{workload: name, seed: opts.Seed, out: opts.Log}}
	if w.colored != nil {
		r.c = w.colored(opts.Seed)
	}
	if opts.EndToEnd {
		if err := r.endToEnd(); err != nil {
			return nil, fmt.Errorf("e2e: %s: %w", name, err)
		}
	}
	if opts.PerLayer {
		if err := r.perLayer(); err != nil {
			return nil, fmt.Errorf("e2e: %s: %w", name, err)
		}
	}
	return r.result(), nil
}

// run is one workload's benchmark in progress.
type run struct {
	w       *workload
	c       *colored
	opts    Options
	log     *failureLog
	metrics map[string]float64
	notes   []Metric
}

func (r *run) set(name string, v float64) { r.metrics[name] = v }

// system is one set-up instance of a workload: its closed-loop clients
// and, when traced, the readers the per-layer run uses.
type system struct {
	clients  []client
	close    func()
	loadTime time.Duration
	// check reports a run-level model violation (nil: none to check).
	check func() string
	// counters snapshots the cumulative layer counters (traced only).
	counters func() map[string]int64
	// writeTrace exports the runtime's own trace (traced only).
	writeTrace func(io.Writer) error
	// layers measures the workload's own layers from outside.
	layers func(r *run, sp *spans) error
}

// setup builds one system: Compile + Instantiate + arm defenses + load
// for a partitioned workload, start + router + preload for the cluster.
func (r *run) setup(traced bool) (*system, error) {
	if r.c == nil {
		return clusterSetup(r, traced)
	}
	prog, err := r.c.compile("")
	if err != nil {
		return nil, err
	}
	s := &session{c: r.c, prog: prog, drv: r.c.newDriver(r.opts.Seed, r.opts.Scale), observe: traced, log: r.log}
	if err := s.open(); err != nil {
		return nil, err
	}
	sys := &system{
		clients:  []client{s},
		close:    s.close,
		loadTime: s.loadTime,
		check:    s.drv.check,
		layers: func(r *run, sp *spans) error {
			if err := compileLayers(r, sp); err != nil {
				return err
			}
			return differential(r)
		},
	}
	if traced {
		sys.counters = func() map[string]int64 {
			snap := s.inst.MetricsSnapshot()
			m := s.inst.Meter()
			snap["sgx.cycles"] = m.Cycles()
			snap["sgx.transitions"], _, _, _ = m.Counts()
			return snap
		}
		sys.writeTrace = func(w io.Writer) error { return s.inst.WriteChromeTrace(w) }
	}
	return sys, nil
}

// differential replays the start of the workload on the differential
// engine, which runs the interpreter and the compiled tier in lockstep:
// any disagreement is a wrong answer.
func differential(r *run) error {
	prog, err := r.c.compile(privagic.EngineDifferential)
	if err != nil {
		return err
	}
	s := &session{c: r.c, prog: prog, drv: r.c.newDriver(r.opts.Seed, r.opts.Scale), log: r.log}
	if err := s.open(); err != nil {
		return err
	}
	defer s.close()
	n := r.requests(1.0/200, 1)
	if _, err := drive([]client{s}, n, r.log, nil, 0); err != nil {
		return err
	}
	if d := s.inst.ExecStats().OracleDivergences; d > 0 {
		r.log.record(outcome{wrong: fmt.Sprintf("%d differential-oracle divergences", d)})
	}
	return nil
}

// Run-shape constants: the end-to-end run measures segments fresh
// systems; the per-layer run alternates perLayerPairs blocks between its
// untraced and traced systems.
const (
	segments      = 10
	perLayerPairs = 4
)

// requests is how many requests each client sends when a run part is
// worth frac of the run length.
func (r *run) requests(frac float64, clients int) int {
	return max(1, int(float64(r.w.rate)*r.opts.Seconds*frac)/clients)
}

// endToEnd is the untraced run. Each segment sets up a fresh system
// (timed: the set-up samples), warms it up untimed with a tenth of the
// segment, then sends the segment's requests. A fresh system per segment
// matters: each system settles into its own speed for its lifetime
// (goroutine placement, heap layout), so segments of one system would
// all share one draw. Throughput and p50 are medians over the segments.
// The segments send fixed counts, not timed stretches, because the live
// heap grows with the requests a system has served (each kv_op call's
// buf[64] stays in the program's memory).
func (r *run) endToEnd() error {
	var setups, tput, p50s, heaps []float64
	var ops int64
	var requests int
	var alloc uint64
	for i := 0; i < segments; i++ {
		runtime.GC()
		t0 := time.Now()
		sys, err := r.setup(false)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		n := r.requests(1.0/segments, len(sys.clients))
		b, err := drive(sys.clients, max(1, n/10), r.log, nil, 0)
		if err == nil {
			m0 := memStats()
			b, err = drive(sys.clients, n, r.log, nil, 0)
			alloc += memStats().TotalAlloc - m0.TotalAlloc
		}
		if err != nil {
			sys.close()
			return err
		}
		tput = append(tput, b.throughput())
		p50s = append(p50s, percentileUS(b.lat, 0.5))
		ops += b.ops
		requests += len(b.lat)
		if sys.check != nil {
			if msg := sys.check(); msg != "" {
				r.log.record(outcome{wrong: msg})
			}
		}
		// The system's live heap: what one more collection frees once
		// the system is closed.
		runtime.GC()
		with := memStats().HeapAlloc
		sys.close()
		runtime.GC()
		heaps = append(heaps, float64(with)-float64(memStats().HeapAlloc))
	}
	r.set("throughput_ops_s", median(tput))
	r.set("latency_p50_us", median(p50s))
	r.set("setup_s", median(setups))
	r.set("alloc_bytes_per_op", float64(alloc)/float64(ops))
	r.set("live_heap_mb", median(heaps)/(1<<20))
	r.notes = append(r.notes, Metric{"requests", "count", float64(requests)})
	return nil
}

// layerRates are the per-layer metrics that divide a cumulative counter's
// change over the traced blocks by the ops those blocks ran.
var layerRates = []struct {
	metric, counter string
	per             float64
}{
	{"sim_cycles_per_op", "sgx.cycles", 1},
	{"prt.chunks_per_op", "prt.chunk_exec_us.count", 1},
	{"prt.chunk_exec_us_per_op", "prt.chunk_exec_us.sum", 1},
	{"exec.dispatches_per_op", "exec.compiled_dispatches", 1},
	{"prt.waits_per_op", "prt.wait_block_us.count", 1},
	{"prt.wait_block_us_per_op", "prt.wait_block_us.sum", 1},
	{"queue.msgs_per_op", "prt.queue.enqueues", 1},
	{"queue.parks_per_op", "prt.queue.parks", 1},
	{"sgx.transitions_per_op", "sgx.transitions", 1},
	{"cross.vector_sends_per_op", "cross.vector_sends", 1},
	{"cross.elem_reads_per_op", "cross.elem_reads", 1},
	{"cross.fused_calls_per_op", "cross.fused_calls", 1},
	{"boundary.sanitize_checks_per_op", "interp.boundary.sanitize_checks", 1},
	{"boundary.snapshot_served_per_op", "interp.boundary.snapshot_served", 1},
	{"boundary.snapshot_copyins_per_op", "interp.boundary.snapshot_copyins", 1},
	{"boundary.unsafe_loads_per_op", "interp.boundary.unsafe_loads", 1},
	{"effects.commits_per_op", "interp.effect_commits", 1},
	{"journal.spawns_per_op", "prt.journal.spawns", 1},
	{"cluster.retries_per_kop", "cluster.retries", 1000},
	{"cluster.hedges_per_kop", "cluster.hedges", 1000},
	{"repl.replica_writes_per_op", "repl.replica_writes", 1},
	{"repl.fallback_reads_per_kop", "repl.fallback_reads", 1000},
	{"repl.read_repairs_per_kop", "repl.read_repairs", 1000},
}

// perLayer is the traced run: perLayerPairs pairs of fresh systems, an
// untraced A and a traced B, each warmed up and then sent the same
// fixed-count block in alternating order. A gives the latency tail, its
// read/write split and the Go runtime's costs; B's registry gives the layer counts
// (a fixed count, so they repeat exactly per seed); the median of the
// pairs' throughput ratios is the tracing overhead. The workload's own
// layers are measured beside the last pair.
func (r *run) perLayer() error {
	sp := newSpans()
	var aAll, bAll block
	var ratios, loads []float64
	var mallocs, gcs, pauseNS uint64
	counts := map[string]int64{}
	for i := 0; i < perLayerPairs; i++ {
		a, err := r.setup(false)
		if err != nil {
			return err
		}
		id := sp.begin("setup.traced", 0, 0)
		b, err := r.setup(true)
		sp.end(id)
		if err != nil {
			a.close()
			return err
		}
		p, err := r.measurePair(i, a, b, sp)
		if err == nil {
			mallocs += p.ms1.Mallocs - p.ms0.Mallocs
			gcs += uint64(p.ms1.NumGC - p.ms0.NumGC)
			pauseNS += p.ms1.PauseTotalNs - p.ms0.PauseTotalNs
			aAll.merge(p.a)
			bAll.merge(p.b)
			ratios = append(ratios, p.b.throughput()/p.a.throughput())
			for k, v := range p.after {
				counts[k] += v - p.before[k]
			}
		}
		loads = append(loads, a.loadTime.Seconds())
		if err == nil && i == perLayerPairs-1 {
			err = a.layers(r, sp)
			if err == nil && r.opts.TraceOut != "" {
				err = r.writeTraces(sp, b)
			}
		}
		a.close()
		b.close()
		if err != nil {
			return err
		}
	}

	r.set("setup.load_s", median(loads))
	r.set("obs.overhead_frac", 1-median(ratios))
	r.set("latency_p99_us", percentileUS(aAll.lat, 0.99))
	r.set("read_p99_us", percentileUS(aAll.readLat, 0.99))
	r.set("write_p99_us", percentileUS(aAll.writeLat, 0.99))
	r.set("go.allocs_per_op", float64(mallocs)/float64(aAll.ops))
	r.set("go.gc_cycles_per_kop", 1000*float64(gcs)/float64(aAll.ops))
	r.set("go.gc_pause_us_per_kop", float64(pauseNS)/float64(aAll.ops)) // ns/op = µs/kop
	for _, l := range layerRates {
		r.set(l.metric, l.per*float64(counts[l.counter])/float64(bAll.ops))
	}
	if n := counts["cluster.data_rtt_us.count"]; n > 0 {
		r.set("cluster.data_rtt_us_mean", float64(counts["cluster.data_rtt_us.sum"])/float64(n))
	}
	r.set("memcached.shed_ops", float64(counts["memcached.shed_ops"]))
	return nil
}

// pair is what one A/B pair measured: both blocks, the Go runtime's
// counters around A's block and B's layer counters around B's block.
type pair struct {
	a, b          *block
	ms0, ms1      runtime.MemStats
	before, after map[string]int64
}

// measurePair warms up systems a (untraced) and b (traced), then runs
// one block on each, A first on even pairs.
func (r *run) measurePair(i int, a, b *system, sp *spans) (*pair, error) {
	n := r.requests(1.0/4/perLayerPairs, len(a.clients))
	for _, s := range []*system{a, b} {
		if _, err := drive(s.clients, max(1, n/10), r.log, nil, 0); err != nil {
			return nil, err
		}
	}
	p := &pair{}
	runA := func() (err error) {
		p.ms0 = memStats()
		p.a, err = drive(a.clients, n, r.log, nil, 0)
		p.ms1 = memStats()
		return err
	}
	runB := func() (err error) {
		p.before = b.counters()
		id := sp.begin("block", 0, 0)
		p.b, err = drive(b.clients, n, r.log, sp, id)
		sp.end(id)
		p.after = b.counters()
		return err
	}
	first, second := runA, runB
	if i%2 == 1 {
		first, second = runB, runA
	}
	if err := first(); err != nil {
		return nil, err
	}
	return p, second()
}

// writeTraces exports the benchmark's spans and the traced system's own
// runtime trace.
func (r *run) writeTraces(sp *spans, b *system) error {
	if err := os.MkdirAll(r.opts.TraceOut, 0o755); err != nil {
		return err
	}
	for suffix, write := range map[string]func(io.Writer) error{
		"bench":   sp.writeChrome,
		"runtime": b.writeTrace,
	} {
		f, err := os.Create(filepath.Join(r.opts.TraceOut, r.w.name+"."+suffix+".json"))
		if err != nil {
			return err
		}
		if err := write(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}

// result assembles the report: every declared metric of the runs made
// (0 where a layer does not exist on this workload) and the notes.
func (r *run) result() *Result {
	res := &Result{
		Workload:  r.w.name,
		Attempted: r.log.attempted.Load(),
		Failed:    r.log.failed.Load(),
		Wrong:     r.log.wrong.Load(),
	}
	add := func(defs []metricDef) {
		for _, d := range defs {
			res.Metrics = append(res.Metrics, Metric{d.name, d.unit, r.metrics[d.name]})
		}
	}
	if r.opts.EndToEnd {
		add(endToEndMetrics)
	}
	if r.opts.PerLayer {
		add(perLayerMetrics)
	}
	frac := 0.0
	if res.Attempted > 0 {
		frac = float64(res.Failed) / float64(res.Attempted)
	}
	res.Notes = append([]Metric{{"failed_frac", "1", frac}, {"gomaxprocs", "count", float64(runtime.GOMAXPROCS(0))}}, r.notes...)
	return res
}

// scaled multiplies a full-size count by scale, keeping it positive.
func scaled(n int, scale float64) int { return max(1, int(float64(n)*scale+0.5)) }
