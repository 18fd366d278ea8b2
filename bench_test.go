package privagic_test

// This file maps every table and figure of the paper's evaluation (§9)
// onto a testing.B benchmark, so `go test -bench=. -benchmem` regenerates
// the whole evaluation. Reported custom metrics carry the paper's
// headline ratios; cmd/privagic-bench prints the full tables.

import (
	"strings"
	"testing"

	"privagic"
	"privagic/internal/bench"
	"privagic/internal/e2e"
	"privagic/internal/sources"
)

// BenchmarkFig9DataStructures regenerates Figure 9: the three data
// structures under YCSB with one color (Unprotected vs Privagic-1 vs
// Intel-sdk-1, machine A).
func BenchmarkFig9DataStructures(b *testing.B) {
	cfg := bench.DefaultFig9()
	cfg.Ops = 4000
	cfg.ListOps = 100
	var rep *bench.Fig9Report
	for i := 0; i < b.N; i++ {
		rep = bench.Fig9(cfg)
	}
	lo, hi := rep.Ratio("treemap", bench.Privagic1, bench.IntelSDK1)
	b.ReportMetric((lo+hi)/2, "treemap-privagic/intel")
	lo, hi = rep.Ratio("treemap", bench.Unprotected, bench.Privagic1)
	b.ReportMetric((lo+hi)/2, "treemap-unprot/privagic")
	lo, hi = rep.Ratio("hashmap", bench.Unprotected, bench.Privagic1)
	b.ReportMetric((lo+hi)/2, "hashmap-unprot/privagic")
	lo, hi = rep.Ratio("list", bench.Unprotected, bench.Privagic1)
	b.ReportMetric((lo+hi)/2, "list-unprot/privagic")
}

// BenchmarkFig10TwoColors regenerates Figure 10: the two-color hashmap
// (Privagic-2 vs Intel-sdk-2 latency, machine A, relaxed mode).
func BenchmarkFig10TwoColors(b *testing.B) {
	cfg := bench.DefaultFig10()
	cfg.Ops = 4000
	var rep *bench.Fig10Report
	for i := 0; i < b.N; i++ {
		rep = bench.Fig10(cfg)
	}
	b.ReportMetric(rep.LatencyRatio(bench.IntelSDK2, bench.Privagic2), "intel2/privagic2-latency")
	b.ReportMetric(rep.LatencyRatio(bench.Privagic2, bench.Unprotected), "privagic2/unprot-latency")
}

// BenchmarkFig8Memcached regenerates Figure 8: memcached with YCSB over
// dataset sizes 1 MiB – 32 GiB (Unprotected vs Privagic vs Scone,
// machine B).
func BenchmarkFig8Memcached(b *testing.B) {
	cfg := bench.DefaultFig8()
	cfg.Ops = 8000
	var rep *bench.Fig8Report
	for i := 0; i < b.N; i++ {
		rep = bench.Fig8(cfg)
	}
	small := cfg.Sizes[0]
	big := cfg.Sizes[len(cfg.Sizes)-1]
	b.ReportMetric(rep.Ratio(small, bench.PrivagicMemcached, bench.Scone), "privagic/scone-small")
	b.ReportMetric(rep.Ratio(big, bench.PrivagicMemcached, bench.Scone), "privagic/scone-32GiB")
	b.ReportMetric(rep.Ratio(small, bench.Unprotected, bench.PrivagicMemcached), "unprot/privagic-small")
}

// BenchmarkTable4TCB regenerates Table 4: the memcached TCB metrics
// (modified lines, enclave footprint, user code in the enclave).
func BenchmarkTable4TCB(b *testing.B) {
	var rep *bench.Table4Report
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = bench.Table4()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rep.PrivagicModifiedLines), "modified-locs")
	b.ReportMetric(rep.TCBReduction, "tcb-reduction-x")
	b.ReportMetric(rep.UserCodeReduction, "user-code-reduction-x")
}

// BenchmarkEffort regenerates the engineering-effort counts of
// §9.2.1/§9.3.1 (modified lines per ported program).
func BenchmarkEffort(b *testing.B) {
	var rep *bench.EffortReport
	for i := 0; i < b.N; i++ {
		rep = bench.Effort()
	}
	for _, row := range rep.Rows {
		unit := strings.NewReplacer(" ", "-", "(", "", ")", "").Replace(row.Program) + "-locs"
		b.ReportMetric(float64(row.ModifiedLines), unit)
	}
}

// BenchmarkFig3Motivation regenerates the Figure 3 motivation experiment
// (data-flow analysis leak vs compile-time rejection).
func BenchmarkFig3Motivation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Fig3(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompilePipeline measures the compiler itself on the memcached
// core: frontend + SSA + secure typing + partitioning.
func BenchmarkCompilePipeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := privagic.Compile("memcached_core.c", sources.MemcachedCoreColored,
			privagic.Options{Mode: privagic.Hardened}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationSpawnValidation measures the cost of the §8 spawn
// whitelist (our implementation of the paper's future-work defense): the
// partitioned memcached core runs with and without validation.
func BenchmarkAblationSpawnValidation(b *testing.B) {
	prog, err := privagic.Compile("memcached_core.c", sources.MemcachedCoreColored,
		privagic.Options{Mode: privagic.Hardened, Entries: []string{"run_ycsb"}})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("off", func(b *testing.B) {
		inst := prog.Instantiate(privagic.MachineB())
		defer inst.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := inst.Call("run_ycsb"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("on", func(b *testing.B) {
		inst := prog.Instantiate(privagic.MachineB())
		defer inst.Close()
		inst.EnableSpawnValidation()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := inst.Call("run_ycsb"); err != nil {
				b.Fatal(err)
			}
		}
		if inst.SupervisionStats().RejectedSpawns != 0 {
			b.Fatalf("validation rejected legitimate spawns: %d", inst.SupervisionStats().RejectedSpawns)
		}
	})
}

// BenchmarkPartitionedExecution measures end-to-end execution of the
// partitioned memcached core (600 YCSB driver ops) on the simulated SGX
// machine with real enclave workers and lock-free queues.
func BenchmarkPartitionedExecution(b *testing.B) {
	prog, err := privagic.Compile("memcached_core.c", sources.MemcachedCoreColored,
		privagic.Options{Mode: privagic.Hardened, Entries: []string{"run_ycsb"}})
	if err != nil {
		b.Fatal(err)
	}
	inst := prog.Instantiate(privagic.MachineB())
	defer inst.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := inst.Call("run_ycsb"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWorkload runs each end-to-end workload of BENCHMARK.json for a
// short end-to-end run per iteration, so a CPU profile of one workload
// needs no wrapper:
//
//	go test -run '^$' -bench 'Workload/memcached-hardened' -cpuprofile cpu.out .
//
// It reports the run's median latency and throughput; the benchmark's
// own ns/op is the whole run, setup included.
func BenchmarkWorkload(b *testing.B) {
	units := map[string]string{"latency_p50_us": "p50-us", "throughput_ops_s": "ops/s"}
	for _, name := range e2e.Workloads() {
		b.Run(name, func(b *testing.B) {
			var res *e2e.Result
			for i := 0; i < b.N; i++ {
				var log strings.Builder
				var err error
				res, err = e2e.Run(name, e2e.Options{Seed: 1, Seconds: 2, EndToEnd: true, Log: &log})
				if err != nil {
					b.Fatal(err)
				}
				if !res.Correct() {
					b.Fatalf("%s: %d wrong answers:\n%s", name, res.Wrong, log.String())
				}
			}
			for _, m := range res.Metrics {
				if u, ok := units[m.Name]; ok {
					b.ReportMetric(m.Value, u)
				}
			}
		})
	}
}
