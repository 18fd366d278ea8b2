package e2e

// metricDef is one declared metric. The names, units and order match
// BENCHMARK.json at the repository root (a test holds them together);
// directions, bounds and what each metric should move are in README.md.
type metricDef struct{ name, unit string }

// endToEndMetrics are what a user of the system sees, measured with
// observability off.
var endToEndMetrics = []metricDef{
	{"throughput_ops_s", "ops/s"},
	{"latency_p50_us", "us"},
	{"setup_s", "s"},
	{"alloc_bytes_per_op", "B"},
	{"live_heap_mb", "MiB"},
}

// perLayerMetrics come from the per-layer run. The latency tail is here
// rather than end to end: on a 2-vCPU VM its spread over ten seeds
// reached 0.31, past the largest bound a regression gate can use. A layer
// that a workload does not have reports 0 (compile phases and runtime
// counts on the cluster, cluster layers on the partitioned workloads, the
// read/write split on memcached-hardened, whose requests are mixed
// batches).
var perLayerMetrics = []metricDef{
	{"latency_p99_us", "us"},
	{"read_p99_us", "us"},
	{"write_p99_us", "us"},
	{"sim_cycles_per_op", "cycles"},

	{"minic.parse_us", "us"},
	{"passes.ssa_us", "us"},
	{"typing.analyze_us", "us"},
	{"partition.partition_us", "us"},
	{"crossing.optimize_us", "us"},
	{"audit.validate_us", "us"},
	{"interp.instantiate_us", "us"},
	{"compile.lower_us", "us"},
	{"setup.load_s", "s"},
	{"setup.phase_sum_frac", "1"},
	{"ir.instrs", "count"},
	{"partition.chunks", "count"},

	{"prt.chunks_per_op", "count"},
	{"prt.chunk_exec_us_per_op", "us"},
	{"exec.dispatches_per_op", "count"},
	{"prt.waits_per_op", "count"},
	{"prt.wait_block_us_per_op", "us"},

	{"queue.msgs_per_op", "count"},
	{"queue.parks_per_op", "count"},
	{"sgx.transitions_per_op", "count"},

	{"cross.vector_sends_per_op", "count"},
	{"cross.elem_reads_per_op", "count"},
	{"cross.fused_calls_per_op", "count"},

	{"boundary.sanitize_checks_per_op", "count"},
	{"boundary.snapshot_served_per_op", "count"},
	{"boundary.snapshot_copyins_per_op", "count"},
	{"boundary.unsafe_loads_per_op", "count"},
	{"effects.commits_per_op", "count"},
	{"journal.spawns_per_op", "count"},

	{"go.allocs_per_op", "count"},
	{"go.gc_cycles_per_kop", "count"},
	{"go.gc_pause_us_per_kop", "us"},

	{"memcached.store_p50_us", "us"},
	{"memcached.store_p99_us", "us"},
	{"memcached.wire_p50_us", "us"},
	{"memcached.wire_p99_us", "us"},
	{"cluster.router_p50_us", "us"},
	{"cluster.router_p99_us", "us"},
	{"memcached.wire_self_us", "us"},
	{"cluster.router_self_us", "us"},
	{"cluster.data_rtt_us_mean", "us"},
	{"cluster.retries_per_kop", "count"},
	{"cluster.hedges_per_kop", "count"},
	{"repl.replica_writes_per_op", "count"},
	{"repl.fallback_reads_per_kop", "count"},
	{"repl.read_repairs_per_kop", "count"},
	{"memcached.shed_ops", "count"},

	{"obs.overhead_frac", "1"},
}
