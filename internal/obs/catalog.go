package obs

// MetricDef is one row of the metric catalogue: the machine-readable twin
// of the table in OBSERVABILITY.md. The docmetric analyzer in
// internal/lint cross-checks this literal against both the document and
// every registration call site, so a metric cannot ship undocumented and
// a documented metric cannot silently stop being exported.
type MetricDef struct {
	Name      string // snapshot key (sources contribute prefix.key)
	Type      string // "counter", "gauge", or "histogram"
	Unit      string // "1" for dimensionless counts, else e.g. "us", "items"
	Subsystem string // owning package
	Help      string // one-line semantics
}

// Catalog enumerates every metric the runtime can export. Keep it a pure
// literal: docmetric parses it with go/ast, not by executing it.
var Catalog = []MetricDef{
	// prt supervision (gauges over supCounters in internal/prt/supervise.go).
	{Name: "prt.rejected_spawns", Type: "gauge", Unit: "1", Subsystem: "prt", Help: "spawn messages refused at the admit gate (bad stamp, stale epoch, unknown chunk)"},
	{Name: "prt.rejected_conts", Type: "gauge", Unit: "1", Subsystem: "prt", Help: "continuation messages refused at the admit gate"},
	{Name: "prt.hostile_spawns", Type: "gauge", Unit: "1", Subsystem: "prt", Help: "forged spawn messages (authStamp mismatch) dropped before decode"},
	{Name: "prt.hostile_conts", Type: "gauge", Unit: "1", Subsystem: "prt", Help: "forged continuation messages dropped before decode"},
	{Name: "prt.hostile_other", Type: "gauge", Unit: "1", Subsystem: "prt", Help: "forged messages of any other kind dropped before decode"},
	{Name: "prt.dropped_stale", Type: "gauge", Unit: "1", Subsystem: "prt", Help: "messages from a fenced-off epoch discarded (admit gate, stream reset, pending prune)"},
	{Name: "prt.dropped_duplicates", Type: "gauge", Unit: "1", Subsystem: "prt", Help: "redelivered messages deduplicated by per-stream sequence"},
	{Name: "prt.aborts", Type: "gauge", Unit: "1", Subsystem: "prt", Help: "chunk executions that panicked and were converted to EnclaveAbort"},
	{Name: "prt.timeouts", Type: "gauge", Unit: "1", Subsystem: "prt", Help: "waits that exceeded the quiescence window and returned ErrWaitTimeout"},
	{Name: "prt.drained", Type: "gauge", Unit: "1", Subsystem: "prt", Help: "messages drained during graceful worker shutdown"},
	{Name: "prt.payload_tampered", Type: "gauge", Unit: "1", Subsystem: "prt", Help: "messages whose FNV-1a payload tag failed verification at the admit gate"},

	// prt recovery journal (gauges over journal counters in internal/prt/journal.go).
	{Name: "prt.journal.spawns", Type: "gauge", Unit: "1", Subsystem: "prt", Help: "spawns journaled for deterministic replay"},
	{Name: "prt.journal.commits", Type: "gauge", Unit: "1", Subsystem: "prt", Help: "effect transactions committed before Done was published"},
	{Name: "prt.journal.replays", Type: "gauge", Unit: "1", Subsystem: "prt", Help: "chunk re-executions driven from the journal after a crash"},
	{Name: "prt.journal.giveups", Type: "gauge", Unit: "1", Subsystem: "prt", Help: "spawns abandoned after the replay budget was exhausted"},

	// prt transport queues (gauges aggregated across worker queues).
	{Name: "prt.queue.depth", Type: "gauge", Unit: "items", Subsystem: "queue", Help: "messages currently resident across all worker queues"},
	{Name: "prt.queue.enqueues", Type: "gauge", Unit: "1", Subsystem: "queue", Help: "total messages enqueued across all worker queues"},
	{Name: "prt.queue.dequeues", Type: "gauge", Unit: "1", Subsystem: "queue", Help: "total messages dequeued across all worker queues"},
	{Name: "prt.queue.parks", Type: "gauge", Unit: "1", Subsystem: "queue", Help: "blocking waits that parked"},
	{Name: "prt.queue.park_us", Type: "gauge", Unit: "us", Subsystem: "queue", Help: "total microseconds blocking waits spent parked"},

	// prt latency histograms (count/sum/max exported as name.count etc).
	{Name: "prt.chunk_exec_us", Type: "histogram", Unit: "us", Subsystem: "prt", Help: "wall time of one chunk execution, spawn accept to Done publish"},
	{Name: "prt.wait_block_us", Type: "histogram", Unit: "us", Subsystem: "prt", Help: "wall time each Wait spent blocked before its tag arrived (0 when the cont was already buffered)"},
	{Name: "prt.queue.hop_us", Type: "histogram", Unit: "us", Subsystem: "queue", Help: "wall time of one message hop, send to admit at the receiver's gate (the first and every 8th message of each stream)"},

	// interp effect transactions and boundary defense.
	{Name: "interp.effect_commits", Type: "gauge", Unit: "1", Subsystem: "interp", Help: "effect-transaction overlays committed to backing memory"},
	{Name: "interp.effect_discards", Type: "gauge", Unit: "1", Subsystem: "interp", Help: "effect-transaction overlays discarded on abort"},
	{Name: "interp.stack_pins", Type: "gauge", Unit: "1", Subsystem: "interp", Help: "worker-stack pins: frames held to the Call boundary because their address left the worker or a crashed attempt reached them"},
	{Name: "interp.region_mapped_bytes", Type: "gauge", Unit: "bytes", Subsystem: "interp", Help: "bytes held by mapped 4 KiB pages of simulated memory, summed over regions"},
	{Name: "interp.boundary.snapshot_copyins", Type: "gauge", Unit: "1", Subsystem: "interp", Help: "U words copied into enclave-private snapshots at barrier entry; counted per worker, published when an activation ends"},
	{Name: "interp.boundary.snapshot_served", Type: "gauge", Unit: "1", Subsystem: "interp", Help: "U word reads served from a snapshot instead of live U memory; counted per worker, published when an activation ends"},
	{Name: "interp.boundary.trusted_loads", Type: "gauge", Unit: "1", Subsystem: "interp", Help: "loads that resolved to S memory and bypassed the defense path; counted per worker, published when an activation ends"},
	{Name: "interp.boundary.unsafe_loads", Type: "gauge", Unit: "1", Subsystem: "interp", Help: "loads that touched live U memory outside snapshot coverage; counted per worker, published when an activation ends"},
	{Name: "interp.boundary.sanitize_checks", Type: "gauge", Unit: "1", Subsystem: "interp", Help: "addresses validated against the memory map, one per checked access; counted per worker, published when an activation ends"},
	{Name: "interp.boundary.violations", Type: "gauge", Unit: "1", Subsystem: "interp", Help: "sanitization failures surfaced as ErrIagoViolation; counted as raised"},

	// fault injection (CounterSource under the "inject" prefix).
	{Name: "inject.delivered", Type: "counter", Unit: "1", Subsystem: "faults", Help: "messages the injector passed through unmodified"},
	{Name: "inject.dropped", Type: "counter", Unit: "1", Subsystem: "faults", Help: "messages the injector silently dropped"},
	{Name: "inject.duplicated", Type: "counter", Unit: "1", Subsystem: "faults", Help: "messages the injector delivered twice"},
	{Name: "inject.delayed", Type: "counter", Unit: "1", Subsystem: "faults", Help: "messages the injector held back before delivery"},
	{Name: "inject.reordered", Type: "counter", Unit: "1", Subsystem: "faults", Help: "messages the injector delivered out of order"},
	{Name: "inject.forged", Type: "counter", Unit: "1", Subsystem: "faults", Help: "hostile messages the injector fabricated"},
	{Name: "inject.crashes", Type: "counter", Unit: "1", Subsystem: "faults", Help: "enclave crashes the injector forced mid-chunk"},
	{Name: "inject.retransmitted", Type: "counter", Unit: "1", Subsystem: "faults", Help: "messages re-sent by the injector's retransmit schedule"},

	// U-memory mutator (CounterSource under the "mutate" prefix).
	{Name: "mutate.flips", Type: "counter", Unit: "1", Subsystem: "faults", Help: "double-fetch word flips inside the TOCTOU window"},
	{Name: "mutate.smashes", Type: "counter", Unit: "1", Subsystem: "faults", Help: "persistent pointer smashes of live split-struct slots"},
	{Name: "mutate.payload_mutations", Type: "counter", Unit: "1", Subsystem: "faults", Help: "in-place rewrites of message payload words"},
	{Name: "mutate.restores", Type: "counter", Unit: "1", Subsystem: "faults", Help: "mutated words restored after the victim read"},

	// memcached server.
	{Name: "memcached.shed_ops", Type: "gauge", Unit: "1", Subsystem: "memcached", Help: "operations refused with SERVER_ERROR busy under backpressure"},
	{Name: "memcached.inflight", Type: "gauge", Unit: "items", Subsystem: "memcached", Help: "operations currently admitted and executing"},
	{Name: "memcached.get_hits", Type: "gauge", Unit: "1", Subsystem: "memcached", Help: "GET operations that found the key"},
	{Name: "memcached.get_misses", Type: "gauge", Unit: "1", Subsystem: "memcached", Help: "GET operations that missed"},
	{Name: "memcached.evictions", Type: "gauge", Unit: "1", Subsystem: "memcached", Help: "items evicted by the LRU store"},
	{Name: "memcached.curr_items", Type: "gauge", Unit: "items", Subsystem: "memcached", Help: "items currently resident in the store"},

	// cluster router and shard lifecycle (gauges over the router's own
	// atomics in internal/cluster; see DESIGN.md §14).
	{Name: "cluster.routes", Type: "gauge", Unit: "1", Subsystem: "cluster", Help: "operations routed to an owning shard"},
	{Name: "cluster.retries", Type: "gauge", Unit: "1", Subsystem: "cluster", Help: "operation attempts re-sent after a transient failure (backoff applied)"},
	{Name: "cluster.sheds", Type: "gauge", Unit: "1", Subsystem: "cluster", Help: "operations surfaced to the caller as busy after the retry budget"},
	{Name: "cluster.route_errors", Type: "gauge", Unit: "1", Subsystem: "cluster", Help: "operations surfaced to the caller as transport errors after the retry budget"},
	{Name: "cluster.stale_rejects", Type: "gauge", Unit: "1", Subsystem: "cluster", Help: "gets whose stored ownership generation predates the owner's tenure, served as misses"},
	{Name: "cluster.failovers", Type: "gauge", Unit: "1", Subsystem: "cluster", Help: "shards declared dead: epoch fenced, key ranges re-routed to survivors"},
	{Name: "cluster.readmits", Type: "gauge", Unit: "1", Subsystem: "cluster", Help: "respawned shards readmitted to the ring at a fresh epoch"},
	{Name: "cluster.adoptions", Type: "gauge", Unit: "1", Subsystem: "cluster", Help: "replaced shards whose new incarnation a probe adopted before the fence tripped: detected without a failover"},
	{Name: "cluster.probes", Type: "gauge", Unit: "1", Subsystem: "cluster", Help: "health probes sent (version command, outside admission control)"},
	{Name: "cluster.probe_failures", Type: "gauge", Unit: "1", Subsystem: "cluster", Help: "health probes that errored or timed out"},
	{Name: "cluster.shards_up", Type: "gauge", Unit: "items", Subsystem: "cluster", Help: "shards currently in the ring"},
	{Name: "cluster.ring_generation", Type: "gauge", Unit: "1", Subsystem: "cluster", Help: "ownership generation, bumped on every ring membership change"},
	{Name: "cluster.failover_detect_us", Type: "histogram", Unit: "us", Subsystem: "cluster", Help: "time from first observed failure of a shard to its fence"},

	// cluster gray-failure defenses (gauges over router atomics; DESIGN.md §15).
	{Name: "cluster.demotions", Type: "gauge", Unit: "1", Subsystem: "cluster", Help: "slow-but-alive shards demoted out of the ring by latency health scoring"},
	{Name: "cluster.promotions", Type: "gauge", Unit: "1", Subsystem: "cluster", Help: "demoted shards promoted back after their data-path RTT recovered"},
	{Name: "cluster.breaker_trips", Type: "gauge", Unit: "1", Subsystem: "cluster", Help: "per-shard circuit breakers tripped open by consecutive data-path failures"},
	{Name: "cluster.breaker_fastfails", Type: "gauge", Unit: "1", Subsystem: "cluster", Help: "operation attempts refused instantly by an open breaker (no wire I/O)"},
	{Name: "cluster.hedges", Type: "gauge", Unit: "1", Subsystem: "cluster", Help: "hedge gets launched after the adaptive delay with no primary response"},
	{Name: "cluster.hedge_wins", Type: "gauge", Unit: "1", Subsystem: "cluster", Help: "hedged gets where the hedge answered before the primary"},
	{Name: "cluster.corrupt_rejects", Type: "gauge", Unit: "1", Subsystem: "cluster", Help: "gets whose end-to-end integrity tag failed verification, purged and served as misses"},
	{Name: "cluster.demote_detect_us", Type: "histogram", Unit: "us", Subsystem: "cluster", Help: "time from a shard's first over-threshold latency evaluation to its demotion"},
	{Name: "cluster.data_rtt_us", Type: "histogram", Unit: "us", Subsystem: "cluster", Help: "data-path round-trip time of successful shard operations"},

	// cluster replication: replica write-through, hinted handoff, and
	// anti-entropy readmission (gauges over router atomics; DESIGN.md §16).
	{Name: "repl.replica_writes", Type: "gauge", Unit: "1", Subsystem: "cluster", Help: "backup-member setx writes completed by the replicated write path"},
	{Name: "repl.replica_write_errors", Type: "gauge", Unit: "1", Subsystem: "cluster", Help: "backup-member setx attempts that failed (the write retries until all members hold it)"},
	{Name: "repl.lww_refused", Type: "gauge", Unit: "1", Subsystem: "cluster", Help: "setx attempts refused by a member's last-writer-wins register (a newer stamp was present)"},
	{Name: "repl.fallback_reads", Type: "gauge", Unit: "1", Subsystem: "cluster", Help: "gets answered by a non-primary replica after the primary was skipped, erred, or trusted-missed"},
	{Name: "repl.read_repairs", Type: "gauge", Unit: "1", Subsystem: "cluster", Help: "divergent replicas repaired at read time with the served value (CAS-guarded)"},
	{Name: "repl.repair_conflicts", Type: "gauge", Unit: "1", Subsystem: "cluster", Help: "read-repairs that stood down because a newer write won the CAS race"},
	{Name: "repl.tombstones", Type: "gauge", Unit: "1", Subsystem: "cluster", Help: "deletes replicated as stamped tombstones across the replica set"},
	{Name: "repl.hints_queued", Type: "gauge", Unit: "1", Subsystem: "cluster", Help: "writes queued as hinted handoff for a down replica-set member"},
	{Name: "repl.hint_overflows", Type: "gauge", Unit: "1", Subsystem: "cluster", Help: "hint-queue overflows (queue discarded, shard flagged for forced full sync)"},
	{Name: "repl.hints_drained", Type: "gauge", Unit: "1", Subsystem: "cluster", Help: "queued hints replayed into a readmitting shard before ring entry"},
	{Name: "repl.hints_discarded", Type: "gauge", Unit: "1", Subsystem: "cluster", Help: "hints dropped by queue overflow (recovered by the forced full sync, never silently)"},
	{Name: "repl.syncs", Type: "gauge", Unit: "1", Subsystem: "cluster", Help: "anti-entropy syncs completed (shard entered the ring with full trust)"},
	{Name: "repl.sync_retries", Type: "gauge", Unit: "1", Subsystem: "cluster", Help: "sync passes restarted because ring membership moved or the hint queue overflowed mid-sync"},
	{Name: "repl.sync_segments", Type: "gauge", Unit: "1", Subsystem: "cluster", Help: "ring segments digest-compared during anti-entropy syncs"},
	{Name: "repl.sync_divergent", Type: "gauge", Unit: "1", Subsystem: "cluster", Help: "segment/source pairs that diverged (or were force-pulled) and were copied key by key"},
	{Name: "repl.sync_keys", Type: "gauge", Unit: "1", Subsystem: "cluster", Help: "keys copied into an entering shard by anti-entropy pulls"},
	{Name: "repl.full_syncs", Type: "gauge", Unit: "1", Subsystem: "cluster", Help: "syncs that ran with the digest shortcut forbidden after a hint-queue overflow"},
	{Name: "repl.stamp_clamps", Type: "gauge", Unit: "1", Subsystem: "cluster", Help: "writes whose per-key stamp saturated at the stamp-space ceiling (strict LWW ordering lost for that key; the router needs a wider stamp split)"},
	{Name: "repl.stamps_pruned", Type: "gauge", Unit: "1", Subsystem: "cluster", Help: "per-key stamp-oracle entries reclaimed by the generation-floor sweep (redundant below the current ring-generation floor)"},
	{Name: "repl.tombs_purged", Type: "gauge", Unit: "1", Subsystem: "cluster", Help: "tombstones purged from shard stores by the generation-floor sweep (each store records the floor so zombies below it cannot re-insert)"},
	{Name: "repl.sync_us", Type: "histogram", Unit: "us", Subsystem: "cluster", Help: "wall time of one completed anti-entropy sync, start to ring entry"},
	{Name: "repl.handoff_drain_us", Type: "histogram", Unit: "us", Subsystem: "cluster", Help: "wall time to replay one batch of queued hints into a readmitting shard"},

	// network fault proxy (CounterSource under the "netfault" prefix).
	{Name: "netfault.conns", Type: "counter", Unit: "1", Subsystem: "netfaults", Help: "connections accepted and proxied to the backing shard listener"},
	{Name: "netfault.delayed_chunks", Type: "counter", Unit: "1", Subsystem: "netfaults", Help: "forwarded chunks held back by injected latency or bandwidth throttling"},
	{Name: "netfault.dropped_chunks", Type: "counter", Unit: "1", Subsystem: "netfaults", Help: "forwarded chunks blackholed by a directional partition"},
	{Name: "netfault.resets", Type: "counter", Unit: "1", Subsystem: "netfaults", Help: "proxied connections reset mid-message by the fault schedule"},
	{Name: "netfault.corrupted_chunks", Type: "counter", Unit: "1", Subsystem: "netfaults", Help: "forwarded chunks with injected byte corruption"},

	// gray-failure chaos monkey (CounterSource under the "gray" prefix).
	{Name: "gray.latency_spikes", Type: "counter", Unit: "1", Subsystem: "faults", Help: "per-link latency/jitter spikes injected by the gray chaos schedule"},
	{Name: "gray.throttles", Type: "counter", Unit: "1", Subsystem: "faults", Help: "per-link bandwidth throttles injected"},
	{Name: "gray.partitions", Type: "counter", Unit: "1", Subsystem: "faults", Help: "asymmetric blackholes injected (probe path up/data path down or the reverse)"},
	{Name: "gray.resets_armed", Type: "counter", Unit: "1", Subsystem: "faults", Help: "mid-message reset faults armed on a link"},
	{Name: "gray.corruptions_armed", Type: "counter", Unit: "1", Subsystem: "faults", Help: "byte-corruption faults armed on a link"},
	{Name: "gray.heals", Type: "counter", Unit: "1", Subsystem: "faults", Help: "links restored to a clean fault-free state"},

	// shard chaos monkey (CounterSource under the "chaos" prefix).
	{Name: "chaos.kills", Type: "counter", Unit: "1", Subsystem: "faults", Help: "shards killed mid-run (connections severed, listener closed)"},
	{Name: "chaos.hangs", Type: "counter", Unit: "1", Subsystem: "faults", Help: "shards hung mid-run (responses stalled past client deadlines)"},
	{Name: "chaos.respawns", Type: "counter", Unit: "1", Subsystem: "faults", Help: "killed shards respawned with a cold store and a fresh epoch"},

	// crossing optimizer runtime effects (internal/passes/crossing;
	// gauges over interpreter counters, DESIGN.md §17).
	{Name: "cross.vector_sends", Type: "gauge", Unit: "1", Subsystem: "interp", Help: "vectored cont messages sent (each replaces several adjacent reference-plan conts)"},
	{Name: "cross.vector_waits", Type: "gauge", Unit: "1", Subsystem: "interp", Help: "vectored cont messages received and stashed for element reads"},
	{Name: "cross.elem_reads", Type: "gauge", Unit: "1", Subsystem: "interp", Help: "element reads served from a stashed vectored cont (no message traffic)"},
	{Name: "cross.fused_calls", Type: "gauge", Unit: "1", Subsystem: "interp", Help: "direct calls into a fused message-free unsafe chunk executed on the spawner's worker"},

	// execution engine (gauges over execCounters in internal/interp/interp.go).
	{Name: "exec.compile_us", Type: "gauge", Unit: "us", Subsystem: "interp", Help: "wall time SetEngine spent lowering the unit to closure-compiled steps"},
	{Name: "exec.compiled_dispatches", Type: "gauge", Unit: "1", Subsystem: "interp", Help: "chunk and helper bodies executed on the compiled tier"},
	{Name: "exec.oracle_divergences", Type: "gauge", Unit: "1", Subsystem: "interp", Help: "differential-oracle failures (any nonzero value is a compiler bug caught in the act)"},

	// the tracer's own accounting.
	{Name: "obs.trace_events", Type: "gauge", Unit: "1", Subsystem: "obs", Help: "trace events recorded since the tracer was armed"},
	{Name: "obs.trace_dropped", Type: "gauge", Unit: "1", Subsystem: "obs", Help: "recorded events already overwritten by ring wraparound"},
}
