# Tier-1 is the gate every change must keep green; tier-2 adds vet and
# the race detector over the concurrency-heavy packages (runtime, queue,
# fault injector — the soak shrinks itself under -race via build tags —
# the interpreter, whose workers own the compiled tier's frame lists, and
# sgx, whose region extent is read without the allocation lock and whose
# 4 KiB pages are read and written without any lock).

GO ?= go

.PHONY: tier1 lint fmtcheck audit tier2 soak tier3-soak tier3-iago tier3-obs tier3-cluster tier3-grayfail tier3-replication tier3-compile tier3-stack fuzz bench artifacts fmt

tier1: lint fmtcheck
	$(GO) build ./...
	$(GO) test ./...
	$(MAKE) audit

# Project vet-style checks (internal/lint): colorcmp + rawsend +
# docmetric (code <-> OBSERVABILITY.md metric catalogue agreement).
lint:
	$(GO) run ./cmd/privagic-lint .

# gofmt gate: fails when any Go file under the listed roots is not
# gofmt-clean (the fmt target below rewrites them).
fmtcheck:
	@out=$$(gofmt -l $$(ls -d cmd examples internal *.go)); \
	if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# Strict translation validation: the static leak auditor must re-prove
# the boundary invariants on every example program's partition, in both
# modes, with zero violations (the golden tests assert the same, but this
# target exercises the -audit=strict driver path end to end).
audit:
	$(GO) run ./cmd/privagic-bench -exp audit -quick

tier2: tier1
	$(GO) vet ./...
	$(GO) test -race ./internal/prt ./internal/queue ./internal/faults ./internal/cluster ./internal/netfaults ./internal/memcached ./internal/passes/compile ./internal/interp ./internal/sgx

# The full 1000+-schedule robustness sweep, race-free build for speed.
soak:
	$(GO) test -count=1 -run 'TestSoak' -v ./internal/faults

# Tier-3: the crash-recovery acceptance soak (1000+ seeded crash schedules,
# every run must recover to the exact answer) plus the recovery ablation.
# Nightly/manual in CI — too slow for the per-push gate.
tier3-soak:
	$(GO) test -count=1 -run 'TestSoakRecovery' -v -timeout 30m ./internal/faults
	$(GO) run ./cmd/privagic-bench -exp recovery

# Tier-3: the Iago boundary-defense acceptance soak (1000+ seeded
# U-memory mutator schedules: hardened mode must return the exact answer
# or a typed violation — never silent corruption — and the relaxed
# negative control must detect nothing) plus the boundary ablation.
tier3-iago:
	$(GO) test -count=1 -run 'TestSoakIago|TestIagoRelaxed' -v -timeout 30m ./internal/faults
	$(GO) run ./cmd/privagic-bench -exp iago

# Tier-3: the observability acceptance sweep (700 seeded fault schedules
# with metrics + tracer armed, trace export must parse and event totals
# must reconcile with the registry) plus the overhead ablation.
tier3-obs:
	$(GO) test -count=1 -run 'TestSoakTraceReconcile' -v -timeout 30m ./internal/faults
	$(GO) run ./cmd/privagic-bench -exp obs

# Tier-3: the sharded-cluster chaos soak (500+ seeded schedules of
# mid-run shard kills/hangs/respawns under R=2 with a one-fault budget:
# every acknowledged write must stay readable — zero loss, never stale
# or foreign, with zero deadlocks; the relaxed control — overload
# without faults — must show zero spurious failovers, handoffs, or
# read-repairs) plus the scaling/failover-blackout experiment.
tier3-cluster:
	$(GO) test -count=1 -run 'TestClusterChaosSoak|TestClusterRelaxedSoak' -v -timeout 30m ./internal/cluster
	$(GO) run ./cmd/privagic-bench -exp cluster

# Tier-3: the gray-failure chaos soak (500+ seeded schedules of latency
# spikes, asymmetric partitions, connection resets and wire corruption
# through fault-injecting proxies, under R=2 with a one-fault budget:
# every acknowledged write must stay readable — zero loss, only typed
# failures, zero deadlocks; the relaxed control — clean proxies — must
# show zero spurious breaker trips, demotions, handoffs, or
# read-repairs) plus the demotion-latency / hedged-read experiment.
tier3-grayfail:
	$(GO) test -count=1 -run 'TestClusterGrayFailSoak|TestClusterGrayControlSoak' -v -timeout 30m ./internal/cluster
	$(GO) run ./cmd/privagic-bench -exp grayfail

# Tier-3: the replication acceptance pass. The deterministic replication
# suite (write-through fan-out, fallback reads, read-repair, tombstone
# zombie-refusal, readmission ordering, handoff overflow) plus the
# replication experiment: R=2 vs R=1 tax within 35%, a zero-loss outage
# drill, and every defense counter nonzero. The randomized zero-loss
# soaks themselves run under tier3-cluster and tier3-grayfail.
tier3-replication:
	$(GO) test -count=1 -run 'TestRouter|TestHandoff|TestRing|TestStoreRangeDigest' -v -timeout 30m ./internal/cluster
	$(GO) run ./cmd/privagic-bench -exp replication

# Tier-3: the differential-oracle acceptance soak (500+ seeded schedules
# of the compiled tier under the interpreter oracle: the recovery soak's
# crash classes and the Iago soak's mutator classes, every run must end
# in the exact answer or a typed error with zero divergences) plus the
# compile experiment (>= 5x speedup on the interpreter-bound workload,
# differential equality).
tier3-compile:
	$(GO) test -count=1 -run 'TestSoakDifferential' -v -timeout 30m ./internal/faults
	$(GO) run ./cmd/privagic-bench -exp compile

# Tier-3: the worker-stack gate. Both repros of stack memory that was
# never given back run 10M Calls on every engine: a function with a
# 64 KiB local array (it used to hit the 256 MiB region ceiling after
# 4,095 Calls) and the benchmark's kv_op on the treemap (after about
# 4.2M Calls).
tier3-stack:
	$(GO) test -count=1 -run 'TestStackRepros' -v -timeout 120m ./internal/interp -stackcalls 10000000

# 60-second coverage-guided smoke of the memcached protocol fuzzer,
# starting from the checked-in corpus in
# internal/memcached/testdata/fuzz/FuzzProtocol.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzProtocol -fuzztime 60s ./internal/memcached

bench:
	$(GO) run ./cmd/privagic-bench -quick

# Regenerate the committed BENCH_*.json artifacts at full config, each a
# JSON envelope (host, Go version, commit, gate verdicts, report). The
# command is built with go build, not go run, so the envelope carries the
# commit it measured. Every artifact is rewritten even when one of its
# gates fails; the target then fails too.
BENCH_BIN ?= .bench_build/privagic-bench
artifacts:
	$(GO) build -o $(BENCH_BIN) ./cmd/privagic-bench
	rc=0; for e in cluster replication crossopt compile recovery; do \
		$(BENCH_BIN) -exp $$e -json > BENCH_$$e.json || rc=1; \
	done; exit $$rc

fmt:
	gofmt -l -w $$(ls -d cmd examples internal *.go)
