package faults

// SoakBudget is the schedule count of each tier-3 soak sweep. The values
// live in one build-tagged variable (soak_counts_full.go /
// soak_counts_race.go): the race-enabled build shrinks every sweep so
// `go test -race` stays in CI budget while still exercising every fault
// class under the detector. Tests read the counts through Schedules() so
// the tag selection happens in exactly one place.
type SoakBudget struct {
	// Supervision soak (soak_test.go): message-level faults, every run
	// must end in the correct answer or a typed error.
	Figure6  int
	TwoColor int

	// Recovery soak (recovery_soak_test.go): injected crashes capped at
	// the replay budget, every run must fully recover. The memcached
	// sweep is the one whose journaled spawns are leaves.
	RecoveryFigure6   int
	RecoveryTwoColor  int
	RecoveryMemcached int
	// The optimized classes compile the two-color hashmap with the
	// crossing optimizer on, as the benchmark does, so its rewrites run
	// under each soak's oracle.
	RecoveryTwoColorOptimized int

	// Iago soak (iago_soak_test.go): the U-memory mutator adversary,
	// hardened mode must return the exact answer or a typed violation.
	IagoFigure6           int
	IagoTwoColor          int
	IagoTwoColorOptimized int

	// Cluster soak (internal/cluster/chaos_soak_test.go): shard-level
	// chaos (kill/hang/respawn mid-run) against the router, every Get
	// must be fresh-or-miss; the relaxed sweep runs overload without
	// faults and must see zero spurious failovers.
	ClusterChaos   int
	ClusterRelaxed int

	// Gray-failure soak (internal/cluster/grayfail_soak_test.go):
	// network-level degradation (latency spikes, asymmetric partitions,
	// resets, corruption) through fault-injecting proxies while every
	// shard stays alive; every Get fresh-or-miss, every failure typed.
	// The control sweep runs the same traffic through clean proxies and
	// must see zero breaker trips and zero demotions.
	GrayChaos   int
	GrayControl int

	// Differential soak (differential_soak_test.go): the compiled
	// execution tier under the interpreter oracle, swept through the
	// recovery soak's crash schedules and the Iago soak's mutator
	// classes. Every schedule must end in the exact answer or a typed
	// error with zero divergences.
	DiffChaos int
	DiffIago  int
	// DiffOptimized runs each seed's crash schedule and mutator class
	// over the optimized two-color hashmap.
	DiffOptimized int
}

// Schedules returns the build's soak schedule counts.
func Schedules() SoakBudget { return soakBudget }

// SoakCount is the number of schedules a sweep of n runs. Under -short
// a race-free build runs a tenth of them (at least 8), so the full
// sweeps stay nightly-only; a race build's budget is already the reduced
// one and runs as it is, since a tenth of it is too few schedules to
// meet the sweep-level bars.
func SoakCount(n int, short bool) int {
	if short && !raceBuild {
		n /= 10
		if n < 8 {
			n = 8
		}
	}
	return n
}

// CounterSource is the uniform counter surface every fault class
// exports: adversary activity as name -> count, so harnesses can
// aggregate and print what an attack did without knowing which
// adversary produced it.
type CounterSource interface {
	Counters() map[string]int64
}

var (
	_ CounterSource = (*Injector)(nil)
	_ CounterSource = (*Mutator)(nil)
)
