//go:build !race

package faults

// raceBuild reports whether the race detector is compiled in.
const raceBuild = false

// Full soak sweeps (race-free build). Each pair of sweeps clears the
// 1000-schedule acceptance floor of its soak on its own: 700 + 320.
var soakBudget = SoakBudget{
	Figure6:  700,
	TwoColor: 320,

	RecoveryFigure6:   700,
	RecoveryTwoColor:  320,
	RecoveryMemcached: 300,

	RecoveryTwoColorOptimized: 320,

	IagoFigure6:  700,
	IagoTwoColor: 320,

	IagoTwoColorOptimized: 320,

	ClusterChaos:   520,
	ClusterRelaxed: 130,

	GrayChaos:   520,
	GrayControl: 130,

	DiffChaos: 360,
	DiffIago:  200,

	DiffOptimized: 200,
}
