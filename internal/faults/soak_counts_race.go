//go:build race

package faults

// raceBuild reports whether the race detector is compiled in.
const raceBuild = true

// Reduced sweeps for `go test -race`: the detector slows every queue
// operation by an order of magnitude, so the full 1000+ schedules per
// soak would dominate CI. Each reduced sweep still covers all of its
// fault classes under the detector.
var soakBudget = SoakBudget{
	Figure6:  80,
	TwoColor: 24,

	RecoveryFigure6:  60,
	RecoveryTwoColor: 20,

	IagoFigure6:  60,
	IagoTwoColor: 20,

	ClusterChaos:   32,
	ClusterRelaxed: 12,

	GrayChaos:   24,
	GrayControl: 10,

	DiffChaos: 40,
	DiffIago:  24,
}
