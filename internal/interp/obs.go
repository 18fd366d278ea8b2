package interp

import "privagic/internal/obs"

// EnableObservability arms the runtime tracer and publishes the
// interpreter's counters into reg (see OBSERVABILITY.md). Either argument
// may be nil: a nil tracer leaves structured tracing off, a nil registry
// skips metric registration. Like the other Enable* knobs, call it before
// the first Call; the metrics are gauge closures over counters the
// interpreter and runtime maintain anyway, so nothing new runs per access.
func (ip *Interp) EnableObservability(reg *obs.Registry, tr *obs.Tracer) {
	if tr != nil {
		ip.RT.Tracer = tr
	}
	if reg == nil {
		return
	}
	ip.RT.RegisterMetrics(reg)
	reg.Gauge("interp.effect_commits", ip.effCommits.Load)
	reg.Gauge("interp.effect_discards", ip.effDiscards.Load)
	reg.Gauge("interp.stack_pins", ip.stackPins.Load)
	reg.Gauge("interp.boundary.snapshot_copyins", ip.bStats.snapCopyIns.Load)
	reg.Gauge("interp.boundary.snapshot_served", ip.bStats.snapServed.Load)
	reg.Gauge("interp.boundary.trusted_loads", ip.bStats.trustedLoads.Load)
	reg.Gauge("interp.boundary.unsafe_loads", ip.bStats.unsafeLoads.Load)
	reg.Gauge("interp.boundary.sanitize_checks", ip.bStats.sanChecks.Load)
	reg.Gauge("interp.boundary.violations", ip.bStats.violations.Load)
	reg.Gauge("cross.vector_sends", ip.cross.vecSends.Load)
	reg.Gauge("cross.vector_waits", ip.cross.vecWaits.Load)
	reg.Gauge("cross.elem_reads", ip.cross.elemReads.Load)
	reg.Gauge("cross.fused_calls", ip.cross.fusedCalls.Load)
	reg.Gauge("exec.compile_us", ip.es.compileUS.Load)
	reg.Gauge("exec.compiled_dispatches", ip.es.compiledRuns.Load)
	reg.Gauge("exec.oracle_divergences", ip.es.divergences.Load)
}
