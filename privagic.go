// Package privagic is a reproduction of "Privagic: automatic code
// partitioning with explicit secure typing" (Tanigassalame et al.,
// MIDDLEWARE 2024): a compiler and runtime that automatically partitions a
// multi-threaded C-like application between Intel SGX enclaves and unsafe
// memory, driven by explicit secure types (colors) instead of data-flow
// analysis.
//
// The public API mirrors the paper's toolchain (Figure 5):
//
//	prog, err := privagic.Compile("app.c", source, privagic.Options{
//		Mode: privagic.Hardened,
//	})
//	inst := prog.Instantiate(nil) // simulated SGX machine
//	defer inst.Close()
//	ret, err := inst.Call("main")
//
// Source programs are written in MiniC — a C subset with the paper's
// annotations: color(NAME) type qualifiers (Figure 1), and the entry,
// within, and ignore function attributes (§6.2–§6.4).
package privagic

import (
	"fmt"
	"io"
	"time"

	"privagic/internal/audit"
	"privagic/internal/faults"
	"privagic/internal/interp"
	"privagic/internal/ir"
	"privagic/internal/minic"
	"privagic/internal/obs"
	"privagic/internal/partition"
	"privagic/internal/passes"
	"privagic/internal/passes/crossing"
	"privagic/internal/prt"
	"privagic/internal/sgx"
	"privagic/internal/typing"
)

// Mode selects the compiler mode of paper §5.
type Mode = typing.Mode

// Compiler modes: Hardened enforces confidentiality, integrity and Iago
// protection; Relaxed drops Iago protection and allows Free values to cross
// enclaves in cont messages (required for multi-color structures, §8).
const (
	Hardened = typing.Hardened
	Relaxed  = typing.Relaxed
)

// Audit levels for Options.Audit, re-exported from internal/audit.
const (
	AuditOff    = audit.Off
	AuditWarn   = audit.Warn
	AuditStrict = audit.Strict
)

// Engine selects the chunk execution tier (Options.Engine).
type Engine string

// Execution engines: the closure-compiled tier (the default: every SSA
// instruction fused into a pre-resolved step closure, crossing the same
// seams as the interpreter, ~an order of magnitude faster on
// compute-bound chunks), the reference interpreter (the baseline the
// compiled tier's speedup is measured against), and the differential
// oracle (runs the interpreter live and the compiled tier as its shadow
// per chunk, and turns any disagreement in results, effects, message
// plans, or typed errors into an ErrDivergence — the harness the
// compiled tier is validated under).
const (
	EngineInterp       Engine = "interp"
	EngineCompiled     Engine = "compiled"
	EngineDifferential Engine = "differential"
)

// interpEngine maps the public engine name to the interpreter's
// selector; the empty name is the compiled tier.
func (e Engine) interpEngine() (interp.Engine, error) {
	switch e {
	case "", EngineCompiled:
		return interp.EngineCompiled, nil
	case EngineInterp:
		return interp.EngineInterp, nil
	case EngineDifferential:
		return interp.EngineDifferential, nil
	}
	return 0, fmt.Errorf("privagic: unknown engine %q (want %q, %q, or %q)",
		string(e), EngineInterp, EngineCompiled, EngineDifferential)
}

// Options configures compilation.
type Options struct {
	// Mode is the compiler mode (default Hardened).
	Mode Mode
	// Entries names the entry points (paper §6.2). Empty means: use
	// functions marked with the entry attribute, or every defined
	// function if none is marked.
	Entries []string
	// Audit selects the static leak auditor that re-verifies the
	// partitioner's output (translation validation): AuditStrict turns
	// any violation into a compile error, AuditWarn records the result
	// in Program.Audit without failing, and the zero value (AuditOff)
	// skips the pass.
	Audit audit.Level
	// Engine selects the chunk execution tier for instances of the
	// program: EngineCompiled (the default, also chosen by the empty
	// name), EngineInterp, or EngineDifferential. Unknown names are a
	// compile error.
	Engine Engine
	// OptimizeCrossings runs the crossing-cost-guided partition
	// optimizer after partitioning: message-free unsafe chunks fuse into
	// their spawners, adjacent same-consumer conts coalesce into
	// vectored messages, and adjacent barrier intervals merge. The
	// optimized plan is always re-validated by the strict auditor —
	// legality bugs in the optimizer become compile errors, never silent
	// miscompiles — independent of the Audit level requested.
	OptimizeCrossings bool
}

// Program is a compiled, type-checked and partitioned application.
type Program struct {
	Module      *ir.Module
	Analysis    *typing.Analysis
	Partitioned *partition.Program
	// Audit is the static leak auditor's result (nil when Options.Audit
	// was AuditOff): the re-proved boundary invariants and the
	// whole-program boundary crossing report.
	Audit *audit.Result
	// CrossingOpt records what the crossing optimizer did (nil when
	// Options.OptimizeCrossings was off).
	CrossingOpt *crossing.OptResult
	// Engine is the validated execution tier instances will run on (the
	// empty name is the compiled tier).
	Engine Engine
}

// Compile parses MiniC source, lowers it to SSA, runs the secure type
// system, and partitions the application. Type errors and hardened-mode
// partitioning errors are returned; the returned Program is nil on error.
func Compile(filename, src string, opts Options) (*Program, error) {
	mod, err := minic.Compile(filename, src)
	if err != nil {
		return nil, fmt.Errorf("privagic: frontend: %w", err)
	}
	passes.RunAll(mod)
	an := typing.Analyze(mod, typing.Options{Mode: opts.Mode, Entries: opts.Entries})
	if err := an.Err(); err != nil {
		return nil, fmt.Errorf("privagic: secure typing: %w", err)
	}
	return finishProgram(mod, an, opts)
}

// finishProgram runs the backend common to Compile and CompileIR:
// partitioning, the optional crossing optimizer (always followed by a
// strict re-validation of the rewritten plan), and the requested audit
// level.
func finishProgram(mod *ir.Module, an *typing.Analysis, opts Options) (*Program, error) {
	if _, err := opts.Engine.interpEngine(); err != nil {
		return nil, err
	}
	prog, err := partition.Partition(an)
	if err != nil {
		return nil, fmt.Errorf("privagic: partitioning: %w", err)
	}
	p := &Program{Module: mod, Analysis: an, Partitioned: prog, Engine: opts.Engine}
	if opts.OptimizeCrossings {
		p.CrossingOpt = crossing.Optimize(prog)
		// Translation validation of the rewrite: the optimizer's
		// legality proofs are never trusted on their own.
		res := audit.Run(prog)
		if err := res.Err(); err != nil {
			return nil, fmt.Errorf("privagic: crossing optimizer produced an invalid plan: %w", err)
		}
		if opts.Audit != audit.Off {
			p.Audit = res
		}
		return p, nil
	}
	if err := p.runAudit(opts.Audit); err != nil {
		return nil, err
	}
	return p, nil
}

// runAudit runs the static leak auditor per the configured level.
func (p *Program) runAudit(level audit.Level) error {
	if level == audit.Off {
		return nil
	}
	p.Audit = audit.Run(p.Partitioned)
	if level == audit.Strict {
		if err := p.Audit.Err(); err != nil {
			return fmt.Errorf("privagic: %w", err)
		}
	}
	return nil
}

// CrossingReports runs the static crossing-cost analysis: per entry
// point, every spawn/cont/barrier/split edge weighted by loop depth and
// estimated trip count, priced against the machine's cost model (nil
// means machine B). Compare against measured traffic via
// crossing.MeasuredEdges over TraceEvents.
func (p *Program) CrossingReports(m *sgx.Machine) map[string]*crossing.Report {
	if m == nil {
		m = sgx.MachineB()
	}
	return crossing.Analyze(p.Partitioned, crossing.DefaultEstimator(), m.Cost)
}

// CompileIR skips the MiniC frontend and consumes textual IR directly —
// the analogue of feeding the compiler an LLVM bitcode file (paper
// Figure 5). The text format is what ir.Module.String prints.
func CompileIR(name, src string, opts Options) (*Program, error) {
	mod, err := ir.ParseModule(name, src)
	if err != nil {
		return nil, fmt.Errorf("privagic: ir: %w", err)
	}
	passes.RunAll(mod)
	an := typing.Analyze(mod, typing.Options{Mode: opts.Mode, Entries: opts.Entries})
	if err := an.Err(); err != nil {
		return nil, fmt.Errorf("privagic: secure typing: %w", err)
	}
	return finishProgram(mod, an, opts)
}

// EmitIR returns the program's whole-module textual IR, re-consumable by
// CompileIR.
func (p *Program) EmitIR() string { return p.Module.String() }

// Check runs only the frontend and the secure type system, returning the
// analysis (including its errors) without partitioning. Useful for
// inspecting colors and diagnostics.
func Check(filename, src string, opts Options) (*typing.Analysis, error) {
	mod, err := minic.Compile(filename, src)
	if err != nil {
		return nil, fmt.Errorf("privagic: frontend: %w", err)
	}
	passes.RunAll(mod)
	return typing.Analyze(mod, typing.Options{Mode: opts.Mode, Entries: opts.Entries}), nil
}

// Colors returns the named enclave colors of the program.
func (p *Program) Colors() []string {
	out := make([]string, len(p.Analysis.Colors))
	for i, c := range p.Analysis.Colors {
		out[i] = c.String()
	}
	return out
}

// TCBReport computes the Table 4-style trusted-computing-base metrics.
func (p *Program) TCBReport() *partition.TCBReport {
	return p.Partitioned.Report()
}

// Instance is a loaded program on a simulated SGX machine.
type Instance struct {
	ip  *interp.Interp
	inj *faults.Injector
	mut *faults.Mutator

	// engineErr stashes an engine-selection failure from Instantiate
	// (Instantiate has no error return); the first Call surfaces it.
	engineErr error

	// reg/tracer are the observability layer (nil until
	// EnableObservability; everything downstream is nil-safe).
	reg    *obs.Registry
	tracer *obs.Tracer
}

// Instantiate loads the program on a machine (nil means the paper's
// machine B preset) and selects the program's execution engine (the
// compiled and differential tiers lower every chunk body here). Call
// Close when done to stop the enclave workers.
func (p *Program) Instantiate(m *sgx.Machine) *Instance {
	if m == nil {
		m = sgx.MachineB()
	}
	inst := &Instance{ip: interp.New(p.Partitioned, m)}
	eng, err := p.Engine.interpEngine()
	if err == nil {
		err = inst.ip.SetEngine(eng)
	}
	inst.engineErr = err
	return inst
}

// Call invokes an entry point through its interface version (§7.3.4).
// Arguments and the result are raw 64-bit words: an integer or a pointer
// as itself, a double as its IEEE-754 bits, so a caller passes
// int64(math.Float64bits(x)) for a double parameter and reads a double
// result with math.Float64frombits(uint64(r)).
func (i *Instance) Call(entry string, args ...int64) (int64, error) {
	if i.engineErr != nil {
		return 0, i.engineErr
	}
	return i.ip.Call(entry, args...)
}

// ExecStats snapshots the execution-engine counters: unit compile time,
// compiled-tier dispatches, and differential-oracle divergences (always
// zero on a healthy build — any nonzero value is a compiler bug caught
// in the act).
func (i *Instance) ExecStats() interp.ExecStats { return i.ip.ExecStats() }

// Output returns everything the program printed so far.
func (i *Instance) Output() string { return i.ip.Output() }

// Meter exposes the simulated cycle and event accounting.
func (i *Instance) Meter() *sgx.Meter { return i.ip.RT.Meter }

// AllocUnsafe allocates n bytes in unsafe memory and returns the simulated
// address, for passing buffers to entry points.
func (i *Instance) AllocUnsafe(n int64) uint64 {
	r := i.ip.RT.Space.Region(sgx.Unsafe)
	return sgx.EncodePtr(sgx.Unsafe, r.Alloc(n))
}

// WriteUnsafe copies data into unsafe memory at a simulated address.
func (i *Instance) WriteUnsafe(addr uint64, data []byte) {
	rid, off := sgx.DecodePtr(addr)
	i.ip.RT.Space.Region(rid).Store(off, data)
}

// ReadUnsafe copies n bytes out of unsafe memory.
func (i *Instance) ReadUnsafe(addr uint64, n int) []byte {
	rid, off := sgx.DecodePtr(addr)
	buf := make([]byte, n)
	i.ip.RT.Space.Region(rid).Load(off, buf)
	return buf
}

// EnableSpawnValidation installs the spawn whitelist of paper §8's
// future-work defense: enclave workers refuse spawn messages for chunks
// the compiler never scheduled on them.
func (i *Instance) EnableSpawnValidation() { i.ip.EnableSpawnValidation() }

// SupervisionOptions configures the runtime's fault-tolerance layer.
type SupervisionOptions struct {
	// WaitTimeout is the inactivity window of every runtime wait/join: a
	// lost message degrades into an error satisfying errors.Is(err,
	// ErrWaitTimeout) once a whole window passes in which nothing
	// authentic arrives anywhere in the instance, instead of hanging the
	// calling thread forever. A window with progress is followed by
	// another, so it bounds stalls, not total call duration. A chunk's
	// own failure needs no window: it ends the waits it reaches. 0 keeps
	// the paper's trusting block-forever behavior.
	WaitTimeout time.Duration
}

// EnableSupervision turns on the inactivity window, which guards against
// lost or hostile messages, and the cont-tag whitelist (alongside
// EnableSpawnValidation's spawn whitelist). Call it before the first
// Call.
func (i *Instance) EnableSupervision(o SupervisionOptions) {
	i.ip.EnableContValidation()
	i.ip.RT.WaitTimeout = o.WaitTimeout
}

// RecoveryOptions configures bounded replay of crashed chunks.
type RecoveryOptions struct {
	// MaxAttempts is the per-spawn replay budget: a chunk that aborts is
	// re-executed from its journaled arguments up to this many times
	// before the original typed error surfaces from Call. 0 disables
	// recovery. A replay is sent as soon as the crash is seen.
	MaxAttempts int
}

// EnableRecovery turns crashed chunks from surfaced errors into replayed
// work: spawns are journaled, a chunk's visible effects (memory writes,
// output) buffer until it completes, and a poisoned completion replays
// the spawn instead of reaching the caller — until the
// attempt budget runs out, when the crash's error reaches the caller.
// Combine with EnableSupervision: the timeout converts a lost message
// into an error instead of a hang. Call before the first Call.
func (i *Instance) EnableRecovery(o RecoveryOptions) {
	i.ip.EnableRecovery(o.MaxAttempts)
}

// RecoveryStats merges the runtime's replay counters with the
// interpreter's effect-transaction counters. After a quiescent fully
// recovered workload, Commits == SpawnsJournaled and Giveups == 0 — the
// exactly-once invariant.
type RecoveryStats struct {
	prt.RecoveryStats
	// EffectCommits counts chunk effect transactions applied;
	// EffectDiscards counts crashed attempts whose buffered effects were
	// dropped (each discard is a write set that would have been
	// double-applied without buffering).
	EffectCommits  int64
	EffectDiscards int64
}

// RecoveryStats snapshots the recovery layer.
func (i *Instance) RecoveryStats() RecoveryStats {
	commits, discards := i.ip.EffectStats()
	return RecoveryStats{
		RecoveryStats:  i.ip.RT.RecoveryStats(),
		EffectCommits:  commits,
		EffectDiscards: discards,
	}
}

// SupervisionStats snapshots the runtime's robustness counters: hostile
// messages rejected, duplicates and stale stragglers suppressed, aborts,
// timeouts and drained messages.
func (i *Instance) SupervisionStats() prt.SupStats { return i.ip.RT.SupervisionStats() }

// Typed failure sentinels, for errors.Is against Call's error: a bounded
// wait that gave up, a chunk that crashed inside its enclave (the
// simulated AEX), a call interrupted by shutdown, and a runtime boundary
// defense detection (smashed pointer, mutated payload).
var (
	ErrWaitTimeout   = prt.ErrWaitTimeout
	ErrEnclaveAbort  = prt.ErrEnclaveAbort
	ErrStopped       = prt.ErrStopped
	ErrIagoViolation = prt.ErrIagoViolation
)

// ErrDivergence is the differential oracle's sentinel: the interpreter
// and the compiled tier disagreed on a chunk's results, effects, message
// plan, or error. errors.Is(err, ErrDivergence) against Call's error
// detects it; errors.As with *interp.DivergenceError reads the detail.
var ErrDivergence = interp.ErrDivergence

// BoundaryDefenseOptions selects the runtime Iago defenses (DESIGN.md
// §11). Arm all three for the hardened-mode guarantee; the zero value
// disables everything (the relaxed, trusting behavior).
type BoundaryDefenseOptions struct {
	// Snapshots copies each unsafe-memory word into enclave-private
	// memory at its first read of a barrier interval and serves repeated
	// reads from the copy — double-fetch/TOCTOU is never observed.
	Snapshots bool
	// SanitizePointers validates every address against the memory map
	// (region mapped, offset under the allocation extent) before a
	// dereference; a smashed pointer surfaces as ErrIagoViolation.
	SanitizePointers bool
	// PayloadTags extends the message auth stamp to payload words: a
	// queued message mutated in place is rejected at the admit gate.
	PayloadTags bool
}

// FullBoundaryDefense arms all three boundary defenses.
func FullBoundaryDefense() BoundaryDefenseOptions {
	return BoundaryDefenseOptions{Snapshots: true, SanitizePointers: true, PayloadTags: true}
}

// EnableBoundaryDefense arms the runtime Iago defense layer. Call before
// the first Call.
func (i *Instance) EnableBoundaryDefense(o BoundaryDefenseOptions) {
	i.ip.EnableBoundaryDefense(interp.BoundaryConfig{
		Snapshots:        o.Snapshots,
		SanitizePointers: o.SanitizePointers,
		PayloadTags:      o.PayloadTags,
	})
}

// BoundaryStats merges the interpreter's per-load classification with the
// runtime's payload-tag rejections: how many boundary crossings each
// defense covered and how many attacks were detected.
type BoundaryStats struct {
	interp.BoundaryStats
	// PayloadTampered counts messages rejected at the admit gate because
	// their payload integrity tag no longer matched their contents.
	PayloadTampered int64
}

// BoundaryStats snapshots the boundary-defense counters.
func (i *Instance) BoundaryStats() BoundaryStats {
	return BoundaryStats{
		BoundaryStats:   i.ip.BoundaryStats(),
		PayloadTampered: i.ip.RT.SupervisionStats().PayloadTampered,
	}
}

// ObservabilityOptions configures the metrics registry and structured
// tracer (OBSERVABILITY.md is the catalogue of everything they export).
type ObservabilityOptions struct {
	// Metrics publishes the runtime's counters into a registry readable
	// via MetricsSnapshot. Almost free: the metrics are read-on-snapshot
	// closures over counters the subsystems maintain anyway; only the
	// two latency histograms add per-event work.
	Metrics bool
	// Trace arms the structured event tracer: every runtime decision
	// (spawn, wait, reject, replay) is recorded into per-worker
	// ring buffers, exportable as Chrome trace_event JSON via
	// WriteChromeTrace and attached to aborts/timeouts as a text flight
	// record. Costs one uncontended mutex acquisition per message event.
	Trace bool
	// TraceBuffer is the per-worker-shard ring capacity (0 = 1024
	// events, sized to keep the rings cache-resident next to a live
	// workload). The tracer keeps exact per-kind totals even after the
	// rings wrap; only the exportable event bodies are bounded, so size
	// this up (e.g. 1<<14) for full-history capture runs.
	TraceBuffer int
}

// EnableObservability arms the metrics registry and/or the tracer. Call
// before the first Call (and before EnableFaultInjection/EnableMutator if
// their counters should appear in snapshots). Disabled observability
// costs one branch per instrumentation point.
func (i *Instance) EnableObservability(o ObservabilityOptions) {
	if o.Trace {
		i.tracer = obs.NewTracer(o.TraceBuffer)
	}
	if o.Metrics {
		i.reg = obs.NewRegistry()
	}
	i.ip.EnableObservability(i.reg, i.tracer)
	if i.reg != nil {
		if i.inj != nil {
			i.reg.RegisterSource("inject", i.inj)
		}
		if i.mut != nil {
			i.reg.RegisterSource("mutate", i.mut)
		}
	}
}

// MetricsSnapshot flattens the registry into metric name -> value (nil
// when EnableObservability did not ask for metrics). Names are catalogued
// in OBSERVABILITY.md.
func (i *Instance) MetricsSnapshot() map[string]int64 { return i.reg.Snapshot() }

// WriteChromeTrace exports the tracer's resident events as Chrome
// trace_event JSON — open the output in chrome://tracing or
// https://ui.perfetto.dev. Errors when no tracer is armed.
func (i *Instance) WriteChromeTrace(w io.Writer) error {
	return i.tracer.WriteChromeTrace(w, false)
}

// TraceDump renders the tracer's last n events as a text flight record
// (empty when no tracer is armed) — the same format attached to
// EnclaveAbort and wait-timeout errors.
func (i *Instance) TraceDump(n int) string { return i.tracer.Dump(n) }

// TraceCounts returns exact per-event-kind totals since the tracer was
// armed (nil when no tracer). Unlike the exported event bodies these
// survive ring wraparound, so they are the surface the nightly soak
// reconciles against MetricsSnapshot.
func (i *Instance) TraceCounts() map[string]int64 { return i.tracer.Counts() }

// TraceEvents returns the tracer's resident structured events in global
// order (nil when no tracer is armed). This is the raw feed behind
// privagic-explain -crossings' measured column: send events regroup into
// per-edge crossings via crossing.MeasuredEdges.
func (i *Instance) TraceEvents() []obs.Event { return i.tracer.Events() }

// MutatorOptions configures the U-memory mutator adversary (the §4
// attacker who owns unsafe memory contents, not just the message
// protocol). Probabilities are per read word / per message, in [0,1].
type MutatorOptions struct {
	// Seed fixes the corruption schedule.
	Seed int64
	// FlipAfterRead bit-flips a U word right after an enclave read (the
	// double-fetch window); SmashPointers redirects U-resident enclave
	// pointer slots past their region's extent; MutatePayload rewrites a
	// queued message's payload words in place.
	FlipAfterRead float64
	SmashPointers float64
	MutatePayload float64
	// Concurrent adds a background goroutine corrupting already-read
	// words on its own schedule.
	Concurrent bool
	// MaxHeld caps outstanding in-memory corruptions (default 16).
	MaxHeld int
}

// EnableMutator installs the mutator adversary on the instance: it
// becomes the runtime's interceptor (payload mutations) and the
// interpreter's boundary observer (memory corruptions). Combine with
// EnableBoundaryDefense and EnableSupervision to demonstrate detection;
// without them it demonstrates silent corruption (the negative control).
// Call before the workload starts.
func (i *Instance) EnableMutator(o MutatorOptions) {
	if i.mut != nil {
		i.mut.Close()
	}
	i.mut = faults.NewMutator(i.ip.RT, faults.MutatorConfig{
		Seed:          o.Seed,
		FlipAfterRead: o.FlipAfterRead,
		SmashPointers: o.SmashPointers,
		MutatePayload: o.MutatePayload,
		Concurrent:    o.Concurrent,
		MaxHeld:       o.MaxHeld,
	})
	i.ip.SetBoundaryObserver(i.mut)
	i.reg.RegisterSource("mutate", i.mut)
}

// MutatorStats snapshots the mutator adversary's counters (zero value
// when no mutator was enabled).
func (i *Instance) MutatorStats() faults.MutStats {
	if i.mut == nil {
		return faults.MutStats{}
	}
	return i.mut.Stats()
}

// FaultOptions configures the deterministic fault injector. Probabilities
// are per message (or per spawned chunk, for Crash), in [0,1].
type FaultOptions struct {
	// Seed fixes the injection schedule: the same seed over the same
	// workload produces the same decisions.
	Seed int64
	// Message faults: vanish, replay, hold for a few deliveries, deliver
	// out of order, inject a forged hostile message alongside.
	Drop      float64
	Duplicate float64
	Delay     float64
	Reorder   float64
	Forge     float64
	// Crash makes a spawned chunk panic at entry (the simulated AEX);
	// CrashMid is the per-store probability of a panic in the middle of
	// the chunk's body, after some writes were issued — the case that
	// needs the recovery layer's effect buffering to replay cleanly.
	Crash    float64
	CrashMid float64
	// MaxCrashes caps total injected crashes, entry and mid-run combined
	// (0 = unlimited). At or below the recovery attempt budget, every
	// request deterministically recovers.
	MaxCrashes int
	// Retransmit re-delivers dropped messages after RetransmitAfter
	// (default 2ms), charging the cost model's Retransmit cycles: the
	// supervised transport's answer to lossy queues.
	Retransmit      bool
	RetransmitAfter time.Duration
}

// EnableFaultInjection installs the injector on the instance's runtime.
// Combine with EnableSupervision: without timeouts, a dropped message
// without retransmit blocks its waiter forever (by design — that is the
// failure mode supervision exists to remove).
func (i *Instance) EnableFaultInjection(o FaultOptions) {
	if i.inj != nil {
		i.inj.Close()
	}
	i.inj = faults.Attach(i.ip.RT, faults.Config{
		Seed: o.Seed,
		Drop: o.Drop, Duplicate: o.Duplicate, Delay: o.Delay,
		Reorder: o.Reorder, Forge: o.Forge, Crash: o.Crash,
		CrashMid: o.CrashMid, MaxCrashes: o.MaxCrashes,
		Retransmit: o.Retransmit, RetransmitAfter: o.RetransmitAfter,
	})
	if o.CrashMid > 0 {
		i.ip.SetCrashPoint(i.inj.CrashPoint)
	} else {
		i.ip.SetCrashPoint(nil)
	}
	// Re-arming replaces the previous source: RegisterSource keys by
	// prefix, so snapshots always read the live injector.
	i.reg.RegisterSource("inject", i.inj)
}

// FaultStats snapshots the injector's counters (zero value when fault
// injection was never enabled).
func (i *Instance) FaultStats() faults.Stats {
	if i.inj == nil {
		return faults.Stats{}
	}
	return i.inj.Stats()
}

// FaultCounters aggregates every enabled adversary's counters in the
// uniform name -> count form (faults.CounterSource), prefixed by the
// fault class ("inject." for the message injector, "mutate." for the
// memory mutator). Empty when no adversary is enabled.
func (i *Instance) FaultCounters() map[string]int64 {
	out := map[string]int64{}
	if i.inj != nil {
		for k, v := range i.inj.Counters() {
			out["inject."+k] = v
		}
	}
	if i.mut != nil {
		for k, v := range i.mut.Counters() {
			out["mutate."+k] = v
		}
	}
	return out
}

// Close stops the instance's worker threads, supervisor, injector, and
// mutator.
func (i *Instance) Close() {
	if i.inj != nil {
		i.inj.Close()
	}
	// The interpreter stops its workers, a timed-out Call's included,
	// before it drops the mutator's memory observer; only then may the
	// mutator restore what it corrupted.
	i.ip.Close()
	if i.mut != nil {
		i.mut.Close()
	}
}

// MachineA returns the paper's machine A preset (i5-9500, SGXv1, 93 MiB
// EPC).
func MachineA() *sgx.Machine { return sgx.MachineA() }

// MachineB returns the paper's machine B preset (Xeon Gold 5415+, SGXv2,
// 8131 MiB EPC).
func MachineB() *sgx.Machine { return sgx.MachineB() }
