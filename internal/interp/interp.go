// Package interp executes partitioned Privagic programs on the simulated
// SGX machine: chunk bodies run on the prt workers of their enclave, every
// memory access is checked against the SGX mode rules (§2.1), multi-color
// structures use the §7.2 indirection layout, and the partitioner's
// runtime intrinsics map onto spawn/cont/wait over the lock-free queues.
//
// The interpreter is the correctness substrate of the reproduction: it is
// where "the generated code really cannot touch foreign enclave memory"
// becomes an executable property rather than a compiler promise.
package interp

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"privagic/internal/exec"
	"privagic/internal/ir"
	"privagic/internal/partition"
	"privagic/internal/passes/compile"
	"privagic/internal/prt"
	"privagic/internal/sgx"
)

// val is one machine value — the exec.Val shared with the compiled
// tier, so payloads, metrics, and the differential oracle see the same
// representation regardless of which engine produced a value.
type val = exec.Val

func iv(x int64) val   { return val{I: x} }
func fv(x float64) val { return val{F: x, Fl: true} }

// splitLayout is the rewritten memory layout of a multi-color structure
// (§7.2): colored fields become 8-byte slots holding pointers to
// out-of-line allocations in their enclaves.
type splitLayout struct {
	split   *partition.SplitStruct
	offsets []int64
	size    int64
}

// Interp executes a partitioned program.
type Interp struct {
	Prog *partition.Program
	RT   *prt.Runtime

	globals map[*ir.Global]uint64
	layouts map[string]*splitLayout
	// ifaceTable gives function-pointer values to address-taken
	// functions; an indirect call invokes the interface version (§6.3).
	ifaceTable []*partition.PartFunc
	ifaceIndex map[string]int

	// Output collects printf/puts text (the simulated console).
	mu       sync.Mutex
	output   []byte
	asyncErr error

	mainOnce sync.Once
	main     *prt.Thread
	threads  sync.WaitGroup
	// spawned background application threads (thread_create builtin).
	bgMu sync.Mutex
	bg   []*prt.Thread

	// OnAccess, when set, observes every checked memory access (the
	// cache simulator attaches here).
	OnAccess func(addr uint64, size int64, write bool, mode sgx.Mode)

	// crashPoint is the mid-chunk fault-injection hook (SetCrashPoint);
	// effCounters tracks effect-transaction commits/discards.
	crashPoint func(workerIdx, chunkID, storeN int) any
	effCounters

	// stackPins counts pin-floor raises on the workers' stacks (frames
	// held to the Call boundary, stack.go); callFailures counts Calls
	// that returned an error, after which a Call boundary keeps its pins.
	stackPins    atomic.Int64
	callFailures atomic.Int64

	// boundary configures the runtime Iago defense (boundary.go); bobs is
	// the U-memory access observer the mutator adversary installs; bStats
	// classifies boundary crossings while the defense is armed.
	boundary BoundaryConfig
	bobs     BoundaryObserver
	bStats   boundaryCounters

	// chunkOf resolves a chunk body back to its chunk, so a direct call
	// into a differently-colored body (the crossing optimizer's fused
	// form) can be counted and traced.
	chunkOf map[*ir.Function]*partition.Chunk
	// cross counts the crossing optimizer's runtime effects (cross.*
	// metrics); vecMu/vecStash hold the last vector received per
	// (worker, tag) for the __pv_elem intrinsic.
	cross    crossCounters
	vecMu    sync.Mutex
	vecStash map[[2]int][]any

	// unit is the closure-compiled form of the program's chunk bodies,
	// built by SetEngine for the compiled and differential tiers (nil
	// while the engine is interp); es backs the exec.* metric gauges.
	unit *compile.Unit
	es   execCounters
	// live is the interpreter's exec.Env for the compiled tier, shared
	// by every activation.
	live *liveEnv
}

// execCounters back the exec.* metric gauges (engine selection).
type execCounters struct {
	compileUS    atomic.Int64
	compiledRuns atomic.Int64
	divergences  atomic.Int64
}

// crossCounters back the cross.* metric gauges.
type crossCounters struct {
	vecSends   atomic.Int64
	vecWaits   atomic.Int64
	elemReads  atomic.Int64
	fusedCalls atomic.Int64
}

// runtimeErr carries an execution error through panics; it is the
// exec.RuntimeErr both engines panic with.
type runtimeErr = exec.RuntimeErr

// New prepares an interpreter for the program on the given machine.
func New(prog *partition.Program, machine *sgx.Machine) *Interp {
	colors := make([]string, len(prog.Colors))
	for i, c := range prog.Colors {
		colors[i] = c.String()
	}
	ip := &Interp{
		Prog:       prog,
		globals:    map[*ir.Global]uint64{},
		layouts:    map[string]*splitLayout{},
		ifaceIndex: map[string]int{},
		chunkOf:    map[*ir.Function]*partition.Chunk{},
		vecStash:   map[[2]int][]any{},
	}
	ip.live = &liveEnv{ip}
	for _, ch := range prog.ChunkByID {
		ip.chunkOf[ch.Fn] = ch
	}
	ip.RT = prt.New(machine, colors, ip.execChunk)
	ip.computeLayouts()
	ip.allocGlobals()
	for name := range prog.Entries {
		ip.internFunc(name)
	}
	return ip
}

// EnableSpawnValidation installs the §8 spawn whitelist: enclave workers
// refuse to run chunks the partitioner never scheduled for them.
func (ip *Interp) EnableSpawnValidation() {
	wl := ip.Prog.SpawnWhitelist()
	allowed := make(map[int]map[int]bool, len(wl))
	for colorIdx, ids := range wl {
		m := make(map[int]bool, len(ids))
		for _, id := range ids {
			m[id] = true
		}
		allowed[colorIdx] = m
	}
	ip.RT.ValidateSpawn = func(workerIdx, chunkID int) bool {
		return allowed[workerIdx][chunkID]
	}
}

// EnableContValidation installs the cont-tag whitelist: tags outside the
// partitioner's allocation range are rejected at the admit gate instead of
// parking forever in a pending buffer (defense-in-depth beside the
// authentication stamp).
func (ip *Interp) EnableContValidation() {
	maxTag := ip.Prog.MaxTag()
	ip.RT.ValidateCont = func(tag int) bool { return tag > 0 && tag <= maxTag }
}

// EnableSupervision turns on the runtime's fault-tolerance layer: every
// wait/join is bounded by the timeout (a lost message degrades into a
// typed error instead of a hang) and, when watchdog is set, a supervisor
// goroutine reports which tag/join a stuck worker is blocked on. Call it
// before the first Call.
func (ip *Interp) EnableSupervision(s prt.Supervision) {
	ip.RT.Supervise = s
}

// Close stops all worker threads and the runtime's supervisor.
func (ip *Interp) Close() {
	ip.threads.Wait()
	if ip.main != nil {
		ip.main.Close()
	}
	ip.bgMu.Lock()
	for _, t := range ip.bg {
		t.Close()
	}
	ip.bg = nil
	ip.bgMu.Unlock()
	ip.RT.Shutdown()
}

// Output returns everything the program printed.
func (ip *Interp) Output() string {
	ip.mu.Lock()
	defer ip.mu.Unlock()
	return string(ip.output)
}

// recordErr stashes the first error raised on a worker goroutine.
func (ip *Interp) recordErr(err error) {
	ip.mu.Lock()
	if ip.asyncErr == nil {
		ip.asyncErr = err
	}
	ip.mu.Unlock()
}

// takeErr returns and clears the stashed worker error.
func (ip *Interp) takeErr() error {
	ip.mu.Lock()
	defer ip.mu.Unlock()
	err := ip.asyncErr
	ip.asyncErr = nil
	return err
}

func (ip *Interp) print(s string) {
	ip.mu.Lock()
	ip.output = append(ip.output, s...)
	ip.mu.Unlock()
}

// computeLayouts builds the split layouts of multi-color structs.
func (ip *Interp) computeLayouts() {
	for name, sp := range ip.Prog.Splits {
		st := sp.Struct
		l := &splitLayout{split: sp, offsets: make([]int64, len(st.Fields))}
		var off int64
		for i, f := range st.Fields {
			size, align := f.Type.Size(), f.Type.Align()
			if _, colored := sp.FieldColors[i]; colored {
				size, align = 8, 8 // pointer slot
			}
			off = (off + align - 1) / align * align
			l.offsets[i] = off
			off += size
		}
		l.size = (off + 7) / 8 * 8
		if l.size == 0 {
			l.size = 8
		}
		ip.layouts[name] = l
	}
}

// regionOfColor maps a color to its region ID (U and S to unsafe memory).
func (ip *Interp) regionOfColor(c ir.Color) sgx.RegionID {
	if !c.IsEnclave() {
		return sgx.Unsafe
	}
	return sgx.RegionID(ip.Prog.ColorIndex(c))
}

// allocGlobals places every global in its region (§7.1: colored globals in
// their enclave, the rest gathered in the shared unsafe block) and writes
// the initializers.
func (ip *Interp) allocGlobals() {
	place := func(g *ir.Global, region sgx.RegionID) {
		r := ip.RT.Space.Region(region)
		size := g.Elem.Size()
		if ly := ip.layoutOf(g.Elem); ly != nil {
			size = ly.size
		}
		off := r.Alloc(size)
		addr := sgx.EncodePtr(region, off)
		ip.globals[g] = addr
		switch {
		case g.InitBytes != nil:
			r.Store(off, g.InitBytes)
		case g.InitInt != 0:
			var buf [8]byte
			putInt(buf[:g.Elem.Size()], g.InitInt)
			r.Store(off, buf[:g.Elem.Size()])
		case g.InitFloat != 0:
			var buf [8]byte
			putInt(buf[:], int64(floatBits(g.InitFloat)))
			r.Store(off, buf[:])
		}
	}
	for _, g := range ip.Prog.SharedGlobals {
		place(g, sgx.Unsafe)
	}
	for c, gs := range ip.Prog.EnclaveGlobals {
		for _, g := range gs {
			place(g, ip.regionOfColor(c))
		}
	}
}

// layoutOf returns the split layout of a struct type, or nil.
func (ip *Interp) layoutOf(t ir.Type) *splitLayout {
	st, ok := t.(*ir.StructType)
	if !ok {
		return nil
	}
	return ip.layouts[st.Name]
}

// internFunc assigns a function-pointer value to a named entry.
func (ip *Interp) internFunc(name string) int {
	if idx, ok := ip.ifaceIndex[name]; ok {
		return idx
	}
	pf := ip.Prog.Entries[name]
	if pf == nil {
		return 0
	}
	ip.ifaceTable = append(ip.ifaceTable, pf)
	idx := len(ip.ifaceTable) // 1-based so 0 stays the nil function
	ip.ifaceIndex[name] = idx
	return idx
}

// mainThread lazily creates the main application thread.
func (ip *Interp) mainThread() *prt.Thread {
	ip.mainOnce.Do(func() { ip.main = ip.RT.NewThread() })
	return ip.main
}

// Call invokes an entry point by name with integer arguments and returns
// its integer result. It runs the interface version (§7.3.4): spawn the
// enclave chunks, run the U chunk in normal mode, join, pick the result.
func (ip *Interp) Call(entry string, args ...int64) (ret int64, err error) {
	pf := ip.Prog.Entries[entry]
	if pf == nil {
		return 0, fmt.Errorf("interp: no entry point %q", entry)
	}
	main := ip.mainThread()
	restarts := ip.RT.RecoveryStats().Restarts
	defer func() {
		// The Call boundary: every activation on the normal worker has
		// returned (or unwound), so its stacks go back to their floor.
		// The pins go too unless the Call failed or a worker restarted
		// meanwhile: stragglers may then still hold frame addresses.
		clean := err == nil && ip.RT.RecoveryStats().Restarts == restarts
		if !clean {
			ip.callFailures.Add(1)
		}
		stateOf(main.Normal()).stack.reset(clean)
	}()
	defer func() {
		if r := recover(); r != nil {
			if re, ok := r.(runtimeErr); ok {
				err = re.Err
				// A worker-recorded error is the root cause of whatever
				// the main goroutine then tripped over (a chunk that
				// aborts mid-protocol starves the join into a timeout):
				// lead with the cause, but keep the symptom joined in —
				// a *TimeoutError carries the pending tags and queue
				// depths of the stuck protocol state, which the caller
				// loses if the cause simply replaces it. errors.Is/As see
				// through the join to both. Taking the stash also keeps
				// it from leaking into a later Call.
				if aerr := ip.takeErr(); aerr != nil {
					err = errors.Join(aerr, re.Err)
				}
				return
			}
			panic(r)
		}
	}()
	vargs := make([]val, len(args))
	for i, a := range args {
		vargs[i] = iv(a)
	}
	// Each top-level invocation is a new epoch: stragglers of a previous
	// (possibly timed-out or crashed) call are fenced off instead of being
	// matched against this call's waits.
	main.AdvanceEpoch()
	v := ip.invokeInterface(main.Normal(), pf, vargs)
	if aerr := ip.takeErr(); aerr != nil {
		return v.I, aerr
	}
	return v.I, nil
}

// invokeInterface runs the interface version of a partitioned function from
// normal mode (or from whatever worker w is bound to, for indirect calls).
func (ip *Interp) invokeInterface(w *prt.Worker, pf *partition.PartFunc, args []val) val {
	anyArgs := make([]any, len(args))
	for i, a := range args {
		anyArgs[i] = a
	}
	var spawned []int
	if pf.Interface != nil {
		if len(pf.Interface.Spawns) > 0 {
			ip.pinEscapes(w, args)
		}
		for _, c := range pf.Interface.Spawns {
			ch := pf.Chunks[c]
			if ch == nil {
				continue
			}
			w.Spawn(ip.Prog.ColorIndex(c), ch.ID, anyArgs, true)
			spawned = append(spawned, ip.Prog.ColorIndex(c))
		}
	}
	var result val
	haveResult := false
	// The U chunk's return value is trustworthy only when U is part of
	// the function's color set: an interface-only skeleton chunk never
	// receives the call results its return may depend on.
	uInSet := len(pf.ColorSet) == 0 // colorless programs run entirely in U
	for _, c := range pf.ColorSet {
		if c.IsUntrusted() {
			uInSet = true
		}
	}
	if uChunk := pf.Chunks[ir.U]; uChunk != nil && len(uChunk.Fn.Blocks) > 0 {
		r := ip.runChunkBody(w, uChunk, args)
		if uInSet {
			result = r
			haveResult = true
		}
	}
	// Collect completions; a completion from the chunk whose color is
	// the return color wins.
	retColor := pf.Spec.RetColor
	for range spawned {
		msg, err := w.JoinOne()
		if err != nil {
			// Shutdown or a timed-out completion: further completions
			// of this invocation will not arrive either; bail out.
			panic(runtimeErr{Err: err})
		}
		if msg.Err != nil {
			// Poisoned completion: the spawned chunk aborted. Record it
			// and keep joining so the remaining spawns complete.
			ip.recordErr(msg.Err)
			continue
		}
		from := ip.Prog.ColorAt(msg.From)
		if v, ok := msg.Payload.(val); ok {
			if from == retColor || !haveResult {
				result = v
				haveResult = true
			}
		}
	}
	return result
}

// --- byte helpers ---

func putInt(buf []byte, v int64) {
	for i := range buf {
		buf[i] = byte(v >> (8 * i))
	}
}

func getInt(buf []byte) int64 {
	var v uint64
	for i := range buf {
		v |= uint64(buf[i]) << (8 * i)
	}
	// Sign-extend.
	bits := uint(len(buf) * 8)
	if bits < 64 {
		shift := 64 - bits
		return int64(v<<shift) >> shift
	}
	return int64(v)
}

func floatBits(f float64) uint64 { return math.Float64bits(f) }

// errf panics with a runtime error (recovered in Call).
func errf(format string, args ...any) {
	panic(runtimeErr{Err: fmt.Errorf(format, args...)})
}

// ErrExit is returned when the program calls exit(n).
var ErrExit = errors.New("program called exit")
