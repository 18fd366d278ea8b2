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

func iv(x int64) val { return val{I: x} }

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
	mu     sync.Mutex
	output []byte

	mainOnce sync.Once
	main     *prt.Thread
	// threads counts the running thread_create threads, which Close
	// waits for.
	threads sync.WaitGroup

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
	// metrics).
	cross crossCounters

	// engine is the tier every chunk body runs on (SetEngine). unit is
	// the closure-compiled form of the program's chunk bodies, built by
	// SetEngine for the compiled and differential tiers (nil while the
	// engine is interp); es backs the exec.* metric gauges.
	engine Engine
	unit   *compile.Unit
	es     execCounters
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

// Close stops all worker threads, then removes the boundary observer.
func (ip *Interp) Close() {
	ip.threads.Wait()
	if ip.main != nil {
		ip.main.Close()
	}
	ip.RT.Shutdown()
	// Every worker has exited, a timed-out Call's included: nothing reads
	// the observer any more.
	ip.bobs = nil
}

// Output returns everything the program printed.
func (ip *Interp) Output() string {
	ip.mu.Lock()
	defer ip.mu.Unlock()
	return string(ip.output)
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

// Call invokes an entry point by name and returns its result. It runs
// the interface version (§7.3.4): spawn the enclave chunks, run the U
// chunk in normal mode, join, pick the result. A chunk that fails, here or
// in any enclave, fails the Call with its error: the failure travels in
// the chunk's Done and ends the first wait it reaches, which unwinds the U
// chunk. The failed Call's leftover messages are fenced off by the next
// Call's epoch.
//
// Arguments and the result are raw 64-bit machine words: an integer or a
// pointer as itself, a double as its IEEE-754 bits (math.Float64bits in,
// math.Float64frombits out). The entry's IR signature, not the word,
// says which.
func (ip *Interp) Call(entry string, args ...int64) (ret int64, err error) {
	pf := ip.Prog.Entries[entry]
	if pf == nil {
		return 0, fmt.Errorf("interp: no entry point %q", entry)
	}
	main := ip.mainThread()
	defer func() {
		// The Call boundary: every activation on the normal worker has
		// returned (or unwound), so its stacks go back to their floor.
		// The pins go too unless the Call failed: stragglers may then
		// still hold frame addresses.
		if err != nil {
			ip.callFailures.Add(1)
		}
		ws := stateOf(main.Normal())
		// An unwound U chunk publishes its boundary counts here.
		ip.publishCounts(ws)
		ws.stack.reset(err == nil)
	}()
	defer func() {
		if r := recover(); r != nil {
			if re, ok := r.(runtimeErr); ok {
				err = re.Err
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
	return ip.invokeInterface(main.Normal(), pf, vargs).I, nil
}

// invokeInterface runs the interface version of a partitioned function from
// normal mode (or from whatever worker w is bound to, for indirect calls).
// Every spawn and the U chunk share args: no engine writes into its
// argument vector (both copy it into their own frame).
func (ip *Interp) invokeInterface(w *prt.Worker, pf *partition.PartFunc, args []val) val {
	spawned := 0
	if pf.Interface != nil {
		if len(pf.Interface.Spawns) > 0 {
			ip.pinEscapes(w, args)
		}
		for _, c := range pf.Interface.Spawns {
			ch := pf.Chunks[c]
			if ch == nil {
				continue
			}
			w.Spawn(ip.Prog.ColorIndex(c), ch.ID, args)
			spawned++
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
			// A failed completion, a timeout or shutdown fails the
			// invocation at once.
			panic(runtimeErr{Err: err})
		}
		if from := ip.Prog.ColorAt(msg.From); from == retColor || !haveResult {
			result = msg.Payload
			haveResult = true
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
	return signExtend(v, len(buf))
}

// signExtend widens the low n bytes of v to a signed word.
func signExtend(v uint64, n int) int64 {
	shift := 64 - 8*uint(n)
	return int64(v<<shift) >> shift
}

func floatBits(f float64) uint64 { return math.Float64bits(f) }

// errf panics with a runtime error (recovered in Call).
func errf(format string, args ...any) {
	panic(runtimeErr{Err: fmt.Errorf(format, args...)})
}

// ErrExit is returned when the program calls exit(n).
var ErrExit = errors.New("program called exit")
