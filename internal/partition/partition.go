// Package partition implements the application-partitioning phase of the
// Privagic compiler (paper §7): after the secure type system has assigned a
// color to every instruction, this package rewrites the program into
// per-enclave function chunks (§7.3.1), plans direct chunk-to-chunk calls
// and spawn/cont/wait messaging for the missing chunks (§7.3.2), generates
// interface versions of the entry points (§7.3.4), gathers the shared
// globals (§7.1), and splits multi-color structures through an indirection
// level (§7.2).
//
// Cross-chunk operations are expressed as calls to reserved runtime
// intrinsics (IntrSpawn, IntrWait, IntrJoin, IntrSend) that the interpreter
// and the Privagic runtime execute over the lock-free inter-enclave queues.
package partition

import (
	"fmt"
	"sort"

	"privagic/internal/ir"
	"privagic/internal/typing"
)

// Runtime intrinsic names inserted by the partitioner.
const (
	// IntrSpawn starts a missing chunk on another enclave's worker:
	// __pv_spawn(chunkID, needReply, fArgs...).
	IntrSpawn = "__pv_spawn"
	// IntrWait blocks until a cont message arrives and returns its
	// payload: __pv_wait().
	IntrWait = "__pv_wait"
	// IntrJoin waits for n spawn-completion messages and returns the
	// payload of the completion flagged as carrying the result:
	// __pv_join(n).
	IntrJoin = "__pv_join"
	// IntrSendV is the vectored form of IntrSend emitted by the crossing
	// optimizer (internal/passes/crossing): one cont message carrying n
	// values that the reference plan shipped as n adjacent conts.
	// __pv_sendv(colorIdx, tag, v1, ..., vn).
	IntrSendV = "__pv_sendv"
	// IntrWaitV receives a vectored cont: it blocks like IntrWait,
	// stashes the payload vector under (worker, tag) and returns element
	// 0. The remaining elements are read with IntrElem.
	// __pv_waitv(tag) -> v1.
	IntrWaitV = "__pv_waitv"
	// IntrElem reads element i of the vector most recently received by
	// IntrWaitV for the same tag on this worker. __pv_elem(tag, i) -> vi.
	IntrElem = "__pv_elem"
	// IntrSend sends a cont message to a sibling chunk of the same
	// invocation: __pv_send(colorID, value).
	IntrSend = "__pv_send"
)

// Chunk is the colored version of a function (§7.3.1): it contains the
// instructions of its color plus the replicated Free instructions.
type Chunk struct {
	ID    int
	Color ir.Color
	Fn    *ir.Function
	Part  *PartFunc
}

// Name returns the linker-style chunk name, e.g. "get.blue".
func (c *Chunk) Name() string { return c.Part.Spec.Key + "." + c.Color.String() }

// PartFunc is a partitioned function specialization.
type PartFunc struct {
	Spec     *typing.FuncSpec
	ColorSet []ir.Color
	Chunks   map[ir.Color]*Chunk
	// Replicated marks functions with an empty color set: they are pure
	// with respect to enclaves and a chunk is generated per calling
	// color, like any other Free computation.
	Replicated bool
	// Interface is the entry-point wrapper executed in normal mode
	// (§7.3.4), nil for internal functions.
	Interface *InterfaceFn
	// Sunk records the conts the crossing optimizer sank out of
	// replicated search loops, keyed by the sunk cont's tag.
	Sunk map[int]*SunkCont

	// transports caches the cross-chunk value transport analysis.
	transports map[ir.Instr]*Transport
	// barriers assigns tags to relaxed-mode visible effects (§7.3.3).
	barriers map[ir.Instr]int
}

// InterfaceFn describes the interface version of an entry point: it keeps
// the original name, spawns the missing chunks and runs the U chunk.
type InterfaceFn struct {
	Name   string
	Spawns []ir.Color
}

// CallPlan is the per-call-site protocol computed by the partitioner
// (§7.3.2): which callee chunks are reached by direct call, which are
// spawned by the owner chunk, and how the result travels.
type CallPlan struct {
	Target *PartFunc
	// Direct lists the colors common to caller and callee: chunk C of
	// the caller calls chunk C of the callee directly.
	Direct map[ir.Color]bool
	// Spawns lists callee colors absent from the caller, started with a
	// spawn message by the owner.
	Spawns []ir.Color
	// Owner is the caller chunk in charge of spawning and joining.
	Owner ir.Color
	// FArgIdx lists the indices of Free parameters forwarded to spawned
	// chunks (the trampoline payload of §7.3.2).
	FArgIdx []int
	// ResultColor is the typing color of the call result.
	ResultColor ir.Color
	// Waiters lists caller chunks that need the (Free) result but do
	// not call the callee themselves; the owner sends it to them.
	Waiters []ir.Color
	// ResultFromJoin is set when the owner itself obtains the result
	// from a spawn-completion message rather than a direct call.
	ResultFromJoin bool
	// Tag matches the owner's result sends with the waiters' waits.
	Tag int
}

// SunkCont is the provenance of a cont that the crossing optimizer sank
// out of a replicated search loop. The producer no longer sends the
// per-iteration value of transport From. Once per loop activation that
// reaches the old send site, it sends one cont with tag Tag, carrying the
// 1-based iteration at which the loop's replicated exit compare fired, or
// 0 when the loop left another way. Each consumer receives it at its old
// wait site, at the first iteration, and runs the rest of its loop
// without waiting.
type SunkCont struct {
	Tag       int
	From      int
	Producer  *Chunk
	Header    *ir.Block // the producer's loop header
	Consumers []ir.Color
}

// SplitStruct records a multi-color structure rewritten with an indirection
// level (§7.2): the struct body lives in unsafe memory and each colored
// field becomes a pointer to an object allocated in its enclave.
type SplitStruct struct {
	Struct *ir.StructType
	// FieldColors maps field index to the enclave owning the field's
	// out-of-line allocation.
	FieldColors map[int]ir.Color
}

// Program is a fully partitioned application.
type Program struct {
	Mod    *ir.Module
	An     *typing.Analysis
	Mode   typing.Mode
	Colors []ir.Color // named enclave colors

	Funcs     map[*typing.FuncSpec]*PartFunc
	Entries   map[string]*PartFunc // by original function name
	ChunkByID []*Chunk
	Plans     map[*ir.Call]*CallPlan
	Splits    map[string]*SplitStruct // by struct name

	// SharedGlobals are the unsafe-memory globals gathered into the
	// shared data structure of §7.1; EnclaveGlobals maps each enclave to
	// the globals placed inside it.
	SharedGlobals  []*ir.Global
	EnclaveGlobals map[ir.Color][]*ir.Global

	Errors []error

	nextTag   int
	intrSpawn *ir.Function
	intrWait  *ir.Function
	intrJoin  *ir.Function
	intrSend  *ir.Function
	intrSendV *ir.Function
	intrWaitV *ir.Function
	intrElem  *ir.Function
}

// Intrinsic returns the runtime intrinsic declaration with the given name
// (IntrSpawn etc.), or nil.
func (p *Program) Intrinsic(name string) *ir.Function {
	switch name {
	case IntrSpawn:
		return p.intrSpawn
	case IntrWait:
		return p.intrWait
	case IntrJoin:
		return p.intrJoin
	case IntrSend:
		return p.intrSend
	case IntrSendV:
		return p.intrSendV
	case IntrWaitV:
		return p.intrWaitV
	case IntrElem:
		return p.intrElem
	}
	return nil
}

// CompileSet returns every chunk body the closure compiler should lower:
// each runnable (non-empty) chunk function, deduplicated. Direct-call
// targets are themselves same-color chunk bodies, so lowering the chunk
// set covers every function the runtime can execute.
func (p *Program) CompileSet() []*ir.Function {
	seen := make(map[*ir.Function]bool, len(p.ChunkByID))
	out := make([]*ir.Function, 0, len(p.ChunkByID))
	for _, ch := range p.ChunkByID {
		if ch.Fn == nil || len(ch.Fn.Blocks) == 0 || seen[ch.Fn] {
			continue
		}
		seen[ch.Fn] = true
		out = append(out, ch.Fn)
	}
	return out
}

// AllocTag hands out a fresh cont-message tag. The crossing optimizer uses
// it when it replaces a run of adjacent transports with one vectored
// message; keeping the allocation here preserves the invariant that every
// tag in a chunk body is below MaxTag (the audit validator range-checks
// against it).
func (p *Program) AllocTag() int {
	p.nextTag++
	return p.nextTag
}

// Transports exposes the cross-chunk value transport plan of a partitioned
// function: for every producing instruction of the original spec body that
// other chunks consume, the consumer chunks and the cont-message tag that
// ships the value. Used by the interpreter-facing metadata consumers and by
// the static auditor (internal/audit) to re-verify every boundary crossing.
func (p *Program) Transports(pf *PartFunc) map[ir.Instr]*Transport {
	return p.transportsOf(pf)
}

// BarrierTags exposes the relaxed-mode visible-effect barrier tags of a
// partitioned function (§7.3.3), keyed by the original instruction. The map
// is populated while chunks are built; it is empty for hardened programs.
func (p *Program) BarrierTags(pf *PartFunc) map[ir.Instr]int {
	return pf.barriers
}

// ColorIndex returns a stable small integer for a color (used by the
// IntrSend intrinsic); U is always index 0.
func (p *Program) ColorIndex(c ir.Color) int {
	if c.IsUntrusted() {
		return 0
	}
	for i, x := range p.Colors {
		if x == c {
			return i + 1
		}
	}
	return -1
}

// ColorAt is the inverse of ColorIndex.
func (p *Program) ColorAt(i int) ir.Color {
	if i == 0 {
		return ir.U
	}
	return p.Colors[i-1]
}

// Partition rewrites an analyzed module. Analysis errors must have been
// handled by the caller; Partition adds its own errors (e.g. hardened-mode
// Free values crossing enclaves, §7.3.2).
func Partition(an *typing.Analysis) (*Program, error) {
	p := &Program{
		Mod:            an.Mod,
		An:             an,
		Mode:           an.Mode,
		Colors:         append([]ir.Color(nil), an.Colors...),
		Funcs:          map[*typing.FuncSpec]*PartFunc{},
		Entries:        map[string]*PartFunc{},
		Plans:          map[*ir.Call]*CallPlan{},
		Splits:         map[string]*SplitStruct{},
		EnclaveGlobals: map[ir.Color][]*ir.Global{},
	}
	p.placeGlobals()
	p.splitStructs()

	// Create PartFuncs for every live spec.
	for _, key := range sortedSpecKeys(an.Specs) {
		spec := an.Specs[key]
		pf := &PartFunc{
			Spec:     spec,
			ColorSet: spec.ColorSet(),
			Chunks:   map[ir.Color]*Chunk{},
		}
		pf.Replicated = len(pf.ColorSet) == 0
		p.Funcs[spec] = pf
	}
	p.declareIntrinsics()
	p.bubbleUpColorSets()
	// Compute call plans (they need all PartFuncs to exist).
	for _, pf := range p.sortedFuncs() {
		p.planCalls(pf)
	}
	// Build the chunks.
	for _, pf := range p.sortedFuncs() {
		for _, c := range pf.ColorSet {
			p.buildChunk(pf, c)
		}
	}
	// Interface versions for entry points and address-taken functions
	// (§7.3.4).
	for _, spec := range an.Entries {
		p.buildInterface(spec)
	}
	for _, spec := range an.Indirect {
		p.buildInterface(spec)
	}
	if len(p.Errors) > 0 {
		return p, joinErrors(p.Errors)
	}
	return p, nil
}

func (p *Program) errorf(pos ir.Pos, format string, args ...any) {
	p.Errors = append(p.Errors, fmt.Errorf("%s: %s", pos, fmt.Sprintf(format, args...)))
}

func (p *Program) sortedFuncs() []*PartFunc {
	out := make([]*PartFunc, 0, len(p.Funcs))
	for _, pf := range p.Funcs {
		out = append(out, pf)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Spec.Key < out[j].Spec.Key })
	return out
}

func sortedSpecKeys(m map[string]*typing.FuncSpec) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func joinErrors(errs []error) error {
	if len(errs) == 1 {
		return errs[0]
	}
	return fmt.Errorf("partition: %d errors, first: %w", len(errs), errs[0])
}

// placeGlobals assigns every global to its memory region: colored globals
// go inside their enclave; the rest are gathered into the shared unsafe
// block (§7.1).
func (p *Program) placeGlobals() {
	for _, g := range p.Mod.Globals {
		if g.Color.IsEnclave() {
			p.EnclaveGlobals[g.Color] = append(p.EnclaveGlobals[g.Color], g)
		} else {
			p.SharedGlobals = append(p.SharedGlobals, g)
		}
	}
}

// splitStructs records the indirection rewriting of multi-color structures
// (§7.2). The memory layout change (colored fields become pointers to
// out-of-line allocations in their enclaves) is honored by the runtime's
// allocator and address computation; the typing phase has already verified
// that this only happens in relaxed mode (§8).
func (p *Program) splitStructs() {
	for _, st := range p.Mod.Structs {
		colors := st.Colors()
		if len(colors) < 2 {
			continue
		}
		split := &SplitStruct{Struct: st, FieldColors: map[int]ir.Color{}}
		for i, f := range st.Fields {
			if f.Color.IsEnclave() {
				split.FieldColors[i] = f.Color
			}
		}
		p.Splits[st.Name] = split
	}
}

// buildInterface generates the interface version of an entry point: it
// keeps the original name, is executed in normal mode, spawns the enclave
// chunks, and then runs the U chunk directly (§7.3.4, Figure 7's
// "main (interf.)").
func (p *Program) buildInterface(spec *typing.FuncSpec) {
	pf := p.Funcs[spec]
	if pf == nil || pf.Interface != nil {
		return
	}
	var spawns []ir.Color
	for _, c := range pf.ColorSet {
		if !c.IsUntrusted() {
			spawns = append(spawns, c)
		}
	}
	pf.Interface = &InterfaceFn{Name: spec.Orig.FName, Spawns: spawns}
	p.Entries[spec.Orig.FName] = pf
	// An interface always needs a U chunk to run in normal mode, even
	// if the function never touches unsafe memory.
	if _, ok := pf.Chunks[ir.U]; !ok {
		p.buildChunk(pf, ir.U)
	}
}
