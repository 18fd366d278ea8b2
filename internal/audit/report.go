package audit

import (
	"fmt"
	"sort"
	"strings"

	"privagic/internal/ir"
	"privagic/internal/partition"
	"privagic/internal/typing"
)

// Crossing is one point where data or control passes between the trusted
// and untrusted worlds (or between enclaves) in the partitioned program,
// together with the mechanism that justifies it.
type Crossing struct {
	Pos   ir.Pos
	Fn    string // partitioned function key, or "<module>"
	Chunk string // chunk the crossing happens in, empty for metadata-level
	Kind  string // spawn, cont-send, cont-wait, join, declassify, ...
	// Detail says what crosses.
	Detail string
	// Justification names the sanctioned mechanism: entry point,
	// declassify whitelist, call-plan trampoline, barrier, S access.
	Justification string
}

// BoundaryReport is the whole-program enumeration of every U<->S crossing
// the partitioned program performs.
type BoundaryReport struct {
	Mode      typing.Mode
	Crossings []Crossing
}

// Table renders the report as an aligned text table, one crossing per
// line, deterministically ordered.
func (r *BoundaryReport) Table() string {
	if len(r.Crossings) == 0 {
		return "no boundary crossings: the program never leaves its chunks\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "boundary crossings (%d, mode %s):\n", len(r.Crossings), r.Mode)
	wKind, wWhere := len("kind"), len("where")
	for _, c := range r.Crossings {
		if len(c.Kind) > wKind {
			wKind = len(c.Kind)
		}
		if w := len(c.where()); w > wWhere {
			wWhere = w
		}
	}
	fmt.Fprintf(&b, "  %-*s  %-*s  %s\n", wKind, "kind", wWhere, "where", "what / justification")
	for _, c := range r.Crossings {
		fmt.Fprintf(&b, "  %-*s  %-*s  %s — %s\n", wKind, c.Kind, wWhere, c.where(), c.Detail, c.Justification)
	}
	return b.String()
}

func (c *Crossing) where() string {
	if c.Chunk != "" {
		return c.Chunk
	}
	return c.Fn
}

// buildReport enumerates every boundary crossing of a partitioned program:
// interface spawns, runtime intrinsic messages, declassifications,
// external calls, relaxed-mode shared-memory accesses, and split-struct
// indirections.
func buildReport(prog *partition.Program) *BoundaryReport {
	r := &reporter{prog: prog}
	r.run()
	sort.SliceStable(r.crossings, func(i, j int) bool {
		x, y := r.crossings[i], r.crossings[j]
		if x.Fn != y.Fn {
			return x.Fn < y.Fn
		}
		if x.Chunk != y.Chunk {
			return x.Chunk < y.Chunk
		}
		if x.Pos.Line != y.Pos.Line {
			return x.Pos.Line < y.Pos.Line
		}
		if x.Kind != y.Kind {
			return x.Kind < y.Kind
		}
		return x.Detail < y.Detail
	})
	return &BoundaryReport{Mode: prog.Mode, Crossings: r.crossings}
}

type reporter struct {
	prog      *partition.Program
	crossings []Crossing
}

func (r *reporter) add(c Crossing) { r.crossings = append(r.crossings, c) }

func (r *reporter) run() {
	prog := r.prog
	for _, pf := range sortedParts(prog) {
		key := pf.Spec.Key
		if pf.Interface != nil {
			for _, c := range pf.Interface.Spawns {
				r.add(Crossing{
					Fn:            key,
					Kind:          "spawn",
					Detail:        fmt.Sprintf("interface %s starts enclave chunk %s", pf.Interface.Name, c),
					Justification: "entry point interface version (§7.3.4)",
				})
			}
		}
		for _, c := range chunkColors(pf) {
			ch := pf.Chunks[c]
			if ch == nil || len(ch.Fn.Blocks) == 0 {
				continue
			}
			r.scanChunk(pf, ch)
		}
	}
	for _, name := range splitKeys(prog.Splits) {
		split := prog.Splits[name]
		for _, i := range sortedFieldIdx(split.FieldColors) {
			f := split.Struct.Fields[i]
			r.add(Crossing{
				Fn:            "<module>",
				Kind:          "split-field",
				Detail:        fmt.Sprintf("field %s.%s lives out-of-line in enclave %s behind a shared pointer", name, f.Name, split.FieldColors[i]),
				Justification: "split-struct indirection (§7.2)",
			})
		}
	}
}

func sortedFieldIdx(m map[int]ir.Color) []int {
	out := make([]int, 0, len(m))
	for i := range m {
		out = append(out, i)
	}
	sort.Ints(out)
	return out
}

// scanChunk records the crossings inside one chunk body.
func (r *reporter) scanChunk(pf *partition.PartFunc, ch *partition.Chunk) {
	prog := r.prog
	key := pf.Spec.Key
	name := ch.Name()
	barrierTag := map[int]bool{}
	for _, tag := range prog.BarrierTags(pf) {
		barrierTag[tag] = true
	}
	ch.Fn.Instrs(func(_ *ir.Block, in ir.Instr) {
		pos := in.InstrPos()
		switch x := in.(type) {
		case *ir.Call:
			r.scanCall(pf, ch, x, pos, key, name, barrierTag)
		case *ir.Load:
			if !ch.Color.IsEnclave() {
				return
			}
			if pt, ok := x.Ptr.Type().(ir.PointerType); ok && (pt.Color.IsNone() || pt.Color.IsUntrusted() || pt.Color.IsShared()) {
				r.add(Crossing{Pos: pos, Fn: key, Chunk: name, Kind: "shared-read",
					Detail:        fmt.Sprintf("enclave %s reads unsafe memory through %s", ch.Color, x.Ptr.Name()),
					Justification: sharedJustification(prog.Mode)})
			}
		case *ir.Store:
			if !ch.Color.IsEnclave() {
				return
			}
			if pt, ok := x.Ptr.Type().(ir.PointerType); ok && (pt.Color.IsNone() || pt.Color.IsUntrusted() || pt.Color.IsShared()) {
				r.add(Crossing{Pos: pos, Fn: key, Chunk: name, Kind: "shared-write",
					Detail:        fmt.Sprintf("enclave %s writes unsafe memory through %s", ch.Color, x.Ptr.Name()),
					Justification: sharedJustification(prog.Mode)})
			}
		}
	})
}

// sunkJustification covers a cont the crossing optimizer sank out of a
// search loop: it carries the loop's exit iteration, a function of the
// per-iteration values the reference plan released.
const sunkJustification = "loop-exit iteration of a sunk search-loop cont, once per loop activation (§7.3.2)"

func sharedJustification(m typing.Mode) string {
	if m == typing.Hardened {
		return "explicit U access from enclave code (§5, hardened)"
	}
	return "relaxed-mode S access; loads degrade to F (§5)"
}

func (r *reporter) scanCall(pf *partition.PartFunc, ch *partition.Chunk, call *ir.Call, pos ir.Pos, key, name string, barrierTag map[int]bool) {
	callee, direct := call.Callee.(*ir.Function)
	if !direct {
		r.add(Crossing{Pos: pos, Fn: key, Chunk: name, Kind: "external-call",
			Detail:        "indirect call leaves the partitioned program",
			Justification: "call into the untrusted part (§6.3)"})
		return
	}
	switch callee.FName {
	case partition.IntrSpawn:
		detail := "spawn message"
		if id, ok := constArg(call, 0); ok && int(id) < len(r.prog.ChunkByID) && id >= 0 {
			detail = fmt.Sprintf("spawn message starts chunk %s with %d trampoline args",
				r.prog.ChunkByID[id].Name(), len(call.Args)-2)
		}
		r.add(Crossing{Pos: pos, Fn: key, Chunk: name, Kind: "spawn",
			Detail: detail, Justification: "call-plan trampoline (§7.3.2)"})
	case partition.IntrSend:
		tag, _ := constArg(call, 1)
		dst, _ := constArg(call, 0)
		kind, just := "cont-send", "cont message of the call plan (§7.3.2)"
		if barrierTag[int(tag)] {
			kind, just = "barrier-send", "visible-effect synchronization barrier (§7.3.3)"
		} else if pf.Sunk[int(tag)] != nil {
			just = sunkJustification
		}
		r.add(Crossing{Pos: pos, Fn: key, Chunk: name, Kind: kind,
			Detail:        fmt.Sprintf("tag %d to chunk of color %s through the untrusted queue", tag, r.prog.ColorAt(int(dst))),
			Justification: just})
	case partition.IntrWait:
		tag, _ := constArg(call, 0)
		kind, just := "cont-wait", "cont message of the call plan (§7.3.2)"
		if barrierTag[int(tag)] {
			kind, just = "barrier-wait", "visible-effect synchronization barrier (§7.3.3)"
		} else if pf.Sunk[int(tag)] != nil {
			just = sunkJustification
		}
		r.add(Crossing{Pos: pos, Fn: key, Chunk: name, Kind: kind,
			Detail:        fmt.Sprintf("tag %d from the untrusted queue", tag),
			Justification: just})
	case partition.IntrJoin:
		n, _ := constArg(call, 0)
		r.add(Crossing{Pos: pos, Fn: key, Chunk: name, Kind: "join",
			Detail:        fmt.Sprintf("waits for %d spawn completions from the untrusted queue", n),
			Justification: "call-plan completion protocol (§7.3.2)"})
	default:
		switch {
		case callee.Ignore:
			r.add(Crossing{Pos: pos, Fn: key, Chunk: name, Kind: "declassify",
				Detail:        fmt.Sprintf("@%s ignores the colors of its arguments", callee.FName),
				Justification: "ignore-function whitelist (§6.4)"})
		case callee.External && !callee.Within:
			r.add(Crossing{Pos: pos, Fn: key, Chunk: name, Kind: "external-call",
				Detail:        fmt.Sprintf("@%s runs outside the partitioned program", callee.FName),
				Justification: "call into the untrusted part (§6.3)"})
		}
	}
}
