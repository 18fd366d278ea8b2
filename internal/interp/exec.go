package interp

import (
	"fmt"

	"privagic/internal/exec"

	"privagic/internal/ir"
	"privagic/internal/partition"
	"privagic/internal/prt"
	"privagic/internal/sgx"
	"privagic/internal/value"
)

// execChunk is the prt.ChunkExec callback: it runs a chunk body on the
// worker's goroutine, inside the worker's enclave. A runtime error ends
// the chunk and is returned, named by the chunk, for its Done to carry to
// the spawner; the worker itself survives (a crashed enclave must not take
// the process down). Injected faults (values with an InjectedFault method)
// re-panic instead: they must reach the runtime's recover to become an
// EnclaveAbort the recovery layer can replay, not a program error.
//
// Under recovery the chunk runs inside an effect transaction: stores and
// output buffer until the chunk completes, so a crashed attempt leaves no
// trace and its replay is idempotent. A chunk that ends in a runtime error
// completes all the same (recovery does not replay program bugs), so its
// effects commit, as they do with recovery off.
func (ip *Interp) execChunk(w *prt.Worker, chunkID int, args []val) (result val, err error) {
	// The chunk's first barrier interval starts here: open the copy-in
	// snapshot (when the boundary defense or an observer is engaged). A
	// nested spawn on the same worker restores the outer chunk's
	// transaction and snapshot when it ends, and the chunk's stack frames
	// are given back however it ends.
	ws := stateOf(w)
	st := &ws.stack
	ip.stackEpoch(w, st)
	st.depth++
	m := st.mark()
	prevTx, prevSnap := ws.tx, ws.snap
	tx := ip.beginTx(chunkID, &ws.txs)
	ws.tx, ws.snap = tx, ip.beginSnap()
	if tx != nil {
		st.enterTx(prevTx != nil)
	}
	ch := ip.Prog.ChunkByID[chunkID]
	defer func() {
		ws.tx, ws.snap = prevTx, prevSnap
		st.depth--
		// Publish before the Done (or the abort) leaves the worker.
		ip.publishCounts(ws)
		r := recover()
		_, injected := r.(interface{ InjectedFault() })
		if tx != nil {
			// The transaction goes back to the worker once it has
			// committed or been discarded, however this ends.
			defer ws.txs.put(tx)
			if injected {
				ip.pinTx(st)
			}
			st.exitTx()
		}
		st.release(m)
		if injected {
			ip.discardTx(tx)
			panic(r)
		}
		if r != nil {
			if re, ok := r.(runtimeErr); ok {
				err = fmt.Errorf("in chunk %s: %w", ch.Fn.FName, re.Err)
			} else {
				err = fmt.Errorf("interp: chunk %d panicked: %v", chunkID, r)
			}
			result = val{}
		}
		ip.commitTx(w, tx)
	}()
	return ip.runChunkBody(w, ch, args), nil
}

// runChunkBody runs a chunk body on the worker's selected engine: the
// interpreter (the reference), the compiled tier, or both under the
// differential oracle. Chunks the compiler skipped (empty bodies) fall
// back to the interpreter on every engine.
func (ip *Interp) runChunkBody(w *prt.Worker, ch *partition.Chunk, args []val) val {
	switch w.Engine {
	case prt.EngineCompiled:
		if cf := ip.compiledFn(ch.Fn); cf != nil {
			ip.es.compiledRuns.Add(1)
			return ip.runCompiled(cf, w, args, ip.live)
		}
		return ip.runFn(w, ch.Fn, args)
	case prt.EngineDifferential:
		return ip.runDifferential(w, ch, args)
	default:
		return ip.runFn(w, ch.Fn, args)
	}
}

// runOn runs a directly-called function body on the worker's engine (the
// differential tier interprets here: its live pass is the interpreter,
// and the recorder captures the callee's operations inline).
func (ip *Interp) runOn(w *prt.Worker, fn *ir.Function, args []val) val {
	if w.Engine == prt.EngineCompiled {
		if cf := ip.compiledFn(fn); cf != nil {
			ip.es.compiledRuns.Add(1)
			return ip.runCompiled(cf, w, args, ip.live)
		}
	}
	return ip.runFn(w, fn, args)
}

// runFn interprets one function (a chunk or a helper) with the worker's
// mode governing every memory access. The activation gives its stack
// frames back, and publishes its boundary counts, when it returns; a
// panicking activation's are handled where the panic is recovered.
func (ip *Interp) runFn(w *prt.Worker, fn *ir.Function, args []val) val {
	ws := stateOf(w)
	m := ws.stack.mark()
	v := ip.interpret(w, fn, args)
	ws.stack.release(m)
	ip.publishCounts(ws)
	return v
}

// interpret is runFn's instruction loop.
func (ip *Interp) interpret(w *prt.Worker, fn *ir.Function, args []val) val {
	frame := make(map[ir.Value]val, 16)
	for i, p := range fn.Params {
		if i < len(args) {
			frame[p] = args[i]
		}
	}
	if len(fn.Blocks) == 0 {
		return val{}
	}
	blk := fn.Blocks[0]
	var prev *ir.Block
	steps := 0
	for {
		steps++
		if steps > 100_000_000 {
			errf("interp: instruction budget exceeded in @%s (livelock?)", fn.FName)
		}
		// Phase 1: φ-nodes read their inputs simultaneously.
		var phiVals []val
		var phis []*ir.Phi
		for _, in := range blk.Instrs {
			phi, ok := in.(*ir.Phi)
			if !ok {
				break
			}
			phis = append(phis, phi)
			got := false
			for _, e := range phi.Edges {
				if e.Pred == prev {
					phiVals = append(phiVals, ip.eval(frame, e.Val))
					got = true
					break
				}
			}
			if !got {
				phiVals = append(phiVals, val{})
			}
		}
		for i, phi := range phis {
			frame[phi] = phiVals[i]
		}
		// Phase 2: straight-line execution.
		for _, in := range blk.Instrs[len(phis):] {
			switch t := in.(type) {
			case *ir.Ret:
				if t.Val == nil {
					return val{}
				}
				return ip.eval(frame, t.Val)
			case *ir.Br:
				prev, blk = blk, t.Target
			case *ir.CondBr:
				c := ip.eval(frame, t.Cond)
				prev = blk
				if c.I != 0 {
					blk = t.Then
				} else {
					blk = t.Else
				}
			default:
				ip.step(w, fn, frame, in)
			}
		}
		if term := blk.Terminator(); term == nil {
			errf("interp: block %%%s of @%s falls through", blk.BName, fn.FName)
		}
	}
}

// eval resolves an operand to a value.
func (ip *Interp) eval(frame map[ir.Value]val, v ir.Value) val {
	switch t := v.(type) {
	case *ir.ConstInt:
		return iv(t.V)
	case *ir.ConstFloat:
		return value.FV(t.V)
	case *ir.Null:
		return iv(0)
	case *ir.Global:
		addr, ok := ip.globals[t]
		if !ok {
			errf("interp: global %s not allocated", t.Name())
		}
		return iv(int64(addr))
	case *ir.Function:
		return iv(int64(ip.internFunc(t.FName)))
	}
	if x, ok := frame[v]; ok {
		return x
	}
	return val{}
}

// step executes one non-terminator instruction.
func (ip *Interp) step(w *prt.Worker, fn *ir.Function, frame map[ir.Value]val, in ir.Instr) {
	switch t := in.(type) {
	case *ir.Alloca:
		frame[t] = ip.doAlloca(w, t)

	case *ir.Malloc:
		count := int64(1)
		if t.Count != nil {
			count = ip.eval(frame, t.Count).I
		}
		frame[t] = ip.doMalloc(w, t, count)

	case *ir.Free:
		// The heap is a bump allocator that does not reclaim; free is a
		// no-op.

	case *ir.Load:
		addr := uint64(ip.eval(frame, t.Ptr).I)
		if addr == 0 {
			errf("interp: nil dereference: %q in @%s", t.String(), fn.FName)
		}
		frame[t] = ip.memLoad(w, addr, t.Type())

	case *ir.Store:
		addr := uint64(ip.eval(frame, t.Ptr).I)
		if addr == 0 {
			errf("interp: nil dereference: %q in @%s", t.String(), fn.FName)
		}
		ip.memStore(w, addr, ip.eval(frame, t.Val), wordType(t.Val))

	case *ir.BinOp:
		frame[t] = exec.BinOp(t.Op, t.Type(), ip.eval(frame, t.X), ip.eval(frame, t.Y))

	case *ir.Cmp:
		frame[t] = exec.Cmp(t.Pred, wordType(t.X), ip.eval(frame, t.X), ip.eval(frame, t.Y))

	case *ir.Cast:
		frame[t] = exec.Cast(ip.eval(frame, t.Val), wordType(t.Val), t.Type())

	case *ir.FieldAddr:
		frame[t] = ip.fieldAddrAt(w, t, uint64(ip.eval(frame, t.X).I))

	case *ir.IndexAddr:
		base := ip.eval(frame, t.X).I
		idx := ip.eval(frame, t.Index).I
		elem := t.Type().(ir.PointerType).Elem
		size := elem.Size()
		if ly := ip.layoutOf(elem); ly != nil {
			size = ly.size
		}
		frame[t] = iv(base + idx*size)

	case *ir.Phi:
		// Handled at block entry; reaching one here means a malformed
		// block.
		errf("interp: φ in straight-line position in @%s", fn.FName)

	case *ir.Call:
		frame[t] = ip.call(w, frame, t)

	default:
		errf("interp: unknown instruction %T", in)
	}
}

// resolveAllocColor maps an allocation annotation to the region color.
func resolveAllocColor(c ir.Color) ir.Color {
	if c.IsEnclave() {
		return c
	}
	return ir.U
}

// doAlloca services a stack allocation on the worker's stack in the
// variable's region, recording the resulting address when the
// differential oracle is live. Under recovery the address is journaled
// like a load: a replay is served the crashed attempt's addresses, which
// peers may already hold (its own allocation is then unused, and given
// back when the activation returns).
func (ip *Interp) doAlloca(w *prt.Worker, t *ir.Alloca) val {
	region := ip.regionOfColor(resolveAllocColor(t.Color))
	size := t.Elem.Size()
	if ly := ip.layoutOf(t.Elem); ly != nil {
		size = ly.size
	}
	addr := sgx.EncodePtr(region, ip.stackAlloc(&stateOf(w).stack, region, size))
	v := iv(int64(w.JournalWord(addr)))
	if rec := recOf(w); rec != nil {
		rec.add(diffOp{kind: opAlloca, v: v})
	}
	return v
}

// doMalloc allocates heap memory (count elements). Multi-color structures
// get the §7.2 treatment: the body goes to unsafe memory and every colored
// field is allocated out-of-line in its enclave, with the pointer written
// into the body's slot. Each out-of-line allocation is a runtime service
// call into the enclave (one message each way).
func (ip *Interp) doMalloc(w *prt.Worker, t *ir.Malloc, count int64) val {
	if count < 1 {
		count = 1
	}
	v := ip.mallocRaw(w, t, count)
	if rec := recOf(w); rec != nil {
		rec.add(diffOp{kind: opMalloc, a: count, v: v})
	}
	return v
}

func (ip *Interp) mallocRaw(w *prt.Worker, t *ir.Malloc, count int64) val {
	elem := t.Elem.Size()
	ly := ip.layoutOf(t.Elem)
	if ly != nil {
		elem = ly.size
	}
	if elem > 0 && count > int64(sgx.MaxOffset)/elem {
		errf("interp: malloc of %d x %d bytes exceeds the region ceiling", count, elem)
	}
	// The whole allocation runs as one journaled service call: the bump
	// allocator is runtime state outside the effect transaction, so a
	// replayed chunk must reuse the crashed attempt's addresses (peers may
	// already hold committed writes behind them) instead of allocating
	// fresh, orphaned memory.
	if ly != nil {
		return iv(int64(w.JournalAlloc(func() uint64 {
			region := ip.regionOfColor(resolveAllocColor(t.Color))
			r := ip.RT.Space.Region(region)
			base := ip.alloc(region, elem*count)
			for n := int64(0); n < count; n++ {
				for _, fc := range sortedFieldColors(ly.split) {
					fieldIdx, color := fc.idx, fc.color
					fldRegion := ip.regionOfColor(color)
					fldOff := ip.alloc(fldRegion, ly.split.Struct.Fields[fieldIdx].Type.Size())
					ptr := sgx.EncodePtr(fldRegion, fldOff)
					var buf [8]byte
					putInt(buf[:], int64(ptr))
					r.Store(base+uint64(n*ly.size+ly.offsets[fieldIdx]), buf[:])
					// Allocation request + reply to the field's enclave.
					ip.RT.Meter.ChargeMessage(&ip.RT.Machine.Cost)
					ip.RT.Meter.ChargeMessage(&ip.RT.Machine.Cost)
				}
			}
			return sgx.EncodePtr(region, base)
		})))
	}
	return iv(int64(w.JournalAlloc(func() uint64 {
		region := ip.regionOfColor(resolveAllocColor(t.Color))
		return sgx.EncodePtr(region, ip.alloc(region, elem*count))
	})))
}

// alloc bump-allocates in a region on behalf of the program; a refused
// allocation (past the region ceiling) becomes a runtime error.
func (ip *Interp) alloc(region sgx.RegionID, size int64) uint64 {
	off, err := ip.RT.Space.Region(region).TryAlloc(size)
	if err != nil {
		panic(runtimeErr{Err: err})
	}
	return off
}

type fieldColor struct {
	idx   int
	color ir.Color
}

func sortedFieldColors(sp *partition.SplitStruct) []fieldColor {
	out := make([]fieldColor, 0, len(sp.FieldColors))
	for i := range sp.Struct.Fields {
		if c, ok := sp.FieldColors[i]; ok {
			out = append(out, fieldColor{i, c})
		}
	}
	return out
}

// fieldAddrAt computes a field address, following the §7.2 indirection
// for colored fields of split structures (s->f becomes *(s->ind) style).
// Both engines call it with the evaluated base pointer.
func (ip *Interp) fieldAddrAt(w *prt.Worker, t *ir.FieldAddr, base uint64) val {
	off, plain := ip.fieldOffset(t)
	if plain {
		return iv(int64(base + uint64(off)))
	}
	if base == 0 {
		errf("interp: nil dereference: %q (split-field slot load)", t.String())
	}
	// Load the out-of-line pointer from the slot.
	return ip.memLoad(w, base+uint64(off), bytePtr)
}

// bytePtr is the type of a pointer-sized word, boxed once: converting
// ir.PtrTo(ir.I8) to ir.Type at each use allocates.
var bytePtr ir.Type = ir.PtrTo(ir.I8)

// wordType is the type of operand v as the engines read its word. The
// constant pointers (null, global and function addresses) resolve to
// bytePtr: their Type methods box a fresh type on every call, and an
// operator or a store needs only the word's size and whether it is a
// float.
func wordType(v ir.Value) ir.Type {
	switch v.(type) {
	case *ir.Null, *ir.Global, *ir.Function:
		return bytePtr
	}
	return v.Type()
}

// fieldOffset returns the offset of t's field in its struct's in-memory
// layout (the split layout for multi-color structures) and whether the
// field is plain. A colored field of a split structure is not: the slot
// at that offset holds a pointer to the field's out-of-line allocation.
func (ip *Interp) fieldOffset(t *ir.FieldAddr) (int64, bool) {
	st := t.Struct()
	if ly := ip.layouts[st.Name]; ly != nil {
		_, colored := ly.split.FieldColors[t.Index]
		return ly.offsets[t.Index], !colored
	}
	return st.Fields[t.Index].Offset, true
}

// memLoad performs a mode-checked scalar load: one pass of the word core
// when the value lies inside one aligned word, the byte path when it
// straddles two.
func (ip *Interp) memLoad(w *prt.Worker, addr uint64, typ ir.Type) val {
	size := typ.Size()
	if size > 8 {
		errf("interp: aggregate load of %s", typ)
	}
	if addr == 0 {
		errf("interp: nil dereference (load)")
	}
	var v val
	if addr&7+uint64(size) <= 8 {
		v = iv(signExtend(ip.loadWord(w, addr, int(size)), int(size)))
	} else {
		var buf [8]byte
		ip.loadBytes(w, addr, buf[:size])
		v = iv(getInt(buf[:size]))
	}
	if rec := recOf(w); rec != nil {
		rec.add(diffOp{kind: opLoad, a: int64(addr), v: v})
	}
	return v
}

// memStore performs a mode-checked scalar store, through the word core
// like memLoad.
func (ip *Interp) memStore(w *prt.Worker, addr uint64, v val, typ ir.Type) {
	size := typ.Size()
	if size > 8 {
		errf("interp: aggregate store of %s", typ)
	}
	if addr == 0 {
		errf("interp: nil dereference (store)")
	}
	if size == 8 {
		// A stored word may be a frame address leaving the worker.
		ip.pinIfLive(&stateOf(w).stack, v.I)
	}
	if addr&7+uint64(size) <= 8 {
		ip.storeWord(w, addr, int(size), uint64(v.I))
	} else {
		var buf [8]byte
		putInt(buf[:size], v.I)
		ip.storeBytes(w, addr, buf[:size])
	}
	if rec := recOf(w); rec != nil {
		rec.add(diffOp{kind: opStore, a: int64(addr), v: v})
	}
}
