package interp

import (
	"fmt"
	"strconv"
	"strings"

	"privagic/internal/ir"
	"privagic/internal/obs"
	"privagic/internal/partition"
	"privagic/internal/prt"
	"privagic/internal/value"
)

// call evaluates a call instruction's arguments and dispatches it.
func (ip *Interp) call(w *prt.Worker, frame map[ir.Value]val, t *ir.Call) val {
	args := make([]val, len(t.Args))
	for i, a := range t.Args {
		args[i] = ip.eval(frame, a)
	}
	var callee val
	if _, direct := t.Callee.(*ir.Function); !direct {
		callee = ip.eval(frame, t.Callee)
	}
	return ip.dispatchCall(w, t, callee, args)
}

// spawnArgs rebuilds a spawned chunk's argument vector: the Free args the
// spawn carries, in parameter order (§7.3.2), zero-padded to the chunk's
// parameter count.
func spawnArgs(ch *partition.Chunk, fargs []val) []val {
	payload := make([]val, len(ch.Fn.Params))
	copy(payload, fargs)
	return payload
}

// dispatchCall dispatches a call instruction with its evaluated callee
// value and arguments: runtime intrinsics, direct chunk calls, builtins
// (the mini-libc of §6.3 plus host I/O), and indirect calls through the
// interface versions (§6.3). Both engines land here — it is the exec.Env
// call seam — and the differential recorder captures every operation with
// an effect or an environment-supplied result.
func (ip *Interp) dispatchCall(w *prt.Worker, t *ir.Call, callee val, args []val) val {
	fn, direct := t.Callee.(*ir.Function)
	if !direct {
		// Indirect call: resolve the function-pointer value to an
		// interface version, conservatively in the untrusted part.
		idx := callee.I
		if idx <= 0 || int(idx) > len(ip.ifaceTable) {
			errf("interp: indirect call through invalid function pointer %d", idx)
		}
		pf := ip.ifaceTable[idx-1]
		if ws := stateOf(w); ws.rec != nil {
			// The nested interface invocation manages its own spawns and
			// joins; record it as one opaque operation (recording
			// suspended inside) so the shadow replays its result.
			rec := ws.rec
			ws.rec = nil
			var v val
			func() {
				defer func() { ws.rec = rec }()
				v = ip.invokeInterface(w, pf, args)
			}()
			rec.add(diffOp{kind: opInvoke, a: idx, vec: args, v: v})
			return v
		}
		return ip.invokeInterface(w, pf, args)
	}
	switch fn.FName {
	case partition.IntrSpawn:
		chunkID := int(args[0].I)
		needReply := args[1].I != 0
		ch := ip.Prog.ChunkByID[chunkID]
		payload := spawnArgs(ch, args[2:])
		ip.pinEscapes(w, args[2:])
		w.Spawn(ip.Prog.ColorIndex(ch.Color), chunkID, payload)
		if rec := recOf(w); rec != nil {
			nr := int64(0)
			if needReply {
				nr = 1
			}
			rec.add(diffOp{kind: opSpawn, a: int64(chunkID), b: nr, vec: payload})
		}
		return val{}
	case partition.IntrWait:
		v, err := w.Wait(int(args[0].I))
		if err != nil {
			// A lost cont (timeout), a crashed peer, or shutdown: abort
			// this chunk; execChunk/Call surface the typed error.
			panic(runtimeErr{Err: err})
		}
		// A satisfied wait ends the barrier interval: drop the copy-in
		// snapshot so the interval that starts now re-copies each U word
		// (a peer's writes behind the barrier must become observable).
		ip.snapBarrier(w)
		if rec := recOf(w); rec != nil {
			rec.add(diffOp{kind: opWait, a: args[0].I, v: v})
		}
		return v
	case partition.IntrJoin:
		v, err := w.Join(int(args[0].I))
		if err != nil {
			panic(runtimeErr{Err: err})
		}
		ip.snapBarrier(w)
		if rec := recOf(w); rec != nil {
			rec.add(diffOp{kind: opJoin, a: args[0].I, v: v})
		}
		return v
	case partition.IntrSend:
		ip.pinEscapes(w, args[2:3])
		w.SendCont(int(args[0].I), int(args[1].I), args[2])
		if rec := recOf(w); rec != nil {
			rec.add(diffOp{kind: opSend, a: args[0].I, b: args[1].I, v: args[2]})
		}
		return val{}
	case partition.IntrSendV:
		// Vectored cont (crossing optimizer): one message carries the
		// values of every coalesced transport. The message owns its copy:
		// the compiled tier passes its frame's argument area, which the
		// next call overwrites.
		vec := append(make([]val, 0, len(args)-2), args[2:]...)
		tag := int(args[1].I)
		ip.pinEscapes(w, args[2:])
		w.SendContV(int(args[0].I), tag, vec)
		ip.cross.vecSends.Add(1)
		ip.RT.Tracer.Record(obs.EvVecSend, w.Index, 0, tag, 0, int64(len(vec)))
		if rec := recOf(w); rec != nil {
			rec.add(diffOp{kind: opSendV, a: args[0].I, b: int64(tag), vec: vec})
		}
		return val{}
	case partition.IntrWaitV:
		tag := int(args[0].I)
		vec, err := w.WaitV(tag)
		if err != nil {
			panic(runtimeErr{Err: err})
		}
		ip.snapBarrier(w)
		if vec == nil {
			panic(runtimeErr{Err: fmt.Errorf("interp: waitv(%d) received a scalar cont", tag)})
		}
		ip.vecMu.Lock()
		ip.vecStash[[2]int{w.Index, tag}] = vec
		ip.vecMu.Unlock()
		ip.cross.vecWaits.Add(1)
		ip.RT.Tracer.Record(obs.EvVecWait, w.Index, 0, tag, 0, int64(len(vec)))
		var v val
		if len(vec) > 0 {
			v = vec[0]
		}
		if rec := recOf(w); rec != nil {
			rec.add(diffOp{kind: opWaitV, b: int64(tag), vec: vec, v: v})
		}
		return v
	case partition.IntrElem:
		tag, idx := int(args[0].I), int(args[1].I)
		ip.vecMu.Lock()
		vec := ip.vecStash[[2]int{w.Index, tag}]
		ip.vecMu.Unlock()
		if idx < 0 || idx >= len(vec) {
			panic(runtimeErr{Err: fmt.Errorf("interp: elem(%d, %d) outside the received vector (len %d)", tag, idx, len(vec))})
		}
		ip.cross.elemReads.Add(1)
		v := vec[idx]
		if rec := recOf(w); rec != nil {
			rec.add(diffOp{kind: opElem, a: int64(tag), b: int64(idx), v: v})
		}
		return v
	}
	if !fn.External {
		// Direct call to another chunk on the same worker: the normal
		// same-color case, or the crossing optimizer's fused form (a
		// message-free unsafe chunk inlined into its spawner's worker).
		if ch := ip.chunkOf[fn]; ch != nil && ip.Prog.ColorIndex(ch.Color) != w.Index {
			ip.cross.fusedCalls.Add(1)
			ip.RT.Tracer.Record(obs.EvFusedCall, w.Index, ch.ID, 0, 0, 0)
		}
		return ip.runOn(w, fn, args)
	}
	v := ip.builtin(w, fn, t, args)
	if rec := recOf(w); rec != nil {
		// Builtins read and write memory through the byte helpers below
		// the recording seam, so one opaque record carries the whole
		// operation: the shadow checks the arguments (the observable
		// outbound surface) and replays the result.
		rec.add(diffOp{kind: opCall, name: fn.FName, vec: args, v: v})
	}
	return v
}

// spawn payload note: the partitioner forwards F args in the order given by
// CallPlan.FArgIdx; since non-F parameters are never consumed by a spawned
// chunk, positional padding with zero values is sound. The FArgIdx order is
// ascending, matching the reconstruction above when all leading params are
// free; for mixed layouts the values land in the first slots, which is
// still correct because a spawned chunk's colored params are unused.

// builtin executes an external function natively.
func (ip *Interp) builtin(w *prt.Worker, fn *ir.Function, t *ir.Call, args []val) val {
	cost := &ip.RT.Machine.Cost
	switch fn.FName {
	case "printf":
		ip.RT.Meter.ChargeSyscall(cost, w.Mode)
		ip.printTx(w, ip.format(w, args))
		return iv(0)
	case "puts":
		ip.RT.Meter.ChargeSyscall(cost, w.Mode)
		ip.printTx(w, ip.readString(w, uint64(args[0].I))+"\n")
		return iv(0)
	case "exit":
		panic(runtimeErr{Err: fmt.Errorf("%w: code %d", ErrExit, args[0].I)})
	case "abort":
		panic(runtimeErr{Err: fmt.Errorf("program aborted")})
	case "reveal":
		// Scalar declassification (§6.4): the identity function,
		// annotated ignore by the program, whose call site moves the
		// value out of its enclave under developer responsibility.
		if len(args) > 0 {
			return args[0]
		}
		return val{}
	case "classify_key":
		// Scalar classification of an 8-byte key into the enclave.
		dst, src := uint64(args[0].I), uint64(args[1].I)
		var buf [8]byte
		ip.loadBytes(w, src, buf[:])
		ip.storeBytes(w, dst, buf[:])
		return val{}
	case "classify", "declassify":
		// The paper's §6.4 communication idiom: an ignore-annotated
		// copy across the enclave boundary (classify moves untrusted
		// bytes in, declassify moves sanctioned results out). The
		// worker executing it is inside the enclave, so both sides
		// are accessible; in a real deployment this is where
		// encryption/attestation would sit.
		fallthrough
	case "memcpy", "strncpy":
		dst, src, n := uint64(args[0].I), uint64(args[1].I), args[2].I
		buf := ip.bulkBuf(w, fn.FName, n, dst, src)
		ip.loadBytes(w, src, buf)
		if fn.FName == "strncpy" {
			if i := indexByte(buf, 0); i >= 0 {
				for j := i; j < len(buf); j++ {
					buf[j] = 0
				}
			}
		}
		ip.storeBytes(w, dst, buf)
		return args[0]
	case "memset":
		dst, c, n := uint64(args[0].I), byte(args[1].I), args[2].I
		buf := ip.bulkBuf(w, fn.FName, n, dst)
		for i := range buf {
			buf[i] = c
		}
		ip.storeBytes(w, dst, buf)
		return args[0]
	case "strlen":
		return iv(int64(len(ip.readString(w, uint64(args[0].I)))))
	case "strcmp", "strncmp":
		a := ip.readString(w, uint64(args[0].I))
		b := ip.readString(w, uint64(args[1].I))
		if fn.FName == "strncmp" {
			n := int(args[2].I)
			if len(a) > n {
				a = a[:n]
			}
			if len(b) > n {
				b = b[:n]
			}
		}
		return iv(int64(strings.Compare(a, b)))
	case "hash64":
		// FNV-1a, the classic in-enclave hash helper.
		p, n := uint64(args[0].I), args[1].I
		buf := ip.bulkBuf(w, fn.FName, n, p)
		ip.loadBytes(w, p, buf)
		var h uint64 = 14695981039346656037
		for _, b := range buf {
			h ^= uint64(b)
			h *= 1099511628211
		}
		return iv(int64(h))
	case "thread_create":
		idx := args[0].I
		if idx <= 0 || int(idx) > len(ip.ifaceTable) {
			errf("interp: thread_create with invalid function pointer %d", idx)
		}
		pf := ip.ifaceTable[idx-1]
		arg := args[1]
		th := ip.RT.NewThread()
		at := &appThread{}
		ip.threads.Add(1)
		ip.bgMu.Lock()
		ip.bg = append(ip.bg, at)
		ip.bgMu.Unlock()
		go func() {
			defer ip.threads.Done()
			defer th.Close()
			defer func() {
				// A failed thread must not kill the process: its
				// failure surfaces at thread_join. Its boundary
				// counts are published all the same.
				if r := recover(); r != nil {
					if re, ok := r.(runtimeErr); ok {
						at.err = re.Err
					} else {
						at.err = fmt.Errorf("interp: thread panicked: %v", r)
					}
				}
				ip.publishCounts(stateOf(th.Normal()))
			}()
			ip.invokeInterface(th.Normal(), pf, []val{arg})
		}()
		return iv(0)
	case "thread_join":
		// Every thread taken here was counted in ip.threads before it
		// was listed, so the Wait orders its err before the read.
		ip.bgMu.Lock()
		joined := ip.bg
		ip.bg = nil
		ip.bgMu.Unlock()
		ip.threads.Wait()
		for _, at := range joined {
			if at.err != nil {
				panic(runtimeErr{Err: at.err})
			}
		}
		return val{}
	}
	errf("interp: call to unimplemented external @%s", fn.FName)
	return val{}
}

// appThread is one thread_create'd application thread: err is the
// failure that ended it, which the thread_join that joins it returns.
type appThread struct{ err error }

func indexByte(b []byte, c byte) int {
	for i, x := range b {
		if x == c {
			return i
		}
	}
	return -1
}

// readString loads a NUL-terminated string (capped at 1 MiB).
func (ip *Interp) readString(w *prt.Worker, addr uint64) string {
	if addr == 0 {
		return ""
	}
	var out []byte
	buf := make([]byte, 64)
	for len(out) < 1<<20 {
		ip.loadBytes(w, addr, buf)
		if i := indexByte(buf, 0); i >= 0 {
			return string(append(out, buf[:i]...))
		}
		out = append(out, buf...)
		addr += uint64(len(buf))
	}
	return string(out)
}

// format implements the printf subset the examples use.
func (ip *Interp) format(w *prt.Worker, args []val) string {
	f := ip.readString(w, uint64(args[0].I))
	var b strings.Builder
	ai := 1
	next := func() val {
		if ai < len(args) {
			v := args[ai]
			ai++
			return v
		}
		return val{}
	}
	for i := 0; i < len(f); i++ {
		c := f[i]
		if c != '%' || i+1 >= len(f) {
			b.WriteByte(c)
			continue
		}
		i++
		// Skip width/length modifiers.
		for i < len(f) && (f[i] == 'l' || f[i] == '0' || (f[i] >= '1' && f[i] <= '9') || f[i] == '.') {
			i++
		}
		if i >= len(f) {
			break
		}
		switch f[i] {
		case 'd', 'i', 'u':
			b.WriteString(strconv.FormatInt(next().I, 10))
		case 'x':
			b.WriteString(strconv.FormatInt(next().I, 16))
		case 'c':
			b.WriteByte(byte(next().I))
		case 's':
			b.WriteString(ip.readString(w, uint64(next().I)))
		case 'f', 'g', 'e':
			b.WriteString(strconv.FormatFloat(value.F(next()), 'g', -1, 64))
		case 'p':
			fmt.Fprintf(&b, "%#x", uint64(next().I))
		case '%':
			b.WriteByte('%')
		default:
			b.WriteByte('%')
			b.WriteByte(f[i])
		}
	}
	return b.String()
}
