package interp

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"privagic/internal/ir"
	"privagic/internal/prt"
	"privagic/internal/sgx"
	"privagic/internal/typing"
)

// TestOverlayMatchesByteMap drives random buffered scalar stores of 1,
// 2, 4 and 8 bytes — unaligned, straddling words, at the same offsets in
// two regions — through the overlay's growth from empty, interleaved
// with scalar loads that must each read what a plain byte map of the
// buffered bytes over the untouched backing memory reads. Both go
// through memStore and memLoad, so a scalar inside one word takes the
// word core and a straddling one the byte path. Commit must then leave
// memory as the stores issued it, last store winning. A second
// transaction sized from the first's hint must serve the same stream
// without growing.
func TestOverlayMatchesByteMap(t *testing.T) {
	const src = `
long color(blue) g = 0;
entry long main(long x) {
	g = x;
	return 0;
}
`
	const base, span, ops = 4096, 1 << 13, 6000
	type byteKey struct {
		id  sgx.RegionID
		off uint64
	}
	var hint txSize
	for _, sized := range []bool{false, true} {
		ip := build(t, typing.Relaxed, src, "main")
		ip.EnableRecovery(1)
		w := ip.mainThread().Normal()
		// Run as the blue chunk would: its mode reaches both regions.
		w.Mode = 1
		regions := []sgx.RegionID{sgx.Unsafe, 1}
		rng := rand.New(rand.NewSource(1))
		backing := map[sgx.RegionID][]byte{}
		for _, id := range regions {
			mem := make([]byte, span+8)
			rng.Read(mem)
			ip.RT.Space.Region(id).Store(base, mem)
			backing[id] = mem
		}
		tx := ip.beginTx(0, &txStack{hint: hint})
		stateOf(w).tx = tx
		reserved := len(tx.overlay.slots)
		want := map[byteKey]byte{}
		var issued []writeRec
		for i := 0; i < ops; i++ {
			id := regions[rng.Intn(len(regions))]
			n := []int{1, 2, 4, 8}[rng.Intn(4)]
			off := base + uint64(rng.Intn(span))
			addr := sgx.EncodePtr(id, off)
			typ := ir.IntType{Bits: 8 * n}
			buf := make([]byte, n)
			if rng.Intn(3) > 0 {
				rng.Read(buf)
				ip.memStore(w, addr, iv(getInt(buf)), typ)
				issued = append(issued, writeRec{off: off, n: int32(n), id: int32(id)})
				for j, b := range buf {
					want[byteKey{id, off + uint64(j)}] = b
				}
				continue
			}
			putInt(buf, ip.memLoad(w, addr, typ).I)
			exp := make([]byte, n)
			for j := range exp {
				b, ok := want[byteKey{id, off + uint64(j)}]
				if !ok {
					b = backing[id][off-base+uint64(j)]
				}
				exp[j] = b
			}
			if !bytes.Equal(buf, exp) {
				t.Fatalf("sized=%v op %d: %d-byte load at region %d+%#x = %x, want %x", sized, i, n, id, off, buf, exp)
			}
		}
		words := map[byteKey]bool{}
		for k := range want {
			words[byteKey{k.id, k.off >> 3}] = true
		}
		if tx.overlay.n != len(words) {
			t.Errorf("sized=%v: overlay holds %d words, want %d", sized, tx.overlay.n, len(words))
		}
		if 2*tx.overlay.n > len(tx.overlay.slots) {
			t.Errorf("sized=%v: overlay is %d/%d full, want at most half", sized, tx.overlay.n, len(tx.overlay.slots))
		}
		if sized && len(tx.overlay.slots) != reserved {
			t.Errorf("overlay sized for %d words grew from %d to %d slots", hint.words, reserved, len(tx.overlay.slots))
		}
		if !sized && reserved != 0 {
			t.Errorf("an unsized transaction reserved %d overlay slots", reserved)
		}
		if len(tx.redo) != len(issued) {
			t.Fatalf("sized=%v: redo log holds %d stores, want %d", sized, len(tx.redo), len(issued))
		}
		for i := range issued {
			if tx.redo[i] != issued[i] {
				t.Fatalf("sized=%v: redo[%d] = %+v, want %+v (store order)", sized, i, tx.redo[i], issued[i])
			}
		}
		hint = tx.size()
		stateOf(w).tx = nil
		ip.commitTx(w, tx)
		for k, b := range want {
			var got [1]byte
			ip.RT.Space.Region(k.id).Load(k.off, got[:])
			if got[0] != b {
				t.Fatalf("sized=%v: after commit, region %d+%#x = %#x, want %#x (the last store)", sized, k.id, k.off, got[0], b)
			}
		}
	}
}

// TestTxRecycling: a finished transaction goes back to its worker's
// stack emptied and is reused by the next spawned chunk, a nested one
// takes another, and a transaction the size of a memcached batch's
// (about 2,500 overlay words, 1,000 stores, 32 KiB) is dropped instead
// of kept.
func TestTxRecycling(t *testing.T) {
	ip := build(t, typing.Relaxed, `entry long main(long x) { return x; }`, "main")
	ip.EnableRecovery(1)
	w := ip.mainThread().Normal()
	s := &stateOf(w).txs
	ref := ip.RT.Space.Resolve(sgx.EncodePtr(sgx.Unsafe, 4096))
	a, b := ip.beginTx(1, s), ip.beginTx(2, s)
	s.put(a)
	s.put(b)
	outer := ip.beginTx(1, s)
	storeIn(ip, w, outer, ref.Addr, []byte{1, 2, 3, 4, 5, 6, 7, 8})
	inner := ip.beginTx(2, s)
	if outer != b || inner != a {
		t.Fatalf("an outer and a nested chunk got %p and %p, want the finished %p and %p", outer, inner, b, a)
	}
	s.put(inner)
	s.put(outer)
	if got := ip.beginTx(3, s); got != outer || got.chunkID != 3 || got.overlay.n != 0 || len(got.redo) != 0 || len(got.arena) != 0 {
		t.Fatalf("the next chunk got %p (chunk %d, %d words, %d stores), want the emptied %p", got, got.chunkID, got.overlay.n, len(got.redo), outer)
	} else if v := got.overlay.merge(ovWord(ref, ref.Off), 0); v != 0 {
		t.Errorf("a recycled overlay still serves %#x", v)
	}
	batch := ip.beginTx(4, s)
	data := make([]byte, 32)
	for i := 0; i < 1024; i++ {
		storeIn(ip, w, batch, sgx.EncodePtr(sgx.Unsafe, uint64(4096+40*i)), data)
	}
	size := batch.size()
	s.put(batch)
	for _, tx := range s.free {
		if tx == batch {
			t.Fatalf("a batch-sized transaction (%+v) was kept for reuse", size)
		}
	}
	if s.hint != size {
		t.Errorf("hint = %+v, want the batch's size %+v", s.hint, size)
	}
}

// storeIn issues a checked store of data at addr on w as the chunk whose
// effect transaction is tx.
func storeIn(ip *Interp, w *prt.Worker, tx *effectTx, addr uint64, data []byte) {
	ws := stateOf(w)
	prev := ws.tx
	ws.tx = tx
	ip.storeBytes(w, addr, data)
	ws.tx = prev
}

// commitPanic is a BoundaryObserver that panics at the first backing
// store to unsafe memory, which only a commit makes here.
type commitPanic struct{ fired bool }

func (o *commitPanic) GuardedLoad(_ uint64, _ int, _, _ bool, load func()) { load() }

func (o *commitPanic) GuardedStore(_ uint64, _ int, store func()) {
	if !o.fired {
		o.fired = true
		panic("store refused mid-commit")
	}
	store()
}

// TestLeafCommitIsPointOfNoReturn: bump's blue chunk is a leaf whose
// commit applies acc before out. The observer aborts the commit between
// the two. A fresh re-run would read the applied acc and apply it again,
// so the spawn surfaces its typed error instead of replaying, and acc
// is applied once.
func TestLeafCommitIsPointOfNoReturn(t *testing.T) {
	const src = `
ignore void declassify(char* dst, char color(blue)* src, long n);
ignore long reveal(long color(blue) v);
long color(blue) acc = 0;
char color(blue) val[8];
char out[8];
entry void bump() {
	acc = acc + 1;
	declassify(out, val, 8);
}
entry long peek() { return reveal(acc); }
`
	for _, e := range allEngines {
		t.Run(e.String(), func(t *testing.T) {
			ip := withEngine(t, build(t, typing.Relaxed, src, "bump", "peek"), e)
			ip.EnableRecovery(2)
			ip.SetBoundaryObserver(&commitPanic{})
			_, err := ip.Call("bump")
			var abort *prt.EnclaveAbort
			if !errors.As(err, &abort) {
				t.Fatalf("bump() = %v, want an EnclaveAbort", err)
			}
			rs := ip.RT.RecoveryStats()
			if rs.Unlogged != 1 || rs.Replays != 0 || rs.Giveups != 1 {
				t.Errorf("%d unlogged, %d replays, %d giveups; want 1, 0 and 1", rs.Unlogged, rs.Replays, rs.Giveups)
			}
			if got := callOK(t, ip, "peek"); got != 1 {
				t.Errorf("acc = %d after the aborted commit, want 1 (applied once)", got)
			}
		})
	}
}
