package interp

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"privagic/internal/prt"
	"privagic/internal/sgx"
	"privagic/internal/typing"
)

// These tests pin the word core against the byte path: a checked load or
// store of a scalar inside one aligned word (loadWord, storeWord) must
// see and leave exactly what the range path (loadBytes, storeBytes)
// does, and a scalar straddling two words must read as its two in-word
// parts read through the core.

// wordProbe is one scalar access: n bytes at byte off of a word pair.
type wordProbe struct {
	off uint64
	n   int
}

// inWord lists every access of 1, 2, 4 and 8 bytes that lies inside one
// word, at each offset of the pair's first word where it fits.
func inWord() []wordProbe {
	var ps []wordProbe
	for _, n := range []int{1, 2, 4, 8} {
		for off := uint64(0); off+uint64(n) <= 8; off++ {
			ps = append(ps, wordProbe{off, n})
		}
	}
	return ps
}

// straddling lists every access of 2, 4 and 8 bytes that crosses from
// the pair's first word into its second.
func straddling() []wordProbe {
	var ps []wordProbe
	for _, n := range []int{2, 4, 8} {
		for off := uint64(9 - n); off < 8; off++ {
			ps = append(ps, wordProbe{off, n})
		}
	}
	return ps
}

// wordRig is an interpreter with a blue region and 64 allocated bytes in
// unsafe memory and in blue, filled with random bytes; its normal worker
// runs in blue's mode so it reaches both.
type wordRig struct {
	ip   *Interp
	w    *prt.Worker
	base map[sgx.RegionID]uint64 // word-aligned offset of the 64 bytes
	mem  map[sgx.RegionID][]byte // their initial contents
}

func newWordRig(t *testing.T, seed int64) *wordRig {
	t.Helper()
	ip := build(t, typing.Relaxed, `
long color(blue) g = 0;
entry long main(long x) {
	g = x;
	return 0;
}
`, "main")
	rg := &wordRig{ip: ip, w: ip.mainThread().Normal(),
		base: map[sgx.RegionID]uint64{}, mem: map[sgx.RegionID][]byte{}}
	rg.w.Mode = 1
	rng := rand.New(rand.NewSource(seed))
	for _, id := range []sgx.RegionID{sgx.Unsafe, 1} {
		r := ip.RT.Space.Region(id)
		off := r.Alloc(64)
		mem := make([]byte, 64)
		rng.Read(mem)
		r.Store(off, mem)
		rg.base[id], rg.mem[id] = off, mem
	}
	return rg
}

// addr is the address of byte off of region id's bytes.
func (rg *wordRig) addr(id sgx.RegionID, off uint64) uint64 {
	return sgx.EncodePtr(id, rg.base[id]+off)
}

// viaWord reads p at word pair k of region id through the word core,
// splitting a straddling access into its two in-word parts.
func (rg *wordRig) viaWord(id sgx.RegionID, k uint64, p wordProbe) uint64 {
	at := 16*k + p.off
	if first := int(8 - p.off); p.n > first {
		lo := rg.ip.loadWord(rg.w, rg.addr(id, at), first)
		hi := rg.ip.loadWord(rg.w, rg.addr(id, at+uint64(first)), p.n-first)
		return lo | hi<<(8*first)
	}
	return rg.ip.loadWord(rg.w, rg.addr(id, at), p.n)
}

// viaBytes reads p at word pair k of region id through the byte path.
func (rg *wordRig) viaBytes(id sgx.RegionID, k uint64, p wordProbe) uint64 {
	var buf [8]byte
	rg.ip.loadBytes(rg.w, rg.addr(id, 16*k+p.off), buf[:p.n])
	return binary.LittleEndian.Uint64(buf[:])
}

// want reads p at word pair k of region id from a plain byte image.
func want(img []byte, k uint64, p wordProbe) uint64 {
	var buf [8]byte
	copy(buf[:], img[16*k+p.off:16*k+p.off+uint64(p.n)])
	return binary.LittleEndian.Uint64(buf[:])
}

// TestWordCoreMatchesBytePathOverOverlay buffers partial words in an
// effect transaction — single bytes, a two-byte run, a store straddling
// two words — and reads every in-word and straddling scalar through both
// paths: each must read the buffered bytes over backing memory, byte for
// byte as a plain byte image of the two reads.
func TestWordCoreMatchesBytePathOverOverlay(t *testing.T) {
	rg := newWordRig(t, 1)
	rg.ip.EnableRecovery(1)
	ws := stateOf(rg.w)
	ws.tx = rg.ip.beginTx(0, &ws.txs)
	stores := []struct {
		off  uint64
		data []byte
	}{
		{3, []byte{0xA1}},
		{6, []byte{0xB1, 0xB2}},
		{23, []byte{0xC1, 0xC2}}, // straddles the second pair's words
		{33, []byte{0xD1}},
	}
	for _, id := range []sgx.RegionID{sgx.Unsafe, 1} {
		img := append([]byte(nil), rg.mem[id]...)
		for _, s := range stores {
			rg.ip.storeBytes(rg.w, rg.addr(id, s.off), s.data)
			copy(img[s.off:], s.data)
		}
		for k := uint64(0); k < 3; k++ {
			for _, p := range append(inWord(), straddling()...) {
				w, b, exp := rg.viaWord(id, k, p), rg.viaBytes(id, k, p), want(img, k, p)
				if w != exp || b != exp {
					t.Errorf("region %d pair %d %+v: word core %#x, byte path %#x, want %#x", id, k, p, w, b, exp)
				}
			}
		}
	}
}

// TestWordCoreMatchesBytePathStores stores each in-word and straddling
// scalar through storeWord (split in two at a word boundary) and through
// storeBytes, at the same offsets of two copies of the same bytes —
// directly, buffered, and directly into unsafe words a snapshot already
// copied in — and requires both copies to read back, and to end up in
// memory, byte for byte the same.
func TestWordCoreMatchesBytePathStores(t *testing.T) {
	for _, mode := range []string{"direct", "buffered", "snapshot"} {
		rg := newWordRig(t, 2)
		ws := stateOf(rg.w)
		id := sgx.RegionID(1)
		switch mode {
		case "buffered":
			rg.ip.EnableRecovery(1)
		case "snapshot":
			id = sgx.Unsafe
			rg.ip.EnableBoundaryDefense(FullBoundary())
			ws.snap = rg.ip.beginSnap()
		}
		r := rg.ip.RT.Space.Region(id)
		const v = 0x8877665544332211
		for _, p := range append(inWord(), straddling()...) {
			// Pair 0 takes the word core, pair 2 the byte path, over the
			// same initial bytes.
			r.Store(rg.base[id], rg.mem[id][:16])
			r.Store(rg.base[id]+32, rg.mem[id][:16])
			switch mode {
			case "buffered":
				ws.tx = rg.ip.beginTx(0, &ws.txs)
			case "snapshot":
				rg.ip.snapBarrier(rg.w)
				rg.viaBytes(id, 0, wordProbe{0, 8})
				rg.viaBytes(id, 0, wordProbe{8, 8})
				rg.viaBytes(id, 2, wordProbe{0, 8})
				rg.viaBytes(id, 2, wordProbe{8, 8})
			}
			at := rg.addr(id, p.off)
			if first := int(8 - p.off); p.n > first {
				rg.ip.storeWord(rg.w, at, first, v)
				rg.ip.storeWord(rg.w, at+uint64(first), p.n-first, v>>(8*first))
			} else {
				rg.ip.storeWord(rg.w, at, p.n, v)
			}
			var buf [8]byte
			binary.LittleEndian.PutUint64(buf[:], v)
			rg.ip.storeBytes(rg.w, rg.addr(id, 32+p.off), buf[:p.n])
			for _, q := range append(inWord(), straddling()...) {
				if a, b := rg.viaBytes(id, 0, q), rg.viaBytes(id, 2, q); a != b {
					t.Fatalf("%s store %+v: %+v reads %#x after storeWord, %#x after storeBytes", mode, p, q, a, b)
				}
			}
			if tx := ws.tx; tx != nil {
				ws.tx = nil
				rg.ip.commitTx(rg.w, tx)
				ws.txs.put(tx)
			}
			var a, b [16]byte
			r.Load(rg.base[id], a[:])
			r.Load(rg.base[id]+32, b[:])
			if a != b {
				t.Fatalf("%s store %+v: memory holds %x after storeWord, %x after storeBytes", mode, p, a, b)
			}
		}
	}
}

// TestWordCoreMatchesBytePathOverSnapshot reads every in-word and
// straddling scalar of unsafe memory under an armed snapshot, once
// through each path in both orders: the first read copies the words in,
// the attacker then rewrites the backing words, and the second read must
// be served the copy — both reads equal the original bytes, and both
// paths count the same copy-ins and served reads per word.
func TestWordCoreMatchesBytePathOverSnapshot(t *testing.T) {
	rg := newWordRig(t, 3)
	rg.ip.EnableBoundaryDefense(FullBoundary())
	ws := stateOf(rg.w)
	ws.snap = rg.ip.beginSnap()
	u := rg.ip.RT.Space.Region(sgx.Unsafe)
	type read func(sgx.RegionID, uint64, wordProbe) uint64
	paths := []struct {
		name        string
		first, then read
	}{
		{"word then bytes", rg.viaWord, rg.viaBytes},
		{"bytes then word", rg.viaBytes, rg.viaWord},
	}
	for _, path := range paths {
		for _, p := range append(inWord(), straddling()...) {
			words := int64(1)
			if p.off+uint64(p.n) > 8 {
				words = 2
			}
			u.Store(rg.base[sgx.Unsafe], rg.mem[sgx.Unsafe][:16])
			rg.ip.snapBarrier(rg.w)
			exp := want(rg.mem[sgx.Unsafe], 0, p)
			before := ws.counts
			if got := path.first(sgx.Unsafe, 0, p); got != exp {
				t.Errorf("%s %+v: copy-in read %#x, want %#x", path.name, p, got, exp)
			}
			copied := ws.counts
			u.StoreWord(rg.base[sgx.Unsafe], ^uint64(0))
			u.StoreWord(rg.base[sgx.Unsafe]+8, ^uint64(0))
			if got := path.then(sgx.Unsafe, 0, p); got != exp {
				t.Errorf("%s %+v: served read %#x, want the copied-in %#x", path.name, p, got, exp)
			}
			if d := copied.snapCopyIns - before.snapCopyIns; d != words {
				t.Errorf("%s %+v: %d copy-ins, want %d", path.name, p, d, words)
			}
			if d := ws.counts.snapServed - copied.snapServed; d != words {
				t.Errorf("%s %+v: %d served reads, want %d", path.name, p, d, words)
			}
		}
	}
}
