package sgx

import (
	"bytes"
	"errors"
	"runtime"
	"sync"
	"testing"
	"testing/quick"
)

// TestAllocRefusesPastCeiling checks that an allocation ending past
// MaxOffset is refused with a typed error and leaves the region as it
// was, while allocations that fit keep working.
func TestAllocRefusesPastCeiling(t *testing.T) {
	r := NewRegion(1, "blue")
	first := r.Alloc(64)
	ext := r.Extent()
	for _, n := range []int64{1 << 40, int64(MaxOffset), int64(MaxOffset - ext + 1), 1<<63 - 1} {
		off, err := r.TryAlloc(n)
		var ce *CeilingError
		if !errors.As(err, &ce) || ce.Region != 1 || ce.Size != uint64(n) {
			t.Fatalf("TryAlloc(%d) = %d, %v; want a *CeilingError for region 1", n, off, err)
		}
		if got := r.Extent(); got != ext {
			t.Fatalf("extent moved from %d to %d on a refused allocation", ext, got)
		}
	}
	if off, err := r.TryAlloc(16); err != nil || off <= first {
		t.Fatalf("TryAlloc(16) after refusals = %d, %v; want a fresh offset", off, err)
	}
	defer func() {
		if _, ok := recover().(*CeilingError); !ok {
			t.Error("Alloc past the ceiling did not panic with a *CeilingError")
		}
	}()
	r.Alloc(1 << 40)
}

// TestExtentConcurrentWithAlloc reads the lock-free extent while other
// goroutines allocate (run it under -race): the extent never decreases,
// and the final extent covers every allocation.
func TestExtentConcurrentWithAlloc(t *testing.T) {
	r := NewRegion(0, "unsafe")
	const allocators, perAllocator = 4, 500
	var wg sync.WaitGroup
	ends := make([]uint64, allocators)
	for g := 0; g < allocators; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perAllocator; i++ {
				off := r.Alloc(int64(8 + i%24))
				if end := off + uint64(8+i%24); end > ends[g] {
					ends[g] = end
				}
			}
		}(g)
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	var last uint64
	for reading := true; reading; {
		select {
		case <-done:
			reading = false
		default:
		}
		ext := r.Extent()
		if ext < last {
			t.Fatalf("extent went backwards: %d after %d", ext, last)
		}
		last = ext
	}
	for g, end := range ends {
		if end > r.Extent() {
			t.Errorf("allocator %d ended at %d, past the extent %d", g, end, r.Extent())
		}
	}
}

// TestFarStoreMapsOnePage stores one word just under the ceiling, the
// farthest offset a checked store may name (in relaxed mode no sanitizer
// holds stores under the extent). Only that word's page is mapped: the
// store allocates its page and a page table that reaches it, not memory
// for every byte below it.
func TestFarStoreMapsOnePage(t *testing.T) {
	r := NewRegion(1, "blue")
	ref := Ref{Addr: EncodePtr(1, MaxOffset-8), ID: 1, Region: r, Off: MaxOffset - 8}
	if err := ref.Check(1, 8, true); err != nil {
		t.Fatalf("store at MaxOffset-8 refused: %v", err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r.Store(ref.Off, []byte{1, 2, 3, 4, 5, 6, 7, 8})
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Errorf("a store at MaxOffset-8 allocated %d bytes; want under 1 MiB", got)
	}
	if got := r.Mapped(); got != pageSize {
		t.Errorf("mapped %d bytes after one store; want one %d-byte page", got, pageSize)
	}
	if got := r.LoadWord(ref.Off); got != 0x0807060504030201 {
		t.Errorf("word after storing bytes 1..8 = %#x; want them little-endian", got)
	}
	if got := r.LoadWord(ref.Off - pageSize); got != 0 {
		t.Errorf("unmapped page below the store reads %#x; want 0", got)
	}
}

// regionOp is one generated access for TestRegionMatchesByteModel: a
// load or store of 1 to 64 bytes at an offset within 128 bytes of a page
// boundary, so accesses cross word and page boundaries often.
type regionOp struct {
	Store bool
	Page  uint8
	Delta int8
	Len   uint8
	Fill  byte
}

// TestRegionMatchesByteModel checks loads and stores at any alignment
// against a plain byte slice: every load returns what the slice holds,
// zeros included for pages never stored to.
func TestRegionMatchesByteModel(t *testing.T) {
	check := func(ops []regionOp) bool {
		r := NewRegion(1, "blue")
		model := make([]byte, 5*pageSize)
		for _, op := range ops {
			off := uint64((1+int(op.Page)%3)*pageSize + int(op.Delta))
			n := 1 + int(op.Len)%64
			if op.Store {
				data := make([]byte, n)
				for i := range data {
					data[i] = op.Fill + byte(7*i)
				}
				r.Store(off, data)
				copy(model[off:], data)
				continue
			}
			got := make([]byte, n)
			r.Load(off, got)
			if !bytes.Equal(got, model[off:off+uint64(n)]) {
				t.Logf("load of %d bytes at %#x = %x; model holds %x", n, off, got, model[off:off+uint64(n)])
				return false
			}
		}
		got := make([]byte, len(model))
		r.Load(0, got)
		return bytes.Equal(got, model)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestPartialStoresKeepNeighbours has two goroutines store disjoint bytes
// of one word of a fresh region (run it under -race): both race to map
// the page, and each partial store is merged into the word without
// losing the other's bytes.
func TestPartialStoresKeepNeighbours(t *testing.T) {
	r := NewRegion(0, "unsafe")
	const rounds = 100000
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g, span := range [][2]int{{0, 4}, {4, 7}} {
		wg.Add(1)
		go func(g int, lo, hi int) {
			defer wg.Done()
			<-start
			own := make([]byte, hi-lo)
			got := make([]byte, hi-lo)
			for i := 0; i < rounds; i++ {
				for k := range own {
					own[k] = byte(i + k + 16*g)
				}
				r.Store(pageSize+uint64(lo), own)
				r.Load(pageSize+uint64(lo), got)
				if !bytes.Equal(got, own) {
					t.Errorf("goroutine %d round %d: bytes %d..%d read %x after storing %x", g, i, lo, hi, got, own)
					return
				}
			}
		}(g, span[0], span[1])
	}
	close(start)
	wg.Wait()
	if got := r.Mapped(); got != pageSize {
		t.Errorf("mapped %d bytes; want one page", got)
	}
}

// BenchmarkRegionLoad times an aligned 8-byte load from a mapped page,
// from one goroutine and from GOMAXPROCS goroutines at once.
func BenchmarkRegionLoad(b *testing.B) {
	r := NewRegion(1, "blue")
	for off := uint64(0); off < 4*pageSize; off += 8 {
		r.StoreWord(off, off)
	}
	b.Run("serial", func(b *testing.B) {
		var buf [8]byte
		for i := 0; i < b.N; i++ {
			r.Load(uint64(i*8)%(4*pageSize), buf[:])
		}
	})
	b.Run("parallel", func(b *testing.B) {
		b.RunParallel(func(pb *testing.PB) {
			var buf [8]byte
			for i := uint64(0); pb.Next(); i += 8 {
				r.Load(i%(4*pageSize), buf[:])
			}
		})
	})
}
