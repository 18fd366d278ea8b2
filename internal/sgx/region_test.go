package sgx

import (
	"errors"
	"sync"
	"testing"
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
