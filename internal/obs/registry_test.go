package obs

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func TestGaugeConcurrentSum(t *testing.T) {
	r := NewRegistry()
	var n atomic.Int64
	r.Gauge("x", n.Load)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				n.Add(1)
			}
		}()
	}
	wg.Wait()
	if got := r.Snapshot()["x"]; got != 8000 {
		t.Fatalf("snap[x] = %d, want 8000", got)
	}
	// Re-registering a name replaces the closure: one value per name.
	r.Gauge("x", func() int64 { return 1 })
	if got := r.Snapshot()["x"]; got != 1 {
		t.Fatalf("replaced gauge still reports %d", got)
	}
}

func TestHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat")
	for _, v := range []int64{0, 1, 3, 100, 100, 5000} {
		h.Observe(v)
	}
	count, sum, max := h.Stats()
	if count != 6 || sum != 5204 || max != 5000 {
		t.Fatalf("Stats = (%d, %d, %d), want (6, 5204, 5000)", count, sum, max)
	}
	bounds, counts := h.Buckets()
	if len(bounds) != len(counts) || len(bounds) == 0 {
		t.Fatalf("Buckets = %v %v", bounds, counts)
	}
	var n int64
	for _, c := range counts {
		n += c
	}
	if n != count {
		t.Fatalf("bucket counts sum to %d, want %d", n, count)
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			t.Fatalf("bounds not ascending: %v", bounds)
		}
	}
}

type fakeSource map[string]int64

func (s fakeSource) Counters() map[string]int64 { return s }

func TestSnapshotAndSources(t *testing.T) {
	r := NewRegistry()
	r.Gauge("hits", func() int64 { return 3 })
	r.Gauge("depth", func() int64 { return 7 })
	r.Histogram("lat").Observe(9)
	r.RegisterSource("inject", fakeSource{"delivered": 42})
	snap := r.Snapshot()
	want := map[string]int64{
		"hits": 3, "depth": 7,
		"lat.count": 1, "lat.sum": 9, "lat.max": 9,
		"inject.delivered": 42,
	}
	for k, v := range want {
		if snap[k] != v {
			t.Fatalf("snap[%q] = %d, want %d (snap: %v)", k, snap[k], v, snap)
		}
	}
	// Re-registering a prefix replaces the old source.
	r.RegisterSource("inject", fakeSource{"delivered": 1})
	if got := r.Snapshot()["inject.delivered"]; got != 1 {
		t.Fatalf("replaced source still reports %d", got)
	}
}

func TestRenderSorted(t *testing.T) {
	out := Render(map[string]int64{"b": 2, "a": 1})
	ai, bi := strings.Index(out, "a"), strings.Index(out, "b")
	if ai < 0 || bi < 0 || ai > bi {
		t.Fatalf("render not sorted:\n%s", out)
	}
}

func TestNilRegistrySafe(t *testing.T) {
	var r *Registry
	r.Gauge("x", func() int64 { return 5 })
	h := r.Histogram("y")
	h.Observe(3)
	if n, _, _ := h.Stats(); n != 0 {
		t.Fatal("nil-registry histogram must stay empty")
	}
	r.Gauge("z", func() int64 { return 1 })
	r.RegisterSource("p", fakeSource{})
	if r.Snapshot() != nil {
		t.Fatal("nil registry snapshot must be nil")
	}
}
