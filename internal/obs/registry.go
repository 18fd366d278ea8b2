package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// CounterSource is the uniform counters surface shared with the fault
// layer (internal/faults declares the same shape): a bag of named
// monotonic counts. Registered sources are folded into Snapshot under
// their prefix.
type CounterSource interface {
	Counters() map[string]int64
}

// Histogram is a power-of-two-bucket histogram (bucket i counts values v
// with 2^(i-1) <= v < 2^i; bucket 0 counts v <= 0 and v < 1). It keeps
// exact count/sum/max so snapshots can report averages and tails without
// retaining samples. Safe on a nil receiver.
type Histogram struct {
	name    string
	buckets [48]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64
	max     atomic.Int64
}

// Observe records one sample.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	idx := 0
	for b := v; b > 0 && idx < len(h.buckets)-1; b >>= 1 {
		idx++
	}
	h.buckets[idx].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		m := h.max.Load()
		if v <= m || h.max.CompareAndSwap(m, v) {
			break
		}
	}
}

// Stats returns the sample count, sum and maximum.
func (h *Histogram) Stats() (count, sum, max int64) {
	if h == nil {
		return 0, 0, 0
	}
	return h.count.Load(), h.sum.Load(), h.max.Load()
}

// Buckets returns the non-empty buckets as (upper bound, count) pairs in
// ascending bound order.
func (h *Histogram) Buckets() (bounds, counts []int64) {
	if h == nil {
		return nil, nil
	}
	for i := range h.buckets {
		if n := h.buckets[i].Load(); n > 0 {
			bounds = append(bounds, int64(1)<<i)
			counts = append(counts, n)
		}
	}
	return bounds, counts
}

// Registry holds the metric namespace of one instrumented instance.
// Subsystems register gauge closures over counters they already maintain
// (zero added hot-path cost), histograms, and prefixed CounterSources;
// Snapshot flattens everything into name -> value. All methods are safe
// on a nil receiver — the disabled fast path.
type Registry struct {
	mu      sync.Mutex
	gauges  map[string]func() int64
	hists   map[string]*Histogram
	sources map[string]CounterSource
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		gauges:  map[string]func() int64{},
		hists:   map[string]*Histogram{},
		sources: map[string]CounterSource{},
	}
}

// Gauge registers a read-on-snapshot closure under name, replacing any
// previous registration. This is how existing subsystem counters surface
// without new hot-path work: the closure reads the atomic the subsystem
// already maintains.
func (r *Registry) Gauge(name string, fn func() int64) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	r.gauges[name] = fn
	r.mu.Unlock()
}

// Histogram returns the histogram registered under name, creating it on
// first use. Returns nil (a safe no-op histogram) on a nil registry.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = &Histogram{name: name}
		r.hists[name] = h
	}
	return h
}

// RegisterSource folds src's Counters into snapshots under prefix+".".
// Re-registering a prefix replaces the previous source (an instance that
// re-arms its fault injector keeps one live source).
func (r *Registry) RegisterSource(prefix string, src CounterSource) {
	if r == nil || src == nil {
		return
	}
	r.mu.Lock()
	r.sources[prefix] = src
	r.mu.Unlock()
}

// Snapshot flattens the registry into name -> value: gauges by calling
// their closure, histograms as
// name.count/name.sum/name.max, and each source's counters under its
// prefix.
func (r *Registry) Snapshot() map[string]int64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	gauges := make(map[string]func() int64, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	sources := make(map[string]CounterSource, len(r.sources))
	for k, v := range r.sources {
		sources[k] = v
	}
	r.mu.Unlock()

	out := map[string]int64{}
	for name, fn := range gauges {
		out[name] = fn()
	}
	for name, h := range hists {
		count, sum, max := h.Stats()
		out[name+".count"] = count
		out[name+".sum"] = sum
		out[name+".max"] = max
	}
	for prefix, src := range sources {
		for k, v := range src.Counters() {
			out[prefix+"."+k] = v
		}
	}
	return out
}

// Render formats a snapshot as sorted "name value" lines — what
// privagic-explain -metrics prints.
func Render(snap map[string]int64) string {
	keys := make([]string, 0, len(snap))
	for k := range snap {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%-44s %d\n", k, snap[k])
	}
	return b.String()
}
