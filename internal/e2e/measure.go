package e2e

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// opKind classifies a request for the read/write latency split.
type opKind uint8

const (
	opMixed opKind = iota // a memcached batch: sets and gets in one Call
	opRead
	opWrite
)

// outcome is what one request (or one load) did: how many YCSB ops it
// carried, the error that failed it (the client has already rebuilt its
// system) with the runtime's flight record, or how its answer disagreed
// with the reference model.
type outcome struct {
	ops   int64
	kind  opKind
	err   error
	dump  string
	wrong string
}

// client is one closed-loop caller: it sends its next request only after
// the previous one completed. A non-nil error is fatal to the run (the
// system could not be rebuilt after a failure).
type client interface {
	next() (outcome, error)
}

// block is what a set of clients did over one stretch of requests.
type block struct {
	ops      int64
	wall     time.Duration
	lat      []time.Duration
	readLat  []time.Duration
	writeLat []time.Duration
}

func (b *block) throughput() float64 { return float64(b.ops) / b.wall.Seconds() }

// drive runs every client concurrently until each has sent n requests.
// It records each request's latency and hands its outcome to the failure
// log; with sp set, each request is also a span under parent.
func drive(clients []client, n int, log *failureLog, sp *spans, parent int) (*block, error) {
	parts := make([]block, len(clients))
	errs := make([]error, len(clients))
	var wg sync.WaitGroup
	start := time.Now()
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c client) {
			defer wg.Done()
			p := &parts[i]
			for done := 0; done < n; done++ {
				id := sp.begin("request", parent, i)
				t0 := time.Now()
				o, err := c.next()
				t1 := time.Now()
				sp.end(id)
				log.record(o)
				if err != nil {
					errs[i] = err
					return
				}
				lat := t1.Sub(t0)
				p.lat = append(p.lat, lat)
				switch o.kind {
				case opRead:
					p.readLat = append(p.readLat, lat)
				case opWrite:
					p.writeLat = append(p.writeLat, lat)
				}
				p.ops += o.ops
			}
		}(i, c)
	}
	wg.Wait()
	b := &block{wall: time.Since(start)}
	for i := range parts {
		if errs[i] != nil {
			return nil, errs[i]
		}
		b.merge(&parts[i])
	}
	return b, nil
}

// merge folds o's requests into b; b's wall is left to the caller.
func (b *block) merge(o *block) {
	b.ops += o.ops
	b.lat = append(b.lat, o.lat...)
	b.readLat = append(b.readLat, o.readLat...)
	b.writeLat = append(b.writeLat, o.writeLat...)
}

// percentileUS is the nearest-rank q-quantile of lat, in microseconds (0
// for no samples).
func percentileUS(lat []time.Duration, q float64) float64 {
	if len(lat) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), lat...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(q*float64(len(s))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return float64(s[i]) / 1e3
}

// median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// failureLog counts every op a run attempted, failed and answered wrongly,
// with no hidden retries, and reports the first failure and the first
// wrong answer in full with the seed that reproduces them.
type failureLog struct {
	workload string
	seed     int64
	out      io.Writer

	attempted, failed, wrong atomic.Int64

	mu                    sync.Mutex
	failShown, wrongShown bool
}

// record accounts for one outcome.
func (l *failureLog) record(o outcome) {
	l.attempted.Add(o.ops)
	if o.err == nil && o.wrong == "" {
		return
	}
	// A request that both failed and disagreed (a divergence) counts once.
	l.failed.Add(max(o.ops, 1))
	l.mu.Lock()
	defer l.mu.Unlock()
	if o.wrong != "" {
		l.wrong.Add(max(o.ops, 1))
		if !l.wrongShown {
			l.wrongShown = true
			fmt.Fprintf(l.out, "e2e: %s: first wrong answer (seed %d): %s\n", l.workload, l.seed, o.wrong)
		}
		return
	}
	if !l.failShown {
		l.failShown = true
		fmt.Fprintf(l.out, "e2e: %s: first failure (reproduce with -workload %s -seed %d): %v\n",
			l.workload, l.workload, l.seed, o.err)
		if dump := strings.TrimSpace(o.dump); dump != "" {
			fmt.Fprintf(l.out, "flight record:\n%s\n", dump)
		}
	}
}

// memStats reads the Go runtime's allocation and GC counters.
func memStats() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

// spans records the benchmark's own spans — around each phase, Call and
// layer op of the per-layer run — in memory, for export as Chrome
// trace_event JSON. A nil *spans records nothing.
type spans struct {
	mu   sync.Mutex
	t0   time.Time
	list []span
}

type span struct {
	name          string
	parent, lane  int
	start, finish time.Duration
}

func newSpans() *spans { return &spans{t0: time.Now()} }

// begin opens a span caused by parent (0 = none) on lane (a client index)
// and returns its id.
func (s *spans) begin(name string, parent, lane int) int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.list = append(s.list, span{name: name, parent: parent, lane: lane, start: time.Since(s.t0)})
	return len(s.list)
}

// end closes span id.
func (s *spans) end(id int) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.list[id-1].finish = time.Since(s.t0)
	s.mu.Unlock()
}

// writeChrome exports the spans as Chrome trace_event JSON (complete
// events; args carry the span id and its cause).
func (s *spans) writeChrome(w io.Writer) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	s.mu.Lock()
	events := make([]event, len(s.list))
	for i, sp := range s.list {
		events[i] = event{
			Name: sp.name, Ph: "X", PID: 1, TID: sp.lane,
			TS:   float64(sp.start) / 1e3,
			Dur:  float64(sp.finish-sp.start) / 1e3,
			Args: map[string]int{"id": i + 1, "parent": sp.parent},
		}
	}
	s.mu.Unlock()
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ns"})
}
