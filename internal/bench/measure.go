package bench

import (
	"sort"
	"time"
)

// measure.go is the only timing code of the evaluation: every wall-time
// figure an experiment reports is a Timing produced by measure or paired.
// Absolute figures use a series' minimum — preemption and GC pauses only
// ever add time, so the fastest rep is the closest observable to the true
// cost. Comparisons of two configurations use paired, which interleaves
// the two sides and takes the median of the per-rep ratios: within one
// rep the host state is as equal as it gets, so the ratio cancels drift,
// and the median rejects the rep where the scheduler starved one side.

// now is the harness clock (swapped for a scripted one in tests).
var now = time.Now

// A span fences the timed part of one rep. The harness starts it before
// calling the run and stops it after; a run may restart it once its setup
// is done and stop it before teardown, so only the operation under test
// is timed.
type span struct {
	t0      time.Time
	d       time.Duration
	stopped bool
}

func (s *span) start() { s.t0, s.stopped = now(), false }

func (s *span) stop() {
	if !s.stopped {
		s.d, s.stopped = now().Sub(s.t0), true
	}
}

// timeRep runs one rep under a fresh span and returns its timed window.
func timeRep(run func(*span) error) (time.Duration, error) {
	var s span
	s.start()
	err := run(&s)
	s.stop()
	return s.d, err
}

// Timing summarizes one series of timed reps.
type Timing struct {
	Samples []time.Duration `json:"-"`
	Min     time.Duration
	Median  time.Duration
	// Spread is the interquartile range over the median: how far apart
	// the middle half of the reps landed, relative to their centre.
	Spread float64
	// Best is the index of the fastest rep in Samples.
	Best int `json:"-"`
}

// newTiming computes the order statistics of samples.
func newTiming(samples []time.Duration) Timing {
	t := Timing{Samples: samples}
	if len(samples) == 0 {
		return t
	}
	sorted := append([]time.Duration(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	t.Min, t.Median = sorted[0], sorted[len(sorted)/2]
	if t.Median > 0 {
		t.Spread = float64(sorted[len(sorted)*3/4]-sorted[len(sorted)/4]) / float64(t.Median)
	}
	for i, d := range samples {
		if d == t.Min {
			t.Best = i
			break
		}
	}
	return t
}

// MinMicros is the fastest rep in microseconds.
func (t Timing) MinMicros() float64 { return float64(t.Min.Nanoseconds()) / 1e3 }

// measure times reps runs of run. A run error aborts the series. There
// are no warm-up reps: the minimum ignores a cold first rep.
func measure(reps int, run func(*span) error) (Timing, error) {
	samples := make([]time.Duration, 0, reps)
	for i := 0; i < reps; i++ {
		d, err := timeRep(run)
		if err != nil {
			return Timing{}, err
		}
		samples = append(samples, d)
	}
	return newTiming(samples), nil
}

// Pair is the result of a paired comparison.
type Pair struct {
	// Ratio is the median over reps of b's time divided by a's time in
	// the same rep: above 1 means b is slower.
	Ratio float64
	A, B  Timing
}

// paired times a and b alternately — a, b, a, b, ... — for reps rounds,
// so host drift lands on both sides instead of flattering whichever ran
// during the quiet stretch. Like measure it has no warm-up reps: the
// median ratio rejects a cold first round.
func paired(reps int, a, b func(*span) error) (Pair, error) {
	as := make([]time.Duration, 0, reps)
	bs := make([]time.Duration, 0, reps)
	ratios := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		da, err := timeRep(a)
		if err != nil {
			return Pair{}, err
		}
		db, err := timeRep(b)
		if err != nil {
			return Pair{}, err
		}
		as, bs = append(as, da), append(bs, db)
		if da > 0 {
			ratios = append(ratios, float64(db)/float64(da))
		}
	}
	p := Pair{A: newTiming(as), B: newTiming(bs)}
	if len(ratios) > 0 {
		sort.Float64s(ratios)
		p.Ratio = ratios[len(ratios)/2]
	}
	return p, nil
}
