package bench

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"privagic"
)

// fakeClock swaps the harness clock for one that only moves when a run
// advances it, so every timing below is exact.
func fakeClock(t *testing.T) func(time.Duration) {
	t.Helper()
	var at time.Time
	saved := now
	now = func() time.Time { return at }
	t.Cleanup(func() { now = saved })
	return func(d time.Duration) { at = at.Add(d) }
}

func TestMeasureSyntheticDurations(t *testing.T) {
	advance := fakeClock(t)
	durs := []time.Duration{50, 10, 30, 20, 60, 70, 80}
	calls := 0
	tm, err := measure(7, func(*span) error {
		advance(durs[calls])
		calls++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tm.Samples, durs) {
		t.Errorf("samples %v, want %v", tm.Samples, durs)
	}
	// Sorted reps: 10 20 30 50 60 70 80.
	if tm.Min != 10 || tm.Median != 50 || tm.Best != 1 {
		t.Errorf("min %v median %v best %d, want 10 50 1", tm.Min, tm.Median, tm.Best)
	}
	if want := float64(70-20) / 50; tm.Spread != want {
		t.Errorf("spread %v, want %v", tm.Spread, want)
	}
}

// TestMeasureSpanFencesSetup checks that a run can exclude its setup and
// teardown from the timed window.
func TestMeasureSpanFencesSetup(t *testing.T) {
	advance := fakeClock(t)
	tm, err := measure(1, func(s *span) error {
		advance(1000) // setup
		s.start()
		advance(7)
		s.stop()
		advance(1000) // teardown
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if tm.Min != 7 {
		t.Errorf("timed %v, want 7", tm.Min)
	}
}

func TestPairedInterleavesAndTakesMedianRatio(t *testing.T) {
	advance := fakeClock(t)
	as := []time.Duration{100, 100, 200, 100, 50}
	bs := []time.Duration{110, 300, 220, 105, 100} // ratios 1.1 3 1.1 1.05 2
	var order []string
	ia, ib := 0, 0
	p, err := paired(5, func(*span) error {
		order = append(order, "a")
		advance(as[ia])
		ia++
		return nil
	}, func(*span) error {
		order = append(order, "b")
		advance(bs[ib])
		ib++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"a", "b", "a", "b", "a", "b", "a", "b", "a", "b"}; !reflect.DeepEqual(order, want) {
		t.Errorf("order %v, want %v", order, want)
	}
	if p.Ratio != 1.1 {
		t.Errorf("median ratio %v, want 1.1", p.Ratio)
	}
	if p.A.Min != 50 || p.A.Best != 4 || p.B.Min != 100 || p.B.Best != 4 {
		t.Errorf("best runs a=%v@%d b=%v@%d, want 50@4 100@4", p.A.Min, p.A.Best, p.B.Min, p.B.Best)
	}
}

func TestClassifyTally(t *testing.T) {
	var tl Tally
	for _, c := range []struct {
		ret int64
		err error
	}{
		{7, nil}, {7, nil}, {8, nil},
		{0, fmt.Errorf("run: %w", privagic.ErrIagoViolation)},
		{0, fmt.Errorf("run: %w", privagic.ErrWaitTimeout)},
		{0, fmt.Errorf("run: %w", privagic.ErrEnclaveAbort)},
		{0, fmt.Errorf("run: %w", privagic.ErrStopped)},
		{0, errors.New("untyped")},
	} {
		tl.add(classify(c.ret, 7, c.err))
	}
	want := Tally{Runs: 8, Correct: 2, Wrong: 1, Iago: 1, Timeouts: 1, Aborts: 1, Stopped: 1, Untyped: 1}
	if tl != want {
		t.Errorf("tally %+v, want %+v", tl, want)
	}
	if tl.Errors() != 5 {
		t.Errorf("errors %d, want 5", tl.Errors())
	}
}
