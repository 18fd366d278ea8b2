package bench

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"privagic"
)

// A Gate is one acceptance bar of an experiment and whether the measured
// value clears it. Correctness gates are always evaluated; timing gates
// (wall-time bars) are evaluated only at full config, since a quick run's
// short sweeps cannot resolve them.
type Gate struct {
	Name   string
	Value  float64
	Unit   string
	Bar    string // e.g. "<= 3%"
	Timing bool
	Pass   bool
}

func atMost(name string, v, bar float64, unit string) Gate {
	return Gate{Name: name, Value: v, Unit: unit, Bar: fmt.Sprintf("<= %g%s", bar, unit), Pass: v <= bar}
}

func atLeast(name string, v, bar float64, unit string) Gate {
	return Gate{Name: name, Value: v, Unit: unit, Bar: fmt.Sprintf(">= %g%s", bar, unit), Pass: v >= bar}
}

// timing marks g as a wall-time bar.
func timing(g Gate) Gate {
	g.Timing = true
	return g
}

// Verdict is "PASS", "FAIL", or "not evaluated" for a timing gate when
// full is false.
func (g Gate) Verdict(full bool) string {
	switch {
	case g.Timing && !full:
		return "not evaluated"
	case g.Pass:
		return "PASS"
	}
	return "FAIL"
}

// String renders the gate's measurement against its bar.
func (g Gate) String() string {
	return fmt.Sprintf("%s = %.4g%s (bar %s)", g.Name, g.Value, g.Unit, g.Bar)
}

// outcome classifies one entry call.
type outcome int

const (
	correct outcome = iota
	wrongAnswer
	iagoViolation
	waitTimeout
	enclaveAbort
	stopped
	untyped
)

// classify sorts one call's result: the expected answer, a wrong answer
// returned without error, one of the runtime's typed errors, or an error
// the runtime did not type.
func classify(ret, want int64, err error) outcome {
	switch {
	case err == nil && ret == want:
		return correct
	case err == nil:
		return wrongAnswer
	case errors.Is(err, privagic.ErrIagoViolation):
		return iagoViolation
	case errors.Is(err, privagic.ErrWaitTimeout):
		return waitTimeout
	case errors.Is(err, privagic.ErrEnclaveAbort):
		return enclaveAbort
	case errors.Is(err, privagic.ErrStopped):
		return stopped
	}
	return untyped
}

// Tally counts outcomes, one column per typed error, so each experiment
// decides for itself which columns are failures.
type Tally struct {
	Runs     int
	Correct  int
	Wrong    int // returned a wrong answer without error
	Iago     int // ErrIagoViolation
	Timeouts int // ErrWaitTimeout
	Aborts   int // ErrEnclaveAbort
	Stopped  int // ErrStopped
	Untyped  int // any other error

	// Stall is stallDump's record of the first wait timeout in a
	// fault-free row, where no injected fault explains one. A clean run
	// leaves it out of the JSON report.
	Stall string `json:",omitempty"`
}

func (t *Tally) add(o outcome) {
	t.Runs++
	switch o {
	case correct:
		t.Correct++
	case wrongAnswer:
		t.Wrong++
	case iagoViolation:
		t.Iago++
	case waitTimeout:
		t.Timeouts++
	case enclaveAbort:
		t.Aborts++
	case stopped:
		t.Stopped++
	default:
		t.Untyped++
	}
}

// Errors counts every run that failed with an error, typed or not.
func (t Tally) Errors() int { return t.Iago + t.Timeouts + t.Aborts + t.Stopped + t.Untyped }

const tallyHeader = "   runs correct  wrong   iago timeout  abort stopped untyped"

func (t Tally) String() string {
	return fmt.Sprintf("%7d %7d %6d %6d %7d %6d %7d %7d",
		t.Runs, t.Correct, t.Wrong, t.Iago, t.Timeouts, t.Aborts, t.Stopped, t.Untyped)
}

// instRun is one rep of an instance experiment: a fresh instance of prog
// configured by arm, one timed call of entry tallied into t against want,
// and collect reading the instance's counters before it closes. The heap
// is collected before the timed call so one rep's garbage is never
// another rep's GC pause.
func instRun(s *span, prog *privagic.Program, entry string, want int64, t *Tally,
	arm, collect func(*privagic.Instance)) {
	inst := prog.Instantiate(nil)
	defer inst.Close()
	if arm != nil {
		arm(inst)
	}
	runtime.GC()
	s.start()
	ret, err := inst.Call(entry)
	s.stop()
	t.add(classify(ret, want, err))
	if collect != nil {
		collect(inst)
	}
}

// faultFreeWindow is the supervision window of the fault-free rows. With
// no fault injected every wait ends on a message, so the window is there
// only to turn a wedge into an error; a host too loaded to run a chunk
// within the faulted rows' 15 ms window must not trip it.
const faultFreeWindow = 10 * time.Second

// stallDump renders every goroutine's stack, taken before the instance
// closes, and the instance's last trace events (empty when tracing is
// off): the stacks tell a wedge from a stalled host.
func stallDump(inst *privagic.Instance) string {
	stacks := make([]byte, 4<<20)
	stacks = stacks[:runtime.Stack(stacks, true)]
	return fmt.Sprintf("goroutines:\n%s\ntrace:\n%s", stacks, inst.TraceDump(256))
}

// groundTruth compiles src in relaxed mode and returns the program with
// the answer of one clean, unarmed call of entry.
func groundTruth(file, src, entry string) (*privagic.Program, int64, error) {
	prog, err := privagic.Compile(file, src, privagic.Options{
		Mode: privagic.Relaxed, Entries: []string{entry},
	})
	if err != nil {
		return nil, 0, fmt.Errorf("bench: compile %s: %w", file, err)
	}
	inst := prog.Instantiate(nil)
	defer inst.Close()
	want, err := inst.Call(entry)
	if err != nil {
		return nil, 0, fmt.Errorf("bench: clean %s baseline failed: %w", file, err)
	}
	return prog, want, nil
}
