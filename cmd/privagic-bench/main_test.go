package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"privagic/internal/bench"
)

// gatedReport is a canned report with fixed gates.
type gatedReport struct{ gates []bench.Gate }

func (r gatedReport) String() string      { return "canned report" }
func (r gatedReport) Gates() []bench.Gate { return r.gates }

// withExperiment swaps the experiment table for one canned entry.
func withExperiment(t *testing.T, gates ...bench.Gate) {
	t.Helper()
	saved := experiments
	experiments = []experiment{{"canned", func(options) (report, error) { return gatedReport{gates}, nil }}}
	t.Cleanup(func() { experiments = saved })
}

func TestFailingGateExitsOne(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		gate bench.Gate
		want int
	}{
		{"correctness pass", []string{"-quick"}, bench.Gate{Name: "c", Pass: true}, 0},
		{"correctness fail", []string{"-quick"}, bench.Gate{Name: "c"}, 1},
		{"timing fail at full", nil, bench.Gate{Name: "t", Timing: true}, 1},
		{"timing fail at quick", []string{"-quick"}, bench.Gate{Name: "t", Timing: true}, 0},
		{"correctness fail under -json", []string{"-json"}, bench.Gate{Name: "c"}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			withExperiment(t, bench.Gate{Name: "ok", Pass: true}, tc.gate)
			var out, errOut bytes.Buffer
			if rc := run(append(tc.args, "-exp", "canned"), &out, &errOut); rc != tc.want {
				t.Fatalf("exit code %d, want %d\nstdout:\n%s\nstderr:\n%s", rc, tc.want, &out, &errOut)
			}
		})
	}
}

func TestVerdictsPrinted(t *testing.T) {
	withExperiment(t, bench.Gate{Name: "c", Pass: true}, bench.Gate{Name: "t", Timing: true})
	var out bytes.Buffer
	run([]string{"-quick"}, &out, &out)
	for _, want := range []string{"gate c = 0 (bar ): PASS", "gate t = 0 (bar ): not evaluated"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, &out)
		}
	}
}

func TestJSONEnvelope(t *testing.T) {
	withExperiment(t, bench.Gate{Name: "c"})
	var out bytes.Buffer
	run([]string{"-json", "-quick"}, &out, &out)
	var env struct {
		Experiment, Config string
		NumCPU             int
		Gates              []struct{ Name, Verdict string }
	}
	if err := json.Unmarshal(out.Bytes(), &env); err != nil {
		t.Fatalf("%v\n%s", err, &out)
	}
	if env.Experiment != "canned" || env.Config != "quick" || env.NumCPU < 1 ||
		len(env.Gates) != 1 || env.Gates[0].Verdict != "FAIL" {
		t.Errorf("unexpected envelope %+v", env)
	}
}

func TestUnknownExperiment(t *testing.T) {
	var out bytes.Buffer
	if rc := run([]string{"-exp", "nonsense"}, &out, &out); rc != 2 {
		t.Errorf("exit code %d, want 2", rc)
	}
}
