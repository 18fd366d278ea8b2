package bench

import (
	"testing"
	"time"
)

// requireGates fails t on every failing correctness gate. Timing gates
// are never asserted in a test: a loaded host can miss a wall-time bar
// without any defect in the code.
func requireGates(t *testing.T, gates []Gate) {
	t.Helper()
	for _, g := range gates {
		if !g.Timing && !g.Pass {
			t.Errorf("gate failed: %s", g)
		}
	}
}

// TestSupervisionAblation runs the three fault ablations — supervision,
// recovery and iago — shrunken to two schedules, and holds each to its
// correctness gates plus the supervision experiment's own invariants:
// zero silently wrong runs, a correct baseline, recovery under
// retransmission, and typed failures under crashes.
func TestSupervisionAblation(t *testing.T) {
	const schedules = 2
	window := 15 * time.Millisecond
	for _, tc := range []struct {
		name string
		run  func(t *testing.T) []Gate
	}{
		{"supervision", func(t *testing.T) []Gate {
			rep, err := Supervision(SupervisionConfig{Schedules: schedules, WaitTimeout: window})
			if err != nil {
				t.Fatal(err)
			}
			t.Log("\n" + rep.String())
			for _, row := range rep.Rows {
				logStall(t, row.Scenario, row.Tally)
			}
			checkSupervision(t, rep)
			return rep.Gates()
		}},
		{"recovery", func(t *testing.T) []Gate {
			rep, err := Recovery(RecoveryConfig{Schedules: schedules, Budget: 3, WaitTimeout: window})
			if err != nil {
				t.Fatal(err)
			}
			t.Log("\n" + rep.String())
			for _, row := range rep.Rows {
				logStall(t, row.Scenario, row.Tally)
			}
			return rep.Gates()
		}},
		{"iago", func(t *testing.T) []Gate {
			rep, err := Iago(IagoConfig{Schedules: schedules, WaitTimeout: window})
			if err != nil {
				t.Fatal(err)
			}
			t.Log("\n" + rep.String())
			return rep.Gates()
		}},
	} {
		t.Run(tc.name, func(t *testing.T) { requireGates(t, tc.run(t)) })
	}
}

// logStall logs a fault-free row's dump at its first wait timeout.
func logStall(t *testing.T, scenario string, tally Tally) {
	t.Helper()
	if tally.Stall != "" {
		t.Logf("%s: first wait timeout:\n%s", scenario, tally.Stall)
	}
}

func checkSupervision(t *testing.T, rep *SupervisionReport) {
	t.Helper()
	if rep.Want <= 0 {
		t.Fatalf("degenerate fault-free answer %d", rep.Want)
	}
	for _, row := range rep.Rows {
		if row.Wrong != 0 {
			t.Errorf("%s: %d silently wrong runs", row.Scenario, row.Wrong)
		}
		if row.Correct+row.Timeouts+row.Aborts != row.Runs {
			t.Errorf("%s: outcomes do not account for all %d runs", row.Scenario, row.Runs)
		}
	}
	if rep.Rows[0].Correct != 1 {
		t.Error("unsupervised baseline did not complete correctly")
	}
	if rep.Rows[1].Correct != 1 {
		t.Error("supervised fault-free run did not complete correctly")
	}
	if drop := rep.Rows[2]; drop.Correct != drop.Runs || drop.Retransmits == 0 {
		t.Errorf("drop+retransmit: %d/%d correct with %d retransmits; retransmission should recover every run",
			drop.Correct, drop.Runs, drop.Retransmits)
	}
	if crash := rep.Rows[3]; crash.Aborts+crash.Timeouts+crash.Correct != crash.Runs {
		t.Errorf("crash scenario: unexpected outcome mix %+v", crash)
	}
}
