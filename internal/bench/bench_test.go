package bench

import (
	"strings"
	"testing"
)

// Quick configurations keep the test suite fast; the cmd/privagic-bench
// tool runs the full-size sweeps.
func quickFig9() Fig9Config {
	cfg := DefaultFig9()
	cfg.Ops = 4000
	cfg.ListOps = 100
	return cfg
}

func inBand(t *testing.T, what string, lo, hi, wantLo, wantHi, slack float64) {
	t.Helper()
	if hi < wantLo*(1-slack) || lo > wantHi*(1+slack) {
		t.Errorf("%s = [%.2f, %.2f], paper band [%.1f, %.1f]", what, lo, hi, wantLo, wantHi)
	}
}

// TestFig9Bands checks the six throughput-ratio bands of Figure 9 (§9.3.2).
func TestFig9Bands(t *testing.T) {
	r := Fig9(quickFig9())
	t.Log("\n" + r.String())
	for _, c := range []struct {
		structure  string
		piLo, piHi float64 // privagic vs intel-sdk
		upLo, upHi float64 // unprotected vs privagic
	}{
		{"treemap", 2.2, 2.7, 19.5, 26.7},
		{"hashmap", 1.6, 2.7, 3.6, 6.1},
		{"list", 1.1, 1.2, 1.2, 1.7},
	} {
		ilo, ihi := r.Ratio(c.structure, IntelSDK1, Privagic1)
		// Ratio(a,b) = throughput(a)/throughput(b); the paper states
		// Privagic "multiplies the throughput" => privagic/intel.
		plo, phi := r.Ratio(c.structure, Privagic1, IntelSDK1)
		_ = ilo
		_ = ihi
		inBand(t, c.structure+" privagic/intel", plo, phi, c.piLo, c.piHi, 0.15)
		ulo, uhi := r.Ratio(c.structure, Unprotected, Privagic1)
		inBand(t, c.structure+" unprotected/privagic", ulo, uhi, c.upLo, c.upHi, 0.15)
	}
	// Ordering: treemap degrades most, list least (§9.3.2).
	tLo, _ := r.Ratio("treemap", Unprotected, Privagic1)
	hLo, _ := r.Ratio("hashmap", Unprotected, Privagic1)
	lLo, _ := r.Ratio("list", Unprotected, Privagic1)
	if !(tLo > hLo && hLo > lLo) {
		t.Errorf("degradation ordering violated: treemap %.1f, hashmap %.1f, list %.1f", tLo, hLo, lLo)
	}
}

// TestFig10Band checks the 6.4x–9.2x latency ratio of Figure 10.
func TestFig10Band(t *testing.T) {
	cfg := DefaultFig10()
	cfg.Ops = 4000
	r := Fig10(cfg)
	t.Log("\n" + r.String())
	ratio := r.LatencyRatio(IntelSDK2, Privagic2)
	if ratio < 6.4*0.85 || ratio > 9.2*1.15 {
		t.Errorf("intel-sdk-2/privagic-2 latency = %.1fx, paper band [6.4, 9.2]", ratio)
	}
	if deg := r.LatencyRatio(Privagic2, Unprotected); deg < 3 {
		t.Errorf("privagic-2 degradation vs unprotected = %.1fx; the paper reports a significant degradation", deg)
	}
}

// TestFig8Shape checks the Figure 8 claims: Privagic 8.5–10x over Scone on
// small datasets, at least ~2.3x at 32 GiB, and within 5–20%% of
// Unprotected on small datasets; the LLC miss ratio grows with the
// dataset (§9.2.3).
func TestFig8Shape(t *testing.T) {
	cfg := DefaultFig8()
	cfg.Ops = 8000
	r := Fig8(cfg)
	t.Log("\n" + r.String())
	small := cfg.Sizes[0]
	big := cfg.Sizes[len(cfg.Sizes)-1]

	ps := r.Ratio(small, PrivagicMemcached, Scone)
	if ps < 8.5*0.9 || ps > 10*1.15 {
		t.Errorf("privagic/scone at %s = %.1fx, paper band [8.5, 10]", humanBytes(small), ps)
	}
	pb := r.Ratio(big, PrivagicMemcached, Scone)
	if pb < 2.3*0.85 {
		t.Errorf("privagic/scone at 32GiB = %.1fx, paper says at least 2.3x", pb)
	}
	if ps <= pb {
		t.Errorf("the privagic advantage must shrink with the dataset (%.1fx -> %.1fx)", ps, pb)
	}
	up := r.Ratio(small, Unprotected, PrivagicMemcached)
	if up < 1.05 || up > 1.25 {
		t.Errorf("unprotected/privagic at small dataset = %.2fx, paper band [1.05, 1.20]", up)
	}
	// LLC misses grow with dataset size (6.5% -> 17.6% in §9.2.3 for
	// 236MiB -> 32GiB; our simulated cache is smaller, the shape counts).
	var missSmall, missBig float64
	for _, row := range r.Rows {
		if row.System == Unprotected && row.SizeBytes == 236<<20 {
			missSmall = row.LLCMissRatio
		}
		if row.System == Unprotected && row.SizeBytes == big {
			missBig = row.LLCMissRatio
		}
	}
	if missBig <= missSmall {
		t.Errorf("LLC miss ratio must grow with the dataset: %.1f%% -> %.1f%%", missSmall*100, missBig*100)
	}
}

// TestTable4 checks the TCB metrics: a small per-enclave footprint and a
// large reduction versus full embedding.
func TestTable4(t *testing.T) {
	rep, err := Table4()
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + rep.String())
	if rep.PrivagicModifiedLines == 0 || rep.PrivagicModifiedLines > 20 {
		t.Errorf("modified lines = %d, want a small nonzero count (paper: 9)", rep.PrivagicModifiedLines)
	}
	if rep.TCBReduction < 50 {
		t.Errorf("TCB reduction = %.0fx, paper reports ~200x", rep.TCBReduction)
	}
	if rep.PrivagicUserInstrs >= rep.TotalUserInstrs {
		t.Errorf("enclave user code (%d) not smaller than the application (%d)",
			rep.PrivagicUserInstrs, rep.TotalUserInstrs)
	}
}

// TestEffort checks the engineering-effort metric stays in the paper's
// order of magnitude: single digits per port.
func TestEffort(t *testing.T) {
	rep := Effort()
	t.Log("\n" + rep.String())
	for _, row := range rep.Rows {
		if row.ModifiedLines == 0 {
			t.Errorf("%s: no modified lines counted", row.Program)
		}
		// Single data structures stay single-digit like the paper; the
		// memcached core carries the classify/declassify scaffolding of
		// its protocol path too (the paper's port counted 9 lines on a
		// 24 841-line application; ours is ~150 lines, so the relative
		// effort is what must stay small).
		limit := 10
		if strings.Contains(row.Program, "memcached") {
			limit = 25
		}
		if row.ModifiedLines > limit {
			t.Errorf("%s: %d modified lines exceeds %d — not the paper's 'modest effort'",
				row.Program, row.ModifiedLines, limit)
		}
	}
}

// TestFig3 checks the motivation experiment end to end.
func TestFig3(t *testing.T) {
	rep, err := Fig3()
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + rep.String())
	if len(rep.DataflowProtected) != 1 || rep.DataflowProtected[0] != "a" {
		t.Errorf("dataflow protected %v, want exactly [a]", rep.DataflowProtected)
	}
	if len(rep.SequentialLeak) != 0 {
		t.Errorf("sequential run leaked: %v", rep.SequentialLeak)
	}
	if len(rep.LeakedInto) != 1 || rep.LeakedInto[0] != "b" {
		t.Errorf("racy run leaked into %v, want [b]", rep.LeakedInto)
	}
	if rep.PrivagicError == "" {
		t.Error("privagic did not reject the Figure 3.b program")
	}
	if !strings.Contains(rep.PrivagicError, "blue") {
		t.Errorf("privagic error does not mention the color: %s", rep.PrivagicError)
	}
}

// TestCrossOptGate runs the crossing-optimizer experiment at reduced
// scale: CrossOpt itself enforces the differential match, and its gate
// holds the measured reduction to >= 25%.
func TestCrossOptGate(t *testing.T) {
	rep, err := CrossOpt(CrossOptConfig{Iters: 100})
	if err != nil {
		t.Fatal(err)
	}
	requireGates(t, rep.Gates())
	if rep.Fused < 1 || rep.Coalesced < 1 || rep.Merged < 1 {
		t.Errorf("expected all three rewrites to fire, got fused=%d coalesced=%d merged=%d",
			rep.Fused, rep.Coalesced, rep.Merged)
	}
}
