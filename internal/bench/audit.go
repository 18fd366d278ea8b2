package bench

import (
	"fmt"
	"strings"

	"privagic"
	"privagic/internal/audit"
	"privagic/internal/sources"
)

// AuditConfig parameterizes the static-audit cost experiment.
type AuditConfig struct {
	// Reps is the repetition count of both timings (the fastest is kept).
	Reps int
}

// DefaultAudit returns the default repetition count.
func DefaultAudit() AuditConfig { return AuditConfig{Reps: 5} }

// AuditRow is one (program, mode) measurement: what the translation
// validator re-verified and what it cost relative to the compile itself.
type AuditRow struct {
	Program   string
	Mode      string
	Chunks    int
	Instrs    int
	Crossings int
	CompileUS float64 // full pipeline without the auditor, min of N, µs
	AuditUS   float64 // audit.Run over the partitioned output, min of N, µs
}

// AuditReport holds the whole experiment.
type AuditReport struct {
	Config AuditConfig
	Rows   []AuditRow
}

// Audit measures the static leak auditor on every evaluation program that
// partitions successfully: the wall-time of audit.Run (independent
// re-proof of the confidentiality/integrity/Iago rules over the
// partitioner's output plus the boundary report) against the wall-time of
// the compile it validates. Programs the secure type system rejects are
// skipped — there is no partition to validate.
func Audit(cfg AuditConfig) (*AuditReport, error) {
	if cfg.Reps < 1 {
		cfg.Reps = 1
	}
	rep := &AuditReport{Config: cfg}
	progs := []struct {
		name, src string
		entries   []string
	}{
		{"figure6", sources.Figure6, []string{"main"}},
		{"wallet", sources.Wallet, nil},
		{"hashmap-2c", sources.HashmapColored2, []string{"run_ycsb"}},
		{"memcached", sources.MemcachedCoreColored, []string{"run_ycsb"}},
	}
	for _, p := range progs {
		for _, mode := range []privagic.Mode{privagic.Hardened, privagic.Relaxed} {
			opts := privagic.Options{Mode: mode, Entries: p.entries}
			prog, err := privagic.Compile(p.name+".c", p.src, opts)
			if err != nil {
				continue // rejected by typing/partitioning: nothing to audit
			}
			row := AuditRow{Program: p.name, Mode: mode.String()}
			compile, err := measure(cfg.Reps, func(*span) error {
				_, err := privagic.Compile(p.name+".c", p.src, opts)
				return err
			})
			if err != nil {
				return nil, err
			}
			var res *audit.Result
			aud, _ := measure(cfg.Reps, func(*span) error {
				res = audit.Run(prog.Partitioned)
				return nil
			})
			row.CompileUS, row.AuditUS = compile.MinMicros(), aud.MinMicros()
			if err := res.Err(); err != nil {
				return nil, fmt.Errorf("audit violations in %s (%s): %w", p.name, mode, err)
			}
			row.Chunks = res.Stats.Chunks
			row.Instrs = res.Stats.Instrs
			row.Crossings = res.Stats.Crossings
			rep.Rows = append(rep.Rows, row)
		}
	}
	return rep, nil
}

// String renders the table.
func (r *AuditReport) String() string {
	var b strings.Builder
	b.WriteString("Static leak auditor — translation-validation cost (min of ")
	fmt.Fprintf(&b, "%d)\n", r.Config.Reps)
	fmt.Fprintf(&b, "%-12s %-9s %7s %7s %10s %12s %10s %9s\n",
		"program", "mode", "chunks", "instrs", "crossings", "compile(us)", "audit(us)", "overhead")
	for _, row := range r.Rows {
		over := "-"
		if row.CompileUS > 0 {
			over = fmt.Sprintf("%.1f%%", 100*row.AuditUS/row.CompileUS)
		}
		fmt.Fprintf(&b, "%-12s %-9s %7d %7d %10d %12.0f %10.0f %9s\n",
			row.Program, row.Mode, row.Chunks, row.Instrs, row.Crossings,
			row.CompileUS, row.AuditUS, over)
	}
	b.WriteString("every crossing above is re-proved legal; violations would fail the build under -audit=strict\n")
	return b.String()
}
