package lint

import (
	"os"
	"path/filepath"
	"testing"
)

func writeTree(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for rel, src := range files {
		path := filepath.Join(root, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

func TestColorcmp(t *testing.T) {
	root := writeTree(t, map[string]string{
		// Outside the exempt packages: every comparison flavor flagged.
		"internal/partition/x.go": `package partition
import "privagic/internal/ir"
func bad(c ir.Color) bool {
	if c == ir.U { return true }
	if c != ir.S { return true }
	return c.Kind == ir.KindUntrusted || ir.KindShared == c.Kind
}
func good(c ir.Color) bool { return c.IsUntrusted() || c.IsShared() }
`,
		// Aliased import resolved.
		"internal/interp/y.go": `package interp
import pir "privagic/internal/ir"
func bad(c pir.Color) bool { return c == pir.U }
`,
		// The type-system core is exempt: it defines the semantics.
		"internal/typing/z.go": `package typing
import "privagic/internal/ir"
func ok(c ir.Color) bool { return c == ir.U }
`,
		"internal/ir/w.go": `package ir
func ok(c Color) bool { return c == U }
`,
		// Test files are not linted.
		"internal/partition/x_test.go": `package partition
import "privagic/internal/ir"
func tbad(c ir.Color) bool { return c == ir.U }
`,
	})
	issues, err := Run(root)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, i := range issues {
		if i.Analyzer != "colorcmp" {
			t.Errorf("unexpected analyzer: %v", i)
		}
		got = append(got, filepath.ToSlash(i.Pos.Filename))
	}
	want := []string{
		"internal/interp/y.go",
		"internal/partition/x.go",
		"internal/partition/x.go",
		"internal/partition/x.go",
		"internal/partition/x.go",
	}
	if len(got) != len(want) {
		t.Fatalf("issues = %v, want files %v", issues, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("issue %d in %s, want %s", i, got[i], want[i])
		}
	}
}

func TestRawsend(t *testing.T) {
	root := writeTree(t, map[string]string{
		"internal/prt/q.go": `package prt
func f(q *queue) {
	q.Enqueue(Message{Kind: 1})                  // flagged: no stamp
	q.Enqueue(Message{Kind: 1, auth: authStamp}) // ok
	q.Enqueue(&Message{Kind: 2})                 // flagged: no stamp
	w.EnqueueRaw(Message{Kind: 3})               // exempt injection seam
	var m Message
	q.Enqueue(m) // non-literal: the send path stamps it
}
`, // Outside internal/prt the Message type is someone else's.
		"internal/other/q.go": `package other
func f(q *queue) { q.Enqueue(Message{Kind: 1}) }
`,
	})
	issues, err := Run(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(issues) != 2 {
		t.Fatalf("issues = %v, want 2 rawsend findings", issues)
	}
	for _, i := range issues {
		if i.Analyzer != "rawsend" || filepath.ToSlash(i.Pos.Filename) != "internal/prt/q.go" {
			t.Errorf("unexpected issue: %v", i)
		}
	}
}

func TestRawsleep(t *testing.T) {
	root := writeTree(t, map[string]string{
		// Flagged: bare sleeps in each guarded package, aliased import too.
		"internal/cluster/c.go": `package cluster
import "time"
func probe() { time.Sleep(time.Second) }
`,
		"internal/prt/w.go": `package prt
import t "time"
func spin() { t.Sleep(t.Millisecond) }
`,
		// Exempt: the context-aware wrapper's own fallback lives in a
		// function named Sleep.
		"internal/retry/r.go": `package retry
import "time"
func (p Policy) Sleep(d int) { time.Sleep(time.Duration(d)) }
`,
		// Test files and packages outside the guarded set are not linted.
		"internal/cluster/c_test.go": `package cluster
import "time"
func wait() { time.Sleep(time.Second) }
`,
		"internal/bench/b.go": `package bench
import "time"
func pause() { time.Sleep(time.Second) }
`,
	})
	issues, err := Run(root)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, i := range issues {
		if i.Analyzer != "rawsleep" {
			t.Errorf("unexpected analyzer: %v", i)
			continue
		}
		got = append(got, filepath.ToSlash(i.Pos.Filename))
	}
	want := []string{"internal/cluster/c.go", "internal/prt/w.go"}
	if len(got) != len(want) {
		t.Fatalf("rawsleep issues in %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("issue %d in %s, want %s", i, got[i], want[i])
		}
	}
}
