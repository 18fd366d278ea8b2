package lint

import (
	"strings"
	"testing"
)

// obsFixture is a minimal internal/obs with one event kind; regFixture
// registers one metric by name and one source prefix.
const obsFixture = `package obs
var kindNames = [1]string{0: "spawn"}
`

const regFixture = `package prt
func arm(reg *Registry) {
	reg.Gauge("prt.aborts", func() int64 { return 0 })
	reg.RegisterSource("inject", nil)
}
`

const goodDoc = `# Observability

## Metric catalogue

| Name | Type |
| --- | --- |
| ` + "`prt.aborts`" + ` | gauge |
| ` + "`inject.dropped`" + ` | counter |

## Trace events

| Event | Meaning |
| --- | --- |
| ` + "`spawn`" + ` | chunk admitted |
`

func docmetricIssues(t *testing.T, files map[string]string) []string {
	t.Helper()
	issues, err := Run(writeTree(t, files))
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, i := range issues {
		if i.Analyzer != "docmetric" {
			t.Errorf("unexpected analyzer: %v", i)
		}
		got = append(got, i.Msg)
	}
	return got
}

func TestDocmetricAgreementPasses(t *testing.T) {
	got := docmetricIssues(t, map[string]string{
		"internal/obs/trace.go": obsFixture,
		"internal/prt/obs.go":   regFixture,
		"OBSERVABILITY.md":      goodDoc,
	})
	if len(got) != 0 {
		t.Fatalf("agreeing tree flagged: %v", got)
	}
}

func TestDocmetricInertWithoutRegistrations(t *testing.T) {
	// Trees that register no metric (like the other analyzers' fixtures)
	// must not demand an OBSERVABILITY.md.
	got := docmetricIssues(t, map[string]string{
		"internal/obs/trace.go": obsFixture,
	})
	if len(got) != 0 {
		t.Fatalf("registration-free tree flagged: %v", got)
	}
}

func TestDocmetricFindsEveryDrift(t *testing.T) {
	// Doc drops the event row and gains a never-registered metric row;
	// code registers an undocumented metric.
	staleDoc := `# Observability

## Metric catalogue

| Name | Type |
| --- | --- |
| ` + "`prt.aborts`" + ` | gauge |
| ` + "`inject.dropped`" + ` | counter |
| ` + "`prt.ghost`" + ` | gauge |

## Trace events

| Event | Meaning |
| --- | --- |
`
	badReg := regFixture + `
func armMore(reg *Registry) {
	reg.Gauge("prt.undocumented", func() int64 { return 0 })
}
`
	got := docmetricIssues(t, map[string]string{
		"internal/obs/trace.go": obsFixture,
		"internal/prt/obs.go":   badReg,
		"OBSERVABILITY.md":      staleDoc,
	})
	wantSubstrings := []string{
		"prt.ghost is documented but never registered",
		"prt.undocumented is registered but has no row",
		"spawn is in obs kindNames but has no row",
	}
	for _, want := range wantSubstrings {
		found := false
		for _, msg := range got {
			if strings.Contains(msg, want) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no issue containing %q in %v", want, got)
		}
	}
}

func TestDocmetricMissingDocFile(t *testing.T) {
	got := docmetricIssues(t, map[string]string{
		"internal/obs/trace.go": obsFixture,
		"internal/prt/obs.go":   regFixture,
	})
	if len(got) != 1 || !strings.Contains(got[0], "OBSERVABILITY.md is missing") {
		t.Fatalf("issues = %v, want the missing-doc finding", got)
	}
}

func TestDocmetricUnregisteredCatalogEntry(t *testing.T) {
	// Drop the RegisterSource call: inject.dropped has a row in the
	// doc's metric catalogue but nothing exports it.
	got := docmetricIssues(t, map[string]string{
		"internal/obs/trace.go": obsFixture,
		"internal/prt/obs.go": `package prt
func arm(reg *Registry) { reg.Gauge("prt.aborts", func() int64 { return 0 }) }
`,
		"OBSERVABILITY.md": goodDoc,
	})
	if len(got) != 1 || !strings.Contains(got[0], "inject.dropped is documented but never registered") {
		t.Fatalf("issues = %v, want the stale-row finding", got)
	}
}
