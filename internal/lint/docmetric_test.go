package lint

import (
	"strings"
	"testing"
)

// obsFixture is a minimal internal/obs with a two-entry Catalog, one event
// kind, and registrations for one catalogued metric plus a source prefix.
const obsFixture = `package obs
type MetricDef struct {
	Name, Type, Unit, Subsystem, Help string
}
var Catalog = []MetricDef{
	{Name: "prt.aborts", Type: "gauge", Unit: "1", Subsystem: "prt", Help: "aborts"},
	{Name: "inject.dropped", Type: "counter", Unit: "1", Subsystem: "faults", Help: "drops"},
}
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
		"internal/obs/catalog.go": obsFixture,
		"internal/prt/obs.go":     regFixture,
		"OBSERVABILITY.md":        goodDoc,
	})
	if len(got) != 0 {
		t.Fatalf("agreeing tree flagged: %v", got)
	}
}

func TestDocmetricInertWithoutCatalog(t *testing.T) {
	// Trees with no obs.Catalog (like the other analyzers' fixtures) must
	// not demand an OBSERVABILITY.md.
	got := docmetricIssues(t, map[string]string{
		"internal/prt/obs.go": regFixture,
	})
	if len(got) != 0 {
		t.Fatalf("catalog-free tree flagged: %v", got)
	}
}

func TestDocmetricFindsEveryDrift(t *testing.T) {
	// Doc drops one metric row and the event row; code registers an
	// uncatalogued metric; catalogue gains a never-registered entry.
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
		"internal/obs/catalog.go": obsFixture,
		"internal/prt/obs.go":     badReg,
		"OBSERVABILITY.md":        staleDoc,
	})
	wantSubstrings := []string{
		"prt.ghost is documented but missing from obs.Catalog",
		"prt.undocumented is registered but missing from obs.Catalog",
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
		"internal/obs/catalog.go": obsFixture,
		"internal/prt/obs.go":     regFixture,
	})
	if len(got) != 1 || !strings.Contains(got[0], "OBSERVABILITY.md is missing") {
		t.Fatalf("issues = %v, want the missing-doc finding", got)
	}
}

func TestDocmetricUnregisteredCatalogEntry(t *testing.T) {
	// Drop the RegisterSource call: inject.dropped is catalogued and
	// documented but nothing exports it.
	got := docmetricIssues(t, map[string]string{
		"internal/obs/catalog.go": obsFixture,
		"internal/prt/obs.go": `package prt
func arm(reg *Registry) { reg.Gauge("prt.aborts", func() int64 { return 0 }) }
`,
		"OBSERVABILITY.md": goodDoc,
	})
	if len(got) != 1 || !strings.Contains(got[0], "inject.dropped is catalogued but never registered") {
		t.Fatalf("issues = %v, want the stale-catalogue finding", got)
	}
}
