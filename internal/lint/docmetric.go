package lint

// docmetric is the third analyzer: it proves OBSERVABILITY.md and the
// code agree on every metric and trace-event name. On the code side the
// metrics are the registration call sites (.Gauge/.Histogram/
// .RegisterSource with a literal name, parsed with go/ast, never
// executed) and the events are the obs kindNames literal; on the doc side
// both are the backticked first cell of each table row under the
// "## Metric catalogue" and "## Trace events" headings. A metric cannot
// be exported without a row, nor a row outlive its registration.
//
// Unlike colorcmp and rawsend, docmetric is a whole-repo check: state
// accumulates across files during Run's walk and the verdicts land in a
// finalize step that reads OBSERVABILITY.md.

import (
	"go/ast"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// docmetricState accumulates the code-side facts during the walk.
type docmetricState struct {
	kinds      map[string]token.Position // obs kindNames entries
	registered map[string]token.Position // literal names at Gauge/Histogram sites
	prefixes   map[string]token.Position // literal prefixes at RegisterSource sites
}

func newDocmetric() *docmetricState {
	return &docmetricState{
		kinds:      map[string]token.Position{},
		registered: map[string]token.Position{},
		prefixes:   map[string]token.Position{},
	}
}

// collect gathers one file's contribution.
func (s *docmetricState) collect(fset *token.FileSet, rel string, file *ast.File) {
	dir := filepath.ToSlash(filepath.Dir(rel))
	if strings.HasSuffix(dir, "internal/obs") {
		s.collectKinds(fset, file)
	}
	s.collectRegistrations(fset, file)
}

// collectKinds pulls the string values out of the kindNames literal.
func (s *docmetricState) collectKinds(fset *token.FileSet, file *ast.File) {
	for _, decl := range file.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.VAR {
			continue
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok || len(vs.Names) != 1 || len(vs.Values) != 1 || vs.Names[0].Name != "kindNames" {
				continue
			}
			lit, ok := vs.Values[0].(*ast.CompositeLit)
			if !ok {
				continue
			}
			for _, el := range lit.Elts {
				kv, ok := el.(*ast.KeyValueExpr)
				if !ok {
					continue
				}
				if name, ok := stringLit(kv.Value); ok && name != "" {
					s.kinds[name] = fset.Position(kv.Pos())
				}
			}
		}
	}
}

// collectRegistrations records every metric name and source prefix passed
// as a string literal to a registry method, anywhere in the repo.
func (s *docmetricState) collectRegistrations(fset *token.FileSet, file *ast.File) {
	ast.Inspect(file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		name, isLit := stringLit(call.Args[0])
		if !isLit {
			return true
		}
		switch sel.Sel.Name {
		case "Gauge", "Histogram":
			s.registered[name] = fset.Position(call.Args[0].Pos())
		case "RegisterSource":
			s.prefixes[name] = fset.Position(call.Args[0].Pos())
		}
		return true
	})
}

// finalize reads OBSERVABILITY.md at root and emits the verdicts. With no
// registration in the tree (a partial tree under test), the check is
// inert.
func (s *docmetricState) finalize(root string) []Issue {
	if len(s.registered) == 0 && len(s.prefixes) == 0 {
		return nil
	}
	docPath := filepath.Join(root, "OBSERVABILITY.md")
	data, err := os.ReadFile(docPath)
	if err != nil {
		return []Issue{{
			Pos:      token.Position{Filename: docPath},
			Analyzer: "docmetric",
			Msg:      "metrics are registered but OBSERVABILITY.md is missing; every exported metric must be documented",
		}}
	}
	docMetrics, docEvents := parseObservabilityDoc(string(data))
	docPos := func(line int) token.Position {
		return token.Position{Filename: "OBSERVABILITY.md", Line: line}
	}
	var issues []Issue
	add := func(pos token.Position, msg string) {
		issues = append(issues, Issue{Pos: pos, Analyzer: "docmetric", Msg: msg})
	}
	underPrefix := func(name string) bool {
		for prefix := range s.prefixes {
			if strings.HasPrefix(name, prefix+".") {
				return true
			}
		}
		return false
	}

	// A: every registration call site names a documented metric; every
	// source prefix covers at least one documented row.
	for _, name := range sortedKeys(s.registered) {
		if _, ok := docMetrics[name]; !ok {
			add(s.registered[name], "metric "+name+" is registered but has no row in OBSERVABILITY.md's metric catalogue")
		}
	}
	for _, prefix := range sortedKeys(s.prefixes) {
		covered := false
		for name := range docMetrics {
			if strings.HasPrefix(name, prefix+".") {
				covered = true
				break
			}
		}
		if !covered {
			add(s.prefixes[prefix], "source prefix "+prefix+" has no "+prefix+".* rows in OBSERVABILITY.md's metric catalogue")
		}
	}

	// B: every documented metric is actually exported — registered by
	// name or fed by a source prefix.
	for _, name := range sortedKeys(docMetrics) {
		if _, ok := s.registered[name]; !ok && !underPrefix(name) {
			add(docPos(docMetrics[name]), "metric "+name+" is documented but never registered (stale row, or a registration using a non-literal name)")
		}
	}

	// C: trace-event vocabulary <-> doc event table, both directions.
	for _, name := range sortedKeys(s.kinds) {
		if _, ok := docEvents[name]; !ok {
			add(s.kinds[name], "trace event "+name+" is in obs kindNames but has no row in OBSERVABILITY.md's trace-event table")
		}
	}
	for _, name := range sortedKeys(docEvents) {
		if _, ok := s.kinds[name]; !ok {
			add(docPos(docEvents[name]), "trace event "+name+" is documented but missing from obs kindNames")
		}
	}
	return issues
}

// parseObservabilityDoc extracts the backticked first table cell of each
// row under the metric-catalogue and trace-events headings, mapped to its
// 1-based line number.
func parseObservabilityDoc(doc string) (metrics, events map[string]int) {
	metrics = map[string]int{}
	events = map[string]int{}
	var current map[string]int
	for i, line := range strings.Split(doc, "\n") {
		trimmed := strings.TrimSpace(line)
		if strings.HasPrefix(trimmed, "#") {
			heading := strings.ToLower(strings.TrimLeft(trimmed, "# "))
			switch {
			case strings.HasPrefix(heading, "metric catalogue"):
				current = metrics
			case strings.HasPrefix(heading, "trace events"):
				current = events
			default:
				current = nil
			}
			continue
		}
		if current == nil || !strings.HasPrefix(trimmed, "|") {
			continue
		}
		cell := strings.TrimSpace(strings.SplitN(strings.TrimPrefix(trimmed, "|"), "|", 2)[0])
		if len(cell) < 3 || cell[0] != '`' || cell[len(cell)-1] != '`' {
			continue // header or separator row
		}
		current[cell[1:len(cell)-1]] = i + 1
	}
	return metrics, events
}

func stringLit(e ast.Expr) (string, bool) {
	bl, ok := e.(*ast.BasicLit)
	if !ok || bl.Kind != token.STRING {
		return "", false
	}
	s, err := strconv.Unquote(bl.Value)
	if err != nil {
		return "", false
	}
	return s, true
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
