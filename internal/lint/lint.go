// Package lint implements the project's vet-style static checks with the
// standard library's go/ast only (the container has no x/tools). Two
// analyzers guard the invariants the type system and the runtime depend
// on but the Go compiler cannot see:
//
//   - colorcmp: code outside internal/ir and internal/typing must not
//     compare ir.Color values against ir.U / ir.S (or their Kind against
//     ir.KindUntrusted / ir.KindShared) directly. Those comparisons
//     bypass the typing helpers (IsUntrusted, IsShared) that centralize
//     the unsafe-location semantics of Table 2/3; a direct comparison
//     silently misclassifies a soft-U or None color and has caused real
//     partitioner bugs.
//
//   - rawsend: inside internal/prt, every queue Enqueue of a Message
//     literal must carry the auth: payload-integrity stamp — an
//     unstamped message is indistinguishable from attacker injection and
//     is dropped by the supervised receive path. EnqueueRaw is the
//     deliberate injection seam for the fault harness and is exempt.
//
//   - rawsleep: inside internal/cluster, internal/prt and
//     internal/retry, non-test code must not call bare time.Sleep; a
//     raw sleep serves out its full duration during shutdown and stalls
//     Close. The context-aware retry.Policy.Sleep is the sanctioned
//     primitive (its own nil-ctx fallback is the one exempt site).
//
//   - docmetric: the registration call sites and the obs kindNames
//     literal must agree with the tables in OBSERVABILITY.md on every
//     metric and trace-event name, in both directions (see docmetric.go).
package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Issue is one finding.
type Issue struct {
	Pos      token.Position
	Analyzer string
	Msg      string
}

func (i Issue) String() string {
	return fmt.Sprintf("%s: [%s] %s", i.Pos, i.Analyzer, i.Msg)
}

// Run lints every non-test Go file under root and returns the findings,
// sorted by position.
func Run(root string) ([]Issue, error) {
	var issues []Issue
	fset := token.NewFileSet()
	dm := newDocmetric()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if name == "testdata" || name == ".git" || strings.HasPrefix(name, "tmp_") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		rel, rerr := filepath.Rel(root, path)
		if rerr != nil {
			rel = path
		}
		src, rerr := os.ReadFile(path)
		if rerr != nil {
			return rerr
		}
		file, perr := parser.ParseFile(fset, rel, src, parser.SkipObjectResolution)
		if perr != nil {
			return perr
		}
		issues = append(issues, lintFile(fset, rel, file)...)
		dm.collect(fset, rel, file)
		return nil
	})
	if err != nil {
		return nil, err
	}
	issues = append(issues, dm.finalize(root)...)
	sort.Slice(issues, func(i, j int) bool {
		if issues[i].Pos.Filename != issues[j].Pos.Filename {
			return issues[i].Pos.Filename < issues[j].Pos.Filename
		}
		return issues[i].Pos.Offset < issues[j].Pos.Offset
	})
	return issues, nil
}

func lintFile(fset *token.FileSet, rel string, file *ast.File) []Issue {
	var issues []Issue
	dir := filepath.ToSlash(filepath.Dir(rel))
	if !strings.HasSuffix(dir, "internal/ir") && !strings.HasSuffix(dir, "internal/typing") {
		issues = append(issues, colorcmp(fset, file)...)
	}
	if strings.HasSuffix(dir, "internal/prt") {
		issues = append(issues, rawsend(fset, file)...)
	}
	for _, d := range []string{"internal/cluster", "internal/prt", "internal/retry"} {
		if strings.HasSuffix(dir, d) {
			issues = append(issues, rawsleep(fset, file)...)
			break
		}
	}
	return issues
}

// rawsleep flags bare time.Sleep calls in the runtime packages whose
// goroutines must stay cancelable: a raw sleep serves out its full
// duration even when the owner is shutting down, stalling Close. The
// context-aware retry.Policy.Sleep is the sanctioned primitive; its own
// nil-context fallback (the method named Sleep) is the one exempt site,
// mirroring rawsend's EnqueueRaw seam.
func rawsleep(fset *token.FileSet, file *ast.File) []Issue {
	timePkg := ""
	for _, imp := range file.Imports {
		p, err := strconv.Unquote(imp.Path.Value)
		if err != nil || p != "time" {
			continue
		}
		timePkg = "time"
		if imp.Name != nil {
			timePkg = imp.Name.Name
		}
	}
	if timePkg == "" || timePkg == "_" {
		return nil
	}
	var issues []Issue
	for _, decl := range file.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		if fd.Name.Name == "Sleep" {
			// The context-aware wrapper itself: its nil-ctx branch is
			// the one place a bare sleep is the documented semantics.
			continue
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "Sleep" {
				return true
			}
			if id, ok := sel.X.(*ast.Ident); ok && id.Name == timePkg {
				issues = append(issues, Issue{
					Pos:      fset.Position(call.Pos()),
					Analyzer: "rawsleep",
					Msg:      "bare time.Sleep in a cancelable runtime package; use retry.Policy.Sleep(ctx, n) so shutdown never stalls on a sleeping goroutine",
				})
			}
			return true
		})
	}
	return issues
}

// irImportName returns the local name the file uses for the ir package,
// or "" when the file does not import it.
func irImportName(file *ast.File) string {
	for _, imp := range file.Imports {
		p, err := strconv.Unquote(imp.Path.Value)
		if err != nil || p != "privagic/internal/ir" {
			continue
		}
		if imp.Name != nil {
			return imp.Name.Name
		}
		return "ir"
	}
	return ""
}

// colorcmp flags == / != comparisons against ir.U, ir.S, ir.KindUntrusted
// and ir.KindShared.
func colorcmp(fset *token.FileSet, file *ast.File) []Issue {
	pkg := irImportName(file)
	if pkg == "" {
		return nil
	}
	bad := map[string]string{
		"U":             "use Color.IsUntrusted() instead of comparing against ir.U",
		"S":             "use Color.IsShared() instead of comparing against ir.S",
		"KindUntrusted": "use Color.IsUntrusted() instead of comparing Kind against ir.KindUntrusted",
		"KindShared":    "use Color.IsShared() instead of comparing Kind against ir.KindShared",
	}
	var issues []Issue
	ast.Inspect(file, func(n ast.Node) bool {
		be, ok := n.(*ast.BinaryExpr)
		if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
			return true
		}
		for _, side := range []ast.Expr{be.X, be.Y} {
			sel, ok := side.(*ast.SelectorExpr)
			if !ok {
				continue
			}
			id, ok := sel.X.(*ast.Ident)
			if !ok || id.Name != pkg {
				continue
			}
			if msg, hit := bad[sel.Sel.Name]; hit {
				issues = append(issues, Issue{
					Pos:      fset.Position(be.Pos()),
					Analyzer: "colorcmp",
					Msg:      msg,
				})
			}
		}
		return true
	})
	return issues
}

// rawsend flags Enqueue calls whose Message literal lacks the auth:
// payload-integrity stamp.
func rawsend(fset *token.FileSet, file *ast.File) []Issue {
	var issues []Issue
	ast.Inspect(file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Enqueue" {
			// EnqueueRaw is the fault-injection seam: exempt by name.
			return true
		}
		for _, arg := range call.Args {
			lit := messageLit(arg)
			if lit == nil {
				continue
			}
			if !hasField(lit, "auth") {
				issues = append(issues, Issue{
					Pos:      fset.Position(arg.Pos()),
					Analyzer: "rawsend",
					Msg:      "Message enqueued without the auth: payload-integrity stamp; the supervised receive path will drop it (use authStamp, or EnqueueRaw for deliberate injection)",
				})
			}
		}
		return true
	})
	return issues
}

// messageLit unwraps arg to a Message composite literal, or nil.
func messageLit(arg ast.Expr) *ast.CompositeLit {
	if u, ok := arg.(*ast.UnaryExpr); ok && u.Op == token.AND {
		arg = u.X
	}
	lit, ok := arg.(*ast.CompositeLit)
	if !ok {
		return nil
	}
	switch t := lit.Type.(type) {
	case *ast.Ident:
		if t.Name == "Message" {
			return lit
		}
	case *ast.SelectorExpr:
		if t.Sel.Name == "Message" {
			return lit
		}
	}
	return nil
}

func hasField(lit *ast.CompositeLit, name string) bool {
	for _, el := range lit.Elts {
		kv, ok := el.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		if id, ok := kv.Key.(*ast.Ident); ok && id.Name == name {
			return true
		}
	}
	return false
}
