// Package lint is the project's static-analysis suite: a dependency-free
// (stdlib go/ast + go/parser + go/types only) analyzer framework that
// moves LACeS's mechanical invariants — seed→byte-identical documents,
// zero-alloc probe paths, nil-safe telemetry instruments, and the
// architecture's "one mechanism" rules in the fence table — from runtime
// golden tests into checks over every package; Callers checks that every
// declaration has a caller. go test ./... runs the whole suite over the
// module (TestTreeIsLintClean); cmd/laces-lint runs it by hand.
//
// Each Analyzer inspects one type-checked package and reports typed
// diagnostics with file:line positions. Findings fail the build; the
// audited escape hatch is a
//
//	//laces:allow <analyzer> <reason>
//
// comment on (or immediately above) the offending line. Malformed or
// unknown directives are themselves findings, so the allowlist stays
// greppable and honest.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one finding: which analyzer fired, where, and why.
type Diagnostic struct {
	Analyzer string         `json:"analyzer"`
	Pos      token.Position `json:"position"`
	Message  string         `json:"message"`
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
}

// Package is one loaded, type-checked package as the analyzers see it:
// syntax with comments, full type information, and enough identity
// (module and import path) for analyzers to scope themselves. Test
// files are not type-checked — the invariants the suite enforces are
// about shipped code, and tests legitimately use wall clocks and maps —
// but their syntax rides along in TestFiles for the fence rows that
// keep a deleted name out of tests too, and for the callers check.
type Package struct {
	// Path is the package's import path; Module is the module path it
	// belongs to (analyzers scope on the relation between the two).
	Path   string
	Module string
	Dir    string

	Fset      *token.FileSet
	Files     []*ast.File
	TestFiles []*ast.File // _test.go files, syntax only
	Types     *types.Package
	Info      *types.Info
}

// InternalTo reports whether the package is part of the module's
// internal tree (or is the module root package) — the scope of the
// determinism analyzers. cmd/ and examples/ binaries are drivers, not
// census code, and fall outside it.
func (p *Package) InternalTo() bool {
	return p.Path == p.Module || strings.HasPrefix(p.Path, p.Module+"/internal/")
}

// PathEndsWith reports whether the package's import path ends in
// suffix (e.g. "internal/obs") — how package-scoped analyzers match
// both the real package and a testdata corpus loaded under a synthetic
// path.
func (p *Package) PathEndsWith(suffix string) bool {
	return p.Path == suffix || strings.HasSuffix(p.Path, "/"+suffix)
}

// Analyzer is one invariant check. Run inspects a single package and
// returns its findings; the framework applies //laces:allow suppression
// afterwards, so analyzers report every violation unconditionally.
type Analyzer interface {
	Name() string
	Doc() string
	Run(p *Package) []Diagnostic
}

// Suite returns the full analyzer suite in stable order.
func Suite() []Analyzer {
	return []Analyzer{
		Detnow{},
		Maporder{},
		Nilsafe{},
		Hotalloc{},
		Fence{},
	}
}

// Run executes the analyzers over the packages, applies directive
// suppression, folds in directive findings (malformed and stale allows),
// and returns the surviving diagnostics sorted by position.
func Run(pkgs []*Package, analyzers []Analyzer) []Diagnostic {
	known := make(map[string]bool)
	for _, a := range analyzers {
		known[a.Name()] = true
	}
	var out []Diagnostic
	for _, p := range pkgs {
		dirs := collectDirectives(p, known)
		out = append(out, dirs.malformed...)
		for _, a := range analyzers {
			for _, d := range a.Run(p) {
				if !dirs.suppresses(a.Name(), d.Pos) {
					out = append(out, d)
				}
			}
		}
		out = append(out, dirs.stale()...)
	}
	return sorted(out)
}

// sorted orders diagnostics by position, then analyzer.
func sorted(out []Diagnostic) []Diagnostic {
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return out
}

// position is shorthand for a node's resolved position.
func (p *Package) position(n ast.Node) token.Position {
	return p.Fset.Position(n.Pos())
}

// pkgFunc resolves a call of the form pkg.Fn to its package import path
// and function name, when Fun is a selector over an imported package
// name. ok is false for method calls and locals.
func pkgFunc(info *types.Info, call *ast.CallExpr) (pkgPath, fn string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	id, isID := sel.X.(*ast.Ident)
	if !isID {
		return "", "", false
	}
	pn, isPkg := info.Uses[id].(*types.PkgName)
	if !isPkg {
		return "", "", false
	}
	return pn.Imported().Path(), sel.Sel.Name, true
}
