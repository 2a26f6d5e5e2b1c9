package laces_test

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"github.com/laces-project/laces/internal/lint"
)

// The module, loaded once for both checks below.
var (
	moduleOnce sync.Once
	modulePkgs []*lint.Package
	moduleErr  error
)

func loadModule(t *testing.T) []*lint.Package {
	t.Helper()
	moduleOnce.Do(func() { modulePkgs, moduleErr = lint.Load(".", "./...") })
	if moduleErr != nil {
		t.Fatal(moduleErr)
	}
	return modulePkgs
}

// TestFacadeNamesHaveCallers keeps the root package to what its callers
// use. It runs the tree-wide callers check and fails on each finding in
// laces.go or on a facade entry of the keep list: a name no caller
// outside the root package's tests uses, a kept name that has a caller
// now, or a field setter whose field is gone.
func TestFacadeNamesHaveCallers(t *testing.T) {
	pkgs := loadModule(t)
	root, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}
	facade := 0
	for _, k := range lint.KeepList {
		if strings.HasPrefix(k.Decl, "laces.") {
			facade++
		}
	}
	if facade == 0 {
		t.Error("the keep list holds no facade field setter; the check below would miss a renamed root package")
	}
	for _, d := range lint.Callers(pkgs, ".", lint.KeepList) {
		dir, _ := filepath.Abs(filepath.Dir(d.Pos.Filename))
		if dir == root || strings.Contains(d.Message, "keep entry laces.") {
			t.Error(d)
		}
	}
}

// optionStructs are the option and configuration structs whose exported
// fields must each have a production writer, as "pkg.Type" under
// internal/.
var optionStructs = []string{
	"api.Server",
	"archive.Options",
	"chaos.Scope",
	"client.Client",
	"core.Config",
	"gcdmeas.Campaign",
	"igreedy.Options",
	"longitudinal.Config",
	"manycast.Options",
	"orchestrator.Config",
	"query.EventOptions",
	"traceroute.Options",
	"wire.MeasurementDef",
	"worker.Config",
}

// optionKeep lists the guarded fields that no non-test file of the module
// writes, each with the reason it stays.
var optionKeep = map[string]string{
	"core.Config.Parallelism":             "bench/census.go runs census_v4_seq at 1 and census_v6_paper at the default; bench/ is its own module",
	"igreedy.Options.ProcessingAllowance": "bench/census.go sets it; bench/ is its own module",
	"worker.Config.Dialer":                "fault-injection seam: the fabric tests intercept the worker's connection",
	"worker.Config.FailAfterTargets":      "fault-injection seam: the fabric tests drop a worker mid-measurement",
	"worker.Config.ReconnectMin":          "fault-injection seam: the fabric tests reconnect a worker within 10–20 ms, or keep a dropped one away for a minute",
	"wire.MeasurementDef.Zone":            "wire contract: TestParentFramesStayCompatible pins the field in the frame",
}

// TestOptionsHaveProductionWriters: every exported field of an option
// struct is written by some non-test file of the module — as a
// composite-literal key, an assignment, an increment or by taking its
// address — or has an optionKeep entry. A field only tests set selects a
// behaviour no caller uses; a keep entry whose field has a writer now,
// or is gone, is stale.
func TestOptionsHaveProductionWriters(t *testing.T) {
	pkgs := loadModule(t)
	fields := map[string]bool{} // "pkg.Type.Field" -> written
	for _, p := range pkgs {
		for _, name := range optionStructs {
			pkg, typ, _ := strings.Cut(name, ".")
			if !p.PathEndsWith("internal/" + pkg) {
				continue
			}
			obj := p.Types.Scope().Lookup(typ)
			if obj == nil {
				t.Errorf("%s: no such type", name)
				continue
			}
			st, ok := obj.Type().Underlying().(*types.Struct)
			if !ok {
				t.Errorf("%s: not a struct", name)
				continue
			}
			for i := range st.NumFields() {
				if f := st.Field(i); f.Exported() {
					fields[name+"."+f.Name()] = false
				}
			}
		}
	}
	t.Logf("%d guarded values in %d option structs", len(fields), len(optionStructs))
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, w := range fieldWrites(p.Info, f) {
				if _, guarded := fields[w]; guarded {
					fields[w] = true
				}
			}
		}
	}
	for k := range optionKeep {
		if written, ok := fields[k]; !ok {
			t.Errorf("keep entry %s: no such guarded field", k)
		} else if written {
			t.Errorf("keep entry %s: the field has a production writer now; drop the entry", k)
		}
	}
	var unwritten []string
	for f, written := range fields {
		if _, kept := optionKeep[f]; !written && !kept {
			unwritten = append(unwritten, f)
		}
	}
	slices.Sort(unwritten)
	for _, f := range unwritten {
		t.Errorf("%s: no non-test file of the module sets it; make its value a constant or add a keep entry with a reason", f)
	}
}

// fieldWrites names, as "pkg.Type.Field" with pkg the package name,
// every field of a named struct type that f writes. An assignment inside
// an if whose condition reads the same field is the field's own
// defaulting (if cfg.X <= 0 { cfg.X = … }), not a writer.
func fieldWrites(info *types.Info, f *ast.File) []string {
	var out []string
	field := func(recv types.Type, name string) string {
		if ptr, ok := recv.(*types.Pointer); ok {
			recv = ptr.Elem()
		}
		if n, ok := recv.(*types.Named); ok && n.Obj().Pkg() != nil {
			return n.Obj().Pkg().Name() + "." + n.Obj().Name() + "." + name
		}
		return ""
	}
	selected := func(e ast.Expr) string {
		sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
		if !ok {
			return ""
		}
		// A promoted field is named after the outer type, so a guarded
		// field written only through embedding reads as unwritten.
		if s, ok := info.Selections[sel]; ok && s.Kind() == types.FieldVal {
			return field(s.Recv(), sel.Sel.Name)
		}
		return ""
	}
	// tested holds, per node on the inspection path, the fields an if
	// condition reads (nil for every other node).
	var tested [][]string
	write := func(name string) {
		if name == "" {
			return
		}
		for _, fs := range tested {
			if slices.Contains(fs, name) {
				return
			}
		}
		out = append(out, name)
	}
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			tested = tested[:len(tested)-1]
			return true
		}
		var reads []string
		switch n := n.(type) {
		case *ast.IfStmt:
			ast.Inspect(n.Cond, func(c ast.Node) bool {
				if e, ok := c.(ast.Expr); ok {
					if name := selected(e); name != "" {
						reads = append(reads, name)
					}
				}
				return true
			})
		case *ast.CompositeLit:
			tv, ok := info.Types[n]
			if !ok {
				break
			}
			if _, ok := tv.Type.Underlying().(*types.Struct); !ok {
				break
			}
			for _, elt := range n.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					if key, ok := kv.Key.(*ast.Ident); ok {
						write(field(tv.Type, key.Name))
					}
				}
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				write(selected(lhs))
			}
		case *ast.IncDecStmt:
			write(selected(n.X))
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				write(selected(n.X))
			}
		}
		tested = append(tested, reads)
		return true
	})
	return out
}
