package laces_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// fieldSetters are the facade names no example or quick start spells but
// an importer outside the module still needs: each builds the value of an
// exported field of a kept type, named here as "Type.Field".
var fieldSetters = map[string]string{
	"ProbeBudget":        "PipelineConfig.Budget",
	"OptOutRegistry":     "PipelineConfig.OptOut",
	"LoadOptOutRegistry": "PipelineConfig.OptOut",
	"ObsRegistry":        "PipelineConfig.Obs",
	"NewObsRegistry":     "PipelineConfig.Obs",
	"LoadMix":            "LoadConfig.Mix",
}

// TestFacadeNamesHaveCallers keeps the root package to what its callers
// use. Every exported name in laces.go must be used by a program under
// examples/ or by README's quick start, appear in the signature of a
// function kept that way, or be on the fieldSetters list.
func TestFacadeNamesHaveCallers(t *testing.T) {
	fset := token.NewFileSet()
	facade, err := parser.ParseFile(fset, "laces.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	exported := map[string]bool{}
	funcs := map[string]*ast.FuncType{}
	aliases := map[string]ast.Expr{}
	for _, d := range facade.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil && d.Name.IsExported() {
				exported[d.Name.Name] = true
				funcs[d.Name.Name] = d.Type
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					exported[s.Name.Name] = s.Name.IsExported()
					aliases[s.Name.Name] = s.Type
				case *ast.ValueSpec:
					for _, n := range s.Names {
						exported[n.Name] = n.IsExported()
					}
				}
			}
		}
	}

	used := map[string]bool{}
	mains, err := filepath.Glob("examples/*/main.go")
	if err != nil || len(mains) == 0 {
		t.Fatalf("no examples found (%v)", err)
	}
	for _, path := range mains {
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "github.com/laces-project/laces" {
				name := "laces"
				if imp.Name != nil {
					name = imp.Name.Name
				}
				collectSelectors(f, name, used)
			}
		}
	}
	f, err := parser.ParseFile(fset, "README.md#quickstart", "package p\nfunc _() {\n"+readmeQuickStart(t)+"\n}", 0)
	if err != nil {
		t.Fatalf("README quick start does not parse: %v", err)
	}
	collectSelectors(f, "laces", used)

	kept := map[string]bool{}
	for name := range exported {
		kept[name] = used[name] || fieldSetters[name] != ""
	}
	for name, sig := range funcs {
		if !kept[name] {
			continue
		}
		ast.Inspect(sig, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && exported[id.Name] {
				kept[id.Name] = true
			}
			return true
		})
	}

	for name, field := range fieldSetters {
		typ, fld, _ := strings.Cut(field, ".")
		if !exported[name] || !kept[typ] {
			t.Errorf("field setter %s serves %s, but the facade exports no such name or type", name, field)
			continue
		}
		if !structHasField(t, facade, aliases[typ], fld) {
			t.Errorf("field setter %s serves %s, which has no field %s", name, field, fld)
		}
	}

	var orphans []string
	for name, ok := range exported {
		if ok && !kept[name] {
			orphans = append(orphans, name)
		}
	}
	sort.Strings(orphans)
	if len(orphans) > 0 {
		t.Errorf("%d facade names have no caller outside the root package's tests; delete them or use them in an example:\n%s",
			len(orphans), strings.Join(orphans, "\n"))
	}
}

// collectSelectors records every pkg.Name selector in f.
func collectSelectors(f *ast.File, pkg string, into map[string]bool) {
	ast.Inspect(f, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok {
			if id, ok := sel.X.(*ast.Ident); ok && id.Name == pkg {
				into[sel.Sel.Name] = true
			}
		}
		return true
	})
}

// readmeQuickStart returns the first go block under README's "## Quick
// start" heading.
func readmeQuickStart(t *testing.T) string {
	t.Helper()
	b, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, rest, ok := strings.Cut(string(b), "\n## Quick start\n")
	if !ok {
		t.Fatal("README has no \"## Quick start\" section")
	}
	_, rest, ok = strings.Cut(rest, "```go\n")
	if !ok {
		t.Fatal("README quick start has no go block")
	}
	block, _, ok := strings.Cut(rest, "```")
	if !ok {
		t.Fatal("README quick start block is not closed")
	}
	return block
}

// structHasField reports whether the struct an alias in laces.go names
// (pkg.Type, pkg one of the facade's internal imports) declares field.
func structHasField(t *testing.T, facade *ast.File, alias ast.Expr, field string) bool {
	t.Helper()
	sel, ok := alias.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	pkg := sel.X.(*ast.Ident).Name
	dir := ""
	for _, imp := range facade.Imports {
		p, _ := strconv.Unquote(imp.Path.Value)
		if strings.HasSuffix(p, "/internal/"+pkg) {
			dir = filepath.Join("internal", pkg)
		}
	}
	if dir == "" {
		return false
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok || ts.Name.Name != sel.Sel.Name {
				return true
			}
			if st, ok := ts.Type.(*ast.StructType); ok {
				for _, fl := range st.Fields.List {
					for _, n := range fl.Names {
						found = found || n.Name == field
					}
				}
			}
			return false
		})
	}
	return found
}
