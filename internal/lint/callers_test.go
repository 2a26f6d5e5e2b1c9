package lint

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// callersCorpus is a two-package module plus its root package. Each
// declaration of internal/a is named for its case; TestCallers adds a
// bench/ file calling a.BenchOnly and a quick start calling m.Start, the
// root package's one name.
var callersCorpus = []struct {
	path  string
	files map[string]string
}{
	{"example.com/m/internal/a", map[string]string{
		"a.go": `package a

import "fmt"

func OwnTestsOnly() {}
func OtherTests()   {}
func BenchOnly()    {}
func Kept()         {}
func KeptCalled()   {}
func KeptField()    {}
func KeptNoField()  {}

type Config struct{ Budget int }

type T struct{}

func NewT() *T { _ = Config{}; return &T{} }

func (T) String() string { return fmt.Sprint("t") }
func (T) Run()           {}
func (T) Stop()          {}
`,
		"a_test.go": `package a

import "testing"

func TestA(t *testing.T) { OwnTestsOnly(); NewT().Stop() }
`,
	}},
	{"example.com/m/internal/b", map[string]string{
		"b.go": `package b

import "example.com/m/internal/a"

type Runner interface{ Run() }

func Use() Runner { a.KeptCalled(); return a.NewT() }
`,
		"b_test.go": `package b

import (
	"testing"

	"example.com/m/internal/a"
)

func TestB(t *testing.T) { a.OtherTests() }
`,
	}},
	{"example.com/m", map[string]string{
		"m.go": `package m

import "example.com/m/internal/b"

func Start() { b.Use() }
`,
	}},
}

var callersKeep = []Keep{
	{"a.Kept", "", "kept"},
	{"a.KeptCalled", "", "kept, but called"},
	{"a.KeptField", "Config.Budget", "builds a field"},
	{"a.KeptNoField", "Config.Missing", "builds a field that is not there"},
	{"a.Gone", "", "keeps nothing"},
}

// TestCallers runs the check over the corpus: each finding is a case the
// check must report, and every other declaration a case it must not.
func TestCallers(t *testing.T) {
	root := t.TempDir()
	write := func(name, src string) {
		if err := os.MkdirAll(filepath.Dir(filepath.Join(root, name)), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(root, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("README.md", "# m\n\n## Quick start\n\n```go\nm.Start()\n```\n")
	write("bench/bench.go", "package main\n\nimport \"example.com/m/internal/a\"\n\nfunc main() { a.BenchOnly() }\n")

	var got []string
	for _, d := range Callers(loadSources(t), root, callersKeep) {
		got = append(got, d.Message)
	}
	want := []string{
		"a.OwnTestsOnly has no use outside its own package's tests",
		"a.T.Stop has no use outside its own package's tests",
		"keep entry a.Gone names no declaration",
		"keep entry a.KeptCalled has a caller now",
		"keep entry a.KeptNoField serves Config.Missing, which is not a field",
	}
	sort.Strings(got)
	if len(got) != len(want) {
		t.Fatalf("got %d findings, want %d:\n%s", len(got), len(want), strings.Join(got, "\n"))
	}
	for i := range want {
		if !strings.HasPrefix(got[i], want[i]) {
			t.Errorf("finding %q, want one starting %q", got[i], want[i])
		}
	}
}

// TestKeepListReasons: every keep entry says why it stays.
func TestKeepListReasons(t *testing.T) {
	for _, k := range KeepList {
		if k.Reason == "" {
			t.Errorf("keep entry %s has no reason", k.Decl)
		}
	}
}

// loadSources type-checks the corpus packages in order under one file
// set, each importing those before it; stdlib imports come from the
// toolchain's export data.
func loadSources(t *testing.T) []*Package {
	t.Helper()
	fset := token.NewFileSet()
	std := importer.ForCompiler(fset, "gc", nil)
	checked := map[string]*types.Package{}
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p := checked[path]; p != nil {
			return p, nil
		}
		return std.Import(path)
	})
	var pkgs []*Package
	for _, c := range callersCorpus {
		p := &Package{Path: c.path, Module: "example.com/m", Fset: fset}
		names := make([]string, 0, len(c.files))
		for name := range c.files {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			f, err := parser.ParseFile(fset, filepath.Join(c.path, name), c.files[name], parser.ParseComments)
			if err != nil {
				t.Fatal(err)
			}
			if strings.HasSuffix(name, "_test.go") {
				p.TestFiles = append(p.TestFiles, f)
			} else {
				p.Files = append(p.Files, f)
			}
		}
		p.Info = &types.Info{Uses: map[*ast.Ident]types.Object{}, Defs: map[*ast.Ident]types.Object{}, Types: map[ast.Expr]types.TypeAndValue{}}
		var err error
		if p.Types, err = (&types.Config{Importer: imp}).Check(c.path, fset, p.Files, p.Info); err != nil {
			t.Fatal(err)
		}
		checked[c.path] = p.Types
		pkgs = append(pkgs, p)
	}
	return pkgs
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
