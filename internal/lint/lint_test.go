package lint

import (
	"fmt"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// corpusModule is the synthetic module identity the golden corpora load
// under; per-corpus import paths hang off its internal tree so the
// package-scoped analyzers fire exactly as they do on the real module.
const corpusModule = "example.com/corpus"

// laces is the real module path: the fence corpora load under it so that
// the table's module-relative scopes and targets apply to them.
const laces = "github.com/laces-project/laces"

// loadCorpus loads one testdata package through the same pipeline as
// real packages, under the module that owns asPath.
func loadCorpus(t *testing.T, dir, asPath string) *Package {
	t.Helper()
	module := corpusModule
	if strings.HasPrefix(asPath, laces+"/") {
		module = laces
	}
	p, err := LoadDir(filepath.Join("testdata", "src", dir), ".", module, asPath)
	if err != nil {
		t.Fatalf("loading corpus %s: %v", dir, err)
	}
	return p
}

// wantRE extracts the backquoted regexes of one `// want` marker.
var wantRE = regexp.MustCompile("// want((?: `[^`]+`)+)")

var wantArgRE = regexp.MustCompile("`([^`]+)`")

// parseWants reads the corpus sources and returns, keyed by file:line,
// the diagnostic regexes expected there.
func parseWants(t *testing.T, dir string) map[string][]*regexp.Regexp {
	t.Helper()
	wants := make(map[string][]*regexp.Regexp)
	root := filepath.Join("testdata", "src", dir)
	entries, err := os.ReadDir(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(root, e.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			m := wantRE.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			key := fmt.Sprintf("%s:%d", path, i+1)
			for _, arg := range wantArgRE.FindAllStringSubmatch(m[1], -1) {
				re, err := regexp.Compile(arg[1])
				if err != nil {
					t.Fatalf("%s: bad want regex %q: %v", key, arg[1], err)
				}
				wants[key] = append(wants[key], re)
			}
		}
	}
	return wants
}

// TestCorpora runs the full suite over each golden corpus and requires
// an exact match: every `// want` satisfied, no diagnostic unaccounted
// for.
func TestCorpora(t *testing.T) {
	cases := []struct {
		dir    string
		asPath string
	}{
		{"detnow", corpusModule + "/internal/detnow"},
		{"maporder", corpusModule + "/internal/maporder"},
		{"nilsafe", corpusModule + "/internal/obs"},
		{"hotalloc", corpusModule + "/internal/hotalloc"},
		{"fence/api", laces + "/internal/api"},
		{"fence/core", laces + "/internal/core"},
		{"fence/manycast", laces + "/internal/manycast"},
		{"fence/orchestrator", laces + "/internal/orchestrator"},
		{"fence/archive", laces + "/internal/archive"},
	}
	for _, tc := range cases {
		t.Run(tc.dir, func(t *testing.T) {
			p := loadCorpus(t, tc.dir, tc.asPath)
			diags := Run([]*Package{p}, Suite())
			wants := parseWants(t, tc.dir)
			for _, d := range diags {
				key := fmt.Sprintf("%s:%d", d.Pos.Filename, d.Pos.Line)
				matched := false
				for i, re := range wants[key] {
					if re.MatchString(d.Message) {
						wants[key] = append(wants[key][:i], wants[key][i+1:]...)
						matched = true
						break
					}
				}
				if !matched {
					t.Errorf("unexpected diagnostic: %s", d)
				}
			}
			for key, res := range wants {
				for _, re := range res {
					t.Errorf("%s: missing expected diagnostic matching %q", key, re)
				}
			}
		})
	}
}

// TestDirectiveParsing asserts that malformed and stale //laces:
// directives are findings of the non-suppressible "directive"
// pseudo-analyzer, and a well-formed allow suppresses its target.
// Expectations live here rather than as `// want` markers because a
// directive and a marker cannot share a line.
func TestDirectiveParsing(t *testing.T) {
	p := loadCorpus(t, "directive", corpusModule+"/internal/directive")
	diags := Run([]*Package{p}, Suite())

	wantDirective := []string{
		`unknown //laces: directive "frobnicate"`,
		"needs an analyzer name",
		`unknown analyzer "gremlins"`,
		"needs a reason",
		"//laces:allow detnow suppresses nothing",
	}
	var directiveDiags, otherDiags []Diagnostic
	for _, d := range diags {
		if d.Analyzer == "directive" {
			directiveDiags = append(directiveDiags, d)
		} else {
			otherDiags = append(otherDiags, d)
		}
	}
	if len(directiveDiags) != len(wantDirective) {
		t.Fatalf("got %d directive findings, want %d:\n%v", len(directiveDiags), len(wantDirective), directiveDiags)
	}
	for _, want := range wantDirective {
		found := false
		for _, d := range directiveDiags {
			if strings.Contains(d.Message, want) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no directive finding containing %q in %v", want, directiveDiags)
		}
	}

	// The corpus has two time.Now calls; only the unsuppressed one may
	// surface.
	if len(otherDiags) != 1 {
		t.Fatalf("got %d non-directive findings, want exactly the unsuppressed time.Now:\n%v", len(otherDiags), otherDiags)
	}
	d := otherDiags[0]
	if d.Analyzer != "detnow" || !strings.Contains(d.Message, "time.Now") {
		t.Errorf("surviving finding should be the unsuppressed time.Now, got %s", d)
	}
}

// TestSuiteNames pins the analyzer set: directives reference analyzers
// by name, so renames are breaking changes.
func TestSuiteNames(t *testing.T) {
	want := []string{"detnow", "maporder", "nilsafe", "hotalloc", "fence"}
	got := AnalyzerNames()
	if len(got) != len(want) {
		t.Fatalf("AnalyzerNames() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("AnalyzerNames() = %v, want %v", got, want)
		}
	}
	for _, a := range Suite() {
		if a.Doc() == "" {
			t.Errorf("analyzer %s has no doc", a.Name())
		}
	}
}

// TestLoadRealPackage smoke-tests the module-aware loader against this
// very package.
func TestLoadRealPackage(t *testing.T) {
	pkgs, err := Load("../..", "./internal/lint")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("got %d packages, want 1", len(pkgs))
	}
	p := pkgs[0]
	if p.Module != laces {
		t.Errorf("module = %q", p.Module)
	}
	if !p.InternalTo() {
		t.Error("internal/lint should be internal to the module")
	}
	if !p.PathEndsWith("internal/lint") {
		t.Error("PathEndsWith(internal/lint) should hold")
	}
	if p.Types == nil || p.Info == nil || len(p.Files) == 0 {
		t.Error("loaded package is missing syntax or type information")
	}
}

// AnalyzerNames returns the names valid in //laces:allow directives.
func AnalyzerNames() []string {
	var names []string
	for _, a := range Suite() {
		names = append(names, a.Name())
	}
	return names
}

// LoadDir loads a single directory as one package under a caller-chosen
// synthetic import path — how the golden-diagnostic corpora under
// testdata/ (which `go list` refuses to enumerate) are loaded with the
// same type-checking pipeline as real packages. moduleDir anchors the
// `go list` run that locates export data for the corpus's (stdlib)
// imports; asPath and asModule set the identity package-scoped
// analyzers see.
func LoadDir(dir, moduleDir, asModule, asPath string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var goFiles, testFiles []string
	for _, e := range entries {
		name := e.Name()
		switch {
		case e.IsDir() || !strings.HasSuffix(name, ".go"):
		case strings.HasSuffix(name, "_test.go"):
			testFiles = append(testFiles, name)
		default:
			goFiles = append(goFiles, name)
		}
	}
	if len(goFiles) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	sort.Strings(goFiles)

	// Pre-parse to discover imports, then resolve their export data.
	fset := token.NewFileSet()
	imports := make(map[string]bool)
	for _, name := range goFiles {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ImportsOnly)
		if err != nil {
			return nil, err
		}
		for _, im := range f.Imports {
			imports[strings.Trim(im.Path.Value, `"`)] = true
		}
	}
	exports := make(map[string]string)
	if len(imports) > 0 {
		args := []string{"-export", "-deps", "-json=ImportPath,Export"}
		for path := range imports {
			args = append(args, path)
		}
		sort.Strings(args[3:])
		listed, err := goList(moduleDir, args...)
		if err != nil {
			return nil, err
		}
		for _, p := range listed {
			if p.Export != "" {
				exports[p.ImportPath] = p.Export
			}
		}
	}

	fset = token.NewFileSet()
	files, tpkg, info, err := typecheck(fset, exportImporter(fset, exports), asPath, dir, goFiles)
	if err != nil {
		return nil, err
	}
	tests, err := parseTests(fset, dir, testFiles)
	if err != nil {
		return nil, err
	}
	return &Package{
		Path:      asPath,
		Module:    asModule,
		Dir:       dir,
		Fset:      fset,
		Files:     files,
		TestFiles: tests,
		Types:     tpkg,
		Info:      info,
	}, nil
}
