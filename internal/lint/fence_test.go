package lint

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestTreeIsLintClean runs the whole suite over the module, so go test
// enforces every analyzer and every fence row: each finding fails the
// test and prints as file:line. It also requires every scope the fence
// table names to match a package or file of the tree, so a rename cannot
// leave a row guarding nothing.
func TestTreeIsLintClean(t *testing.T) {
	pkgs, err := Load("../..", "./...")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range append(Run(pkgs, Suite()), Callers(pkgs, "../..", KeepList)...) {
		t.Error(d)
	}
	for _, r := range fences {
		for _, pat := range append(r.in, r.except...) {
			if !treeHas(pkgs, pat) {
				t.Errorf("fence row %q: scope %q matches nothing in the tree", r.rule, pat)
			}
		}
	}
}

// treeHas reports whether a scope pattern matches a loaded file.
func treeHas(pkgs []*Package, pat string) bool {
	for _, p := range pkgs {
		for _, f := range p.Files {
			if inScope([]string{pat}, p.relPath(), p.relFile(f)) {
				return true
			}
		}
	}
	return false
}

// lines returns a Go fragment of exactly n lines: a function when fn is
// set (from `func` to its closing brace), otherwise comment lines.
func lines(fn string, n int) string {
	if fn == "" {
		return strings.Repeat("// filler\n", n)
	}
	return "func " + fn + "() {\n" + strings.Repeat("\t_ = 0\n", n-2) + "}\n"
}

// TestFenceLineCaps drives the line-cap rows over generated packages one
// line either side of each cap. The caps are the table's, so the inputs
// are generated rather than committed.
func TestFenceLineCaps(t *testing.T) {
	cases := []struct {
		pkg   string
		files map[string]string
		want  []string
	}{
		{
			pkg: "internal/core",
			files: map[string]string{
				"day.go": "package core\n\n" + lines("atCap", 70) + lines("overCap", 71),
			},
			want: []string{`^one census day: func overCap is 71 lines, over 70 — RunDaily`},
		},
		{
			pkg: "internal/orchestrator",
			files: map[string]string{
				"orchestrator.go": "package orchestrator\n\n" + lines("atCap", 100) + lines("overCap", 101),
				"other.go":        "package orchestrator\n\n" + lines("elsewhere", 101),
			},
			want: []string{`^one wire endpoint: func overCap is 101 lines, over 100 — a measurement is`},
		},
		{
			pkg: "cmd/laces",
			files: map[string]string{
				"at.go":   "package main\n" + lines("", 499),
				"over.go": "package main\n" + lines("", 500),
			},
			want: []string{`^one command table: cmd/laces/over.go is 501 lines, over 500`},
		},
	}
	for _, tc := range cases {
		t.Run(tc.pkg, func(t *testing.T) {
			dir := t.TempDir()
			for name, src := range tc.files {
				if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			p, err := LoadDir(dir, ".", laces, laces+"/"+tc.pkg)
			if err != nil {
				t.Fatal(err)
			}
			diags := Run([]*Package{p}, []Analyzer{Fence{}})
			if len(diags) != len(tc.want) {
				t.Fatalf("got %d findings, want %d: %v", len(diags), len(tc.want), diags)
			}
			for i, d := range diags {
				if !regexp.MustCompile(tc.want[i]).MatchString(d.Message) {
					t.Errorf("finding %s does not match %q", d, tc.want[i])
				}
			}
		})
	}
}
