package laces_test

import (
	"path/filepath"
	"strings"
	"testing"

	"github.com/laces-project/laces/internal/lint"
)

// TestFacadeNamesHaveCallers keeps the root package to what its callers
// use. It runs the tree-wide callers check and fails on each finding in
// laces.go or on a facade entry of the keep list: a name no caller
// outside the root package's tests uses, a kept name that has a caller
// now, or a field setter whose field is gone.
func TestFacadeNamesHaveCallers(t *testing.T) {
	pkgs, err := lint.Load(".", "./...")
	if err != nil {
		t.Fatal(err)
	}
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
