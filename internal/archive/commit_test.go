package archive

import (
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestOneCommitSeam fences the store's write seam: no non-test file of
// internal/archive or internal/query but commit.go may create, rename,
// remove or truncate a file through package os. A whole file commits
// through CommitFile, and index.jsonl is opened and appended in commit.go.
func TestOneCommitSeam(t *testing.T) {
	forbidden := map[string]bool{
		"Create": true, "OpenFile": true, "WriteFile": true, "Rename": true,
		"Remove": true, "RemoveAll": true, "Truncate": true, "CreateTemp": true,
	}
	files := 0
	for _, dir := range []string{".", "../query"} {
		paths, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range paths {
			if strings.HasSuffix(path, "_test.go") || (dir == "." && filepath.Base(path) == "commit.go") {
				continue
			}
			fset := token.NewFileSet()
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			files++
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "os" && forbidden[sel.Sel.Name] {
					t.Errorf("%s: os.%s outside commit.go: write through archive.CommitFile", fset.Position(call.Pos()), sel.Sel.Name)
				}
				return true
			})
		}
	}
	if files < 5 {
		t.Fatalf("the fence read %d files; it is not looking at the packages", files)
	}
}

// TestCommitFile is CommitFile's contract: a write that fails leaves the
// earlier bytes at path and no tmp file, its error comes back, and a
// write that succeeds replaces the bytes whole, over a stale tmp file
// too.
func TestCommitFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "day.json")
	if err := os.WriteFile(path, []byte("earlier\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	err := CommitFile(path, func(w io.Writer) error {
		if _, err := io.WriteString(w, strings.Repeat("half a file ", 1<<12)); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("CommitFile returned %v, want the write's error", err)
	}
	assertFile(t, path, "earlier\n")

	if err := os.WriteFile(path+".tmp", []byte("stale tmp from a dead commit"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := CommitFile(path, func(w io.Writer) error {
		_, err := io.WriteString(w, "later\n")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	assertFile(t, path, "later\n")
}

// assertFile requires path to hold want and no tmp file beside it.
func assertFile(t *testing.T, path, want string) {
	t.Helper()
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != want {
		t.Fatalf("%s holds %q, want %q", filepath.Base(path), got, want)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("a tmp file is left beside %s (stat: %v)", filepath.Base(path), err)
	}
}
