package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// The loader type-checks packages with the stdlib alone: syntax via
// go/parser, types via go/types, and dependency signatures from the
// compiler's export data, located by shelling out to `go list -export`
// (the go tool is the one external program a Go build already
// requires). This keeps the linter free of third-party modules while
// staying module-aware — the source-importer alternative resolves
// imports through GOPATH and cannot see module paths.

// listPackage is the subset of `go list -json` the loader consumes.
type listPackage struct {
	Dir          string
	ImportPath   string
	Export       string
	Module       *struct{ Path string }
	Standard     bool
	GoFiles      []string
	TestGoFiles  []string
	XTestGoFiles []string
}

// goList runs `go list` in dir with the given arguments and decodes the
// JSON package stream.
func goList(dir string, args ...string) ([]listPackage, error) {
	cmd := exec.Command("go", append([]string{"list"}, args...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	var pkgs []listPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decoding output: %v", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// exportImporter satisfies types.Importer from a map of import path →
// compiler export-data file.
func exportImporter(fset *token.FileSet, exports map[string]string) types.Importer {
	lookup := func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("lint: no export data for %q", path)
		}
		return os.Open(f)
	}
	return importer.ForCompiler(fset, "gc", lookup)
}

// typecheck parses and type-checks one package's files.
func typecheck(fset *token.FileSet, imp types.Importer, path, dir string, goFiles []string) ([]*ast.File, *types.Package, *types.Info, error) {
	var files []*ast.File
	for _, name := range goFiles {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, nil, nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Uses:       make(map[*ast.Ident]types.Object),
		Defs:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("lint: type-checking %s: %v", path, err)
	}
	return files, tpkg, info, nil
}

// Load loads and type-checks the packages matching the go package
// patterns (e.g. "./...") rooted at dir, which must lie inside a
// module. The tree must compile — the linter checks invariants above
// the language, not syntax.
func Load(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	roots, err := goList(dir, append([]string{"-json=ImportPath"}, patterns...)...)
	if err != nil {
		return nil, err
	}
	wanted := make(map[string]bool, len(roots))
	for _, r := range roots {
		wanted[r.ImportPath] = true
	}
	all, err := goList(dir, append([]string{"-export", "-deps",
		"-json=ImportPath,Export,Dir,GoFiles,TestGoFiles,XTestGoFiles,Standard,Module"}, patterns...)...)
	if err != nil {
		return nil, err
	}
	exports := make(map[string]string)
	var targets []listPackage
	for _, p := range all {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if wanted[p.ImportPath] {
			targets = append(targets, p)
		}
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i].ImportPath < targets[j].ImportPath })

	fset := token.NewFileSet()
	imp := exportImporter(fset, exports)
	var pkgs []*Package
	for _, t := range targets {
		if len(t.GoFiles) == 0 {
			continue
		}
		files, tpkg, info, err := typecheck(fset, imp, t.ImportPath, t.Dir, t.GoFiles)
		if err != nil {
			return nil, err
		}
		testFiles, err := parseTests(fset, t.Dir, append(t.TestGoFiles, t.XTestGoFiles...))
		if err != nil {
			return nil, err
		}
		module := ""
		if t.Module != nil {
			module = t.Module.Path
		}
		pkgs = append(pkgs, &Package{
			Path:      t.ImportPath,
			Module:    module,
			Dir:       t.Dir,
			Fset:      fset,
			Files:     files,
			TestFiles: testFiles,
			Types:     tpkg,
			Info:      info,
		})
	}
	return pkgs, nil
}

// parseTests parses files of dir, syntax only: a package's _test.go
// files, which the fence's identifier rows and the callers check read,
// and the bench/ module's files.
func parseTests(fset *token.FileSet, dir string, names []string) ([]*ast.File, error) {
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}
