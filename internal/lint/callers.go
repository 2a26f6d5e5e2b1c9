package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
)

// The callers check: every top-level function, method, type, constant
// and variable in a non-test file needs a use outside its own package's
// tests — in non-test code of any package (a declaration's uses of itself
// aside), another package's tests, bench/, or README's quick start. A
// method is also used when a visible interface declares it and its type
// has that interface's methods. Struct fields are out of scope. Non-test
// code is matched by type; the rest is syntax, matched by selector:
// pkg.Name, and a call .Name of an exported method of any module package
// the file reaches through its imports. The check needs every package at
// once, so it is not an Analyzer and no allow directive silences it.

// Keep is a declaration the callers check keeps without a caller.
type Keep struct {
	Decl   string // "pkg.Name" or "pkg.Type.Method", pkg the package name
	Field  string // "Type.Field" of Decl's package whose value Decl builds, if any
	Reason string
}

const fieldSetter = "a facade field setter: an importer outside the module builds the field's value with it"

// KeepList is every declaration the tree keeps without a caller. A kept
// declaration's own uses do not count: it is kept, not called.
var KeepList = []Keep{
	{"laces.ProbeBudget", "PipelineConfig.Budget", fieldSetter},
	{"laces.OptOutRegistry", "PipelineConfig.OptOut", fieldSetter},
	{"laces.LoadOptOutRegistry", "PipelineConfig.OptOut", fieldSetter},
	{"laces.ObsRegistry", "PipelineConfig.Obs", fieldSetter},
	{"laces.NewObsRegistry", "PipelineConfig.Obs", fieldSetter},
	{"laces.LoadMix", "LoadConfig.Mix", fieldSetter},
	{"api.Server.Reload", "", "the seam `laces serve -follow` will call to serve a grown archive and index"},
	{"api.Server.Generation", "", "the seam `laces serve -follow` will call to tell whether a reload took"},
}

// decl is one tracked top-level declaration.
type decl struct {
	name string // "pkg.Name" or "pkg.Type.Method"
	pos  token.Position
	obj  types.Object
}

// usage holds the declarations by objectKey and the keys with a use. A
// method selected by syntax is recorded as "pkg/path.*.Method".
type usage struct {
	decls  map[string]*decl
	used   map[string]bool
	byPath map[string]*Package
}

// Callers runs the callers check over every package of the module
// rooted at root.
func Callers(pkgs []*Package, root string, keep []Keep) []Diagnostic {
	u := &usage{decls: map[string]*decl{}, used: map[string]bool{}, byPath: map[string]*Package{}}
	module := ""
	for _, p := range pkgs {
		u.byPath[p.Path], module = p, p.Module
		for _, f := range p.Files {
			for _, un := range units(f) {
				for _, id := range un.ids {
					key := objectKey(p.Info.Defs[id])
					if key != "" && id.Name != "_" && id.Name != "init" && (id.Name != "main" || p.Types.Name() != "main") {
						u.decls[key] = &decl{p.Types.Name() + strings.TrimPrefix(key, p.Path), p.position(id), p.Info.Defs[id]}
					}
				}
			}
		}
	}
	byName, kept := map[string]string{}, map[string]bool{}
	for key, d := range u.decls {
		byName[d.name] = key
	}
	for _, k := range keep {
		kept[byName[k.Decl]] = true
	}
	for _, p := range pkgs {
		u.markTyped(p, kept)
		for _, f := range p.TestFiles {
			u.markSyntax(f, p.Path)
		}
	}
	var diags []Diagnostic
	report := func(pos token.Position, format string, args ...any) {
		diags = append(diags, Diagnostic{Analyzer: "callers", Pos: pos, Message: fmt.Sprintf(format, args...)})
	}
	files, err := rootSources(root, module)
	if err != nil {
		report(token.Position{Filename: root}, "%v", err)
	}
	for _, f := range files {
		u.markSyntax(f, "")
	}
	u.markInterfaces()

	for _, k := range keep {
		d := u.decls[byName[k.Decl]]
		switch {
		case d == nil:
			report(token.Position{Filename: "keep list"}, "keep entry %s names no declaration", k.Decl)
		case u.used[byName[k.Decl]]:
			report(d.pos, "keep entry %s has a caller now; take it off the keep list", k.Decl)
		case k.Field != "" && !hasField(d.obj.Pkg(), k.Field):
			report(d.pos, "keep entry %s serves %s, which is not a field", k.Decl, k.Field)
		}
	}
	for key, d := range u.decls {
		if !u.used[key] && !kept[key] {
			report(d.pos, "%s has no use outside its own package's tests: delete it, move it into a _test.go file, or give it a caller", d.name)
		}
	}
	return sorted(diags)
}

// unit is one top-level function or spec and the names it defines.
type unit struct {
	node ast.Node
	ids  []*ast.Ident
}

// units splits a file's top-level declarations into units.
func units(f *ast.File) []unit {
	var out []unit
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			out = append(out, unit{d, []*ast.Ident{d.Name}})
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					out = append(out, unit{s, []*ast.Ident{s.Name}})
				case *ast.ValueSpec:
					out = append(out, unit{s, s.Names})
				}
			}
		}
	}
	return out
}

// markTyped marks what the package's non-test code uses, one unit at a
// time. A unit's uses of what it defines do not count (a function's
// recursion; a type's mentions in its own spec and its methods: a
// method's key less its name is its type's), nor do a kept declaration's
// uses.
func (u *usage) markTyped(p *Package, kept map[string]bool) {
	for _, f := range p.Files {
		for _, un := range units(f) {
			if kept[objectKey(p.Info.Defs[un.ids[0]])] {
				continue
			}
			self := map[string]bool{}
			for _, id := range un.ids {
				key := objectKey(p.Info.Defs[id])
				self[key], self[strings.TrimSuffix(key, "."+id.Name)] = true, true
			}
			u.markIdents(p, un.node, self)
		}
	}
}

func (u *usage) markIdents(p *Package, n ast.Node, self map[string]bool) {
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			obj := p.Info.Uses[id]
			if fn, ok := obj.(*types.Func); ok {
				obj = fn.Origin()
			}
			if key := objectKey(obj); key != "" && !self[key] {
				u.used[key] = true
			}
		}
		return true
	})
}

// markSyntax marks what a file read as syntax selects. from is the
// file's own package path, whose declarations its tests do not keep,
// and whose imports the file reaches too.
func (u *usage) markSyntax(f *ast.File, from string) {
	imported := map[string]string{} // local name → path
	reach := map[string]bool{}
	u.reach(from, reach)
	for _, imp := range f.Imports {
		path, _ := strconv.Unquote(imp.Path.Value)
		if p := u.byPath[path]; p != nil {
			u.reach(path, reach)
			name := p.Types.Name()
			if imp.Name != nil {
				name = imp.Name.Name
			}
			if path != from {
				imported[name] = path
			}
		}
	}
	delete(reach, from)
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if id, ok := n.X.(*ast.Ident); ok && imported[id.Name] != "" {
				u.used[imported[id.Name]+"."+n.Sel.Name] = true
			}
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.IsExported() {
				for path := range reach {
					u.used[path+".*."+sel.Sel.Name] = true
				}
			}
		}
		return true
	})
}

// reach adds path and every module package it imports, directly or not.
func (u *usage) reach(path string, into map[string]bool) {
	if p := u.byPath[path]; p != nil && !into[path] {
		into[path] = true
		for _, imp := range p.Types.Imports() {
			u.reach(imp.Path(), into)
		}
	}
}

// rootSources parses the callers outside the loaded module: every Go
// file of bench/, and README's quick start (if any) as a function body in
// a file that imports the root package.
func rootSources(root, module string) ([]*ast.File, error) {
	fset := token.NewFileSet()
	bench, _ := filepath.Glob(filepath.Join(root, "bench", "*.go"))
	files, err := parseTests(fset, "", bench)
	if err != nil {
		return nil, err
	}
	readme, _ := os.ReadFile(filepath.Join(root, "README.md"))
	_, rest, _ := strings.Cut(string(readme), "\n## Quick start\n")
	_, rest, _ = strings.Cut(rest, "```go\n")
	block, _, _ := strings.Cut(rest, "```")
	src := fmt.Sprintf("package p\nimport %q\nfunc _() {\n%s\n}", module, block)
	f, err := parser.ParseFile(fset, "README.md#quick-start", src, parser.SkipObjectResolution)
	if err != nil {
		return files, fmt.Errorf("README quick start does not parse: %v", err)
	}
	return append(files, f), nil
}

// markInterfaces marks the methods selected by syntax, and each method
// that an interface visible to the program declares when the method's
// type has every method of that interface. The interfaces are every named
// one in the loaded packages and the packages they import, plus every
// interface type the code spells. Methods match by name, not signature:
// a package's own types and the view its importers get from export data
// are distinct objects, so go/types cannot compare signatures across
// them.
func (u *usage) markInterfaces() {
	ifaces := map[string][]*types.Interface{} // method name → interfaces declaring it
	add := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok && it.IsMethodSet() {
			for i := 0; i < it.NumMethods(); i++ {
				ifaces[it.Method(i).Name()] = append(ifaces[it.Method(i).Name()], it)
			}
		}
	}
	seen := map[*types.Package]bool{}
	var walk func(tp *types.Package)
	walk = func(tp *types.Package) {
		if !seen[tp] {
			seen[tp] = true
			for _, name := range tp.Scope().Names() {
				if tn, ok := tp.Scope().Lookup(name).(*types.TypeName); ok {
					add(tn.Type())
				}
			}
			for _, imp := range tp.Imports() {
				walk(imp)
			}
		}
	}
	for _, p := range u.byPath {
		walk(p.Types)
		for _, tv := range p.Info.Types {
			add(tv.Type)
		}
	}
	for key, d := range u.decls {
		fn, ok := d.obj.(*types.Func)
		if !ok || u.used[key] || fn.Type().(*types.Signature).Recv() == nil {
			continue
		}
		recv := fn.Type().(*types.Signature).Recv().Type()
		u.used[key] = u.used[fn.Pkg().Path()+".*."+fn.Name()] ||
			slices.ContainsFunc(ifaces[fn.Name()], func(it *types.Interface) bool { return hasMethods(recv, it) })
	}
}

// hasMethods reports whether t, addressable, has a method of each name it
// declares.
func hasMethods(t types.Type, it *types.Interface) bool {
	for i := 0; i < it.NumMethods(); i++ {
		obj, _, _ := types.LookupFieldOrMethod(t, true, it.Method(i).Pkg(), it.Method(i).Name())
		if _, ok := obj.(*types.Func); !ok {
			return false
		}
	}
	return true
}

// hasField reports whether "Type.Field" names a field of a type of the
// package.
func hasField(tp *types.Package, spec string) bool {
	typ, field, _ := strings.Cut(spec, ".")
	tn, ok := tp.Scope().Lookup(typ).(*types.TypeName)
	if !ok {
		return false
	}
	obj, _, _ := types.LookupFieldOrMethod(tn.Type(), false, tp, field)
	_, ok = obj.(*types.Var)
	return ok
}
