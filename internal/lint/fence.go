package lint

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/types"
	"path"
	"path/filepath"
	"strconv"
	"strings"
)

// Fence keeps the architecture's "one mechanism" decisions from
// eroding. Each row of the fences table below is a scope, a thing that
// scope may not hold, and why; the diagnostic prints the row's rule and
// its why. Rows resolve through go/types, so an import alias, a dot
// import or a method value cannot evade one, and a comment or a string
// cannot trip one. The table is the whole configuration: there is no
// flag, environment variable or config field that changes it.
type Fence struct{}

// Name implements Analyzer.
func (Fence) Name() string { return "fence" }

// Doc implements Analyzer.
func (Fence) Doc() string {
	return "architecture rules from the table in fence.go: objects, imports and names a scope may not use, use caps, and line caps per function or file"
}

// fenceRow is one rule. Scopes are module-relative: "..." is the whole
// module, "cmd/..." a directory tree, "internal/api" one package and
// "internal/api/respond.go" one file; except takes the same forms. A
// row has exactly one of three shapes:
//
//   - uses: qualified objects ("os.Rename", "internal/core.NewPipeline"),
//     methods ("net/http.ResponseWriter.WriteHeader") or packages
//     ("internal/gcdmeas", fired on the import). A package may use an
//     object max times; arg limits the row to calls whose first argument
//     is a constant string with that prefix.
//   - names: identifiers declared or referenced under these names. With
//     tests set, the scope's _test.go files count too (syntax only).
//     mapOnly limits the row to objects of map type; in test files, to
//     fields and vars declared with a map type.
//   - funcLines or fileLines: a cap on the lines of each top-level
//     function (from `func` to its closing brace) or of each file.
type fenceRow struct {
	rule       string
	in, except []string
	tests      bool

	uses []string
	max  int
	arg  string

	names   []string
	mapOnly bool

	funcLines, fileLines int

	why string
}

// The reasons several rows share.
const (
	whyStageLoop = "par.Run owns admission, spans, shard merge and accounting for every measurement stage; the pieces stages used to assemble by hand must not return, tests included"
	whyCensusDay = "the API runs no measurement stage: a live day is Pipeline.RunDaily and a live measurement Pipeline.Measure, each on the pipeline the one newPipeline builds"
)

// fences is the table. Each row is a structural decision that landed
// once and must not be undone by a later change.
var fences = []fenceRow{
	{
		rule: "one hitlist pass", in: []string{"..."},
		uses: []string{"internal/hitlist.Scan", "internal/hitlist.Merge", "internal/hitlist.Source"},
		why:  "hitlist.ForDay is one pass over the universe; the per-source Scan/Merge/Source surface it replaced lives on only as the test oracle",
	},
	{
		rule: "one cache layer", in: []string{"..."}, tests: true,
		names: []string{"SetCacheSize"},
		why:   "the archive and the query index keep no decoded-day cache of their own (stacked behind the API's on the same key they hit 8 % and 5 % of the time); the knobs that sized the deleted layers must not come back",
	},
	{rule: "one stage loop", in: []string{"internal/par"}, tests: true, names: []string{"Gather"}, why: whyStageLoop},
	{rule: "one stage loop", in: []string{"internal/obs"}, tests: true, names: []string{"Cell"}, why: whyStageLoop},
	{rule: "one stage loop", in: []string{"..."}, tests: true, names: []string{"MergeCells"}, why: whyStageLoop},
	{
		rule: "one probe train", in: []string{"internal/manycast", "internal/gcdmeas"},
		names: []string{"ProbeAnycast", "ProbeUnicast"},
		why:   "a stage probes a whole target: manycast asks netsim for a train (AnycastTrain) and gcdmeas for a fan (UnicastFan), never for the single probes those fold",
	},
	{
		rule: "one response path", in: []string{"internal/api"}, except: []string{"internal/api/respond.go"},
		uses: []string{"net/http.ResponseWriter", "net/http.ResponseWriter.WriteHeader"},
		why:  "respond.go is the one response path: no other file of internal/api holds an http.ResponseWriter or writes a status",
	},
	{
		rule: "one response path", in: []string{"..."}, tests: true,
		names: []string{"writeJSON", "writeErr", "statusRecorder"},
		why:   "the per-handler funnels and the status recorder that respond replaced must not come back",
	},
	{
		rule: "one command table", in: []string{"cmd/..."}, fileLines: 500,
		why: "a binary is one command table walked by one dispatcher; a file regrowing past 500 lines is a command going in beside the table instead of as a row of it",
	},
	{
		rule: "one wire endpoint", in: []string{"..."}, except: []string{"internal/wire"},
		uses: []string{"internal/obs.Registry.CounterFunc"}, arg: "laces_wire_",
		why: "orchestrator, worker and CLI share wire.Endpoint, which alone registers the laces_wire_* series",
	},
	{
		rule: "one wire endpoint", in: []string{"..."}, tests: true,
		names: []string{"dumpFlight"},
		why:   "every fabric component dumps through obs.Recorder.Dump, not a copy of its own",
	},
	{
		rule: "one wire endpoint", in: []string{"internal/orchestrator", "internal/worker"},
		uses: []string{"net/netip.ParseAddr"},
		why:  "addresses are netip.Addr on the wire, so nothing in the fabric parses one by hand",
	},
	{
		rule: "one wire endpoint", in: []string{"..."}, tests: true,
		names: []string{"BatchSize"},
		why:   "the batch size is a constant, not an option nobody set",
	},
	{
		rule: "one wire endpoint", in: []string{"internal/orchestrator/orchestrator.go"}, funcLines: 100,
		why: "a measurement is start/admit/stream/collect; a function regrowing past 100 lines is runMeasurement coming back",
	},
	{
		rule: "one census day", in: []string{"internal/core"}, funcLines: 70,
		why: "RunDaily is a driver over the phases of one censusDay (day.go); a function regrowing past 70 lines is the 219-line RunDaily coming back",
	},
	{
		rule: "one census day", in: []string{"internal/api"},
		uses: []string{"internal/manycast", "internal/gcdmeas", "internal/hitlist"},
		why:  whyCensusDay,
	},
	{rule: "one census day", in: []string{"internal/api"}, uses: []string{"internal/core.NewPipeline"}, max: 1, why: whyCensusDay},
	{
		rule: "one census day", in: []string{"internal/core", "internal/api"},
		uses: []string{"internal/gcdmeas.Run"},
		why:  "the §4.3 protocol split lives in gcdmeas.Confirm: core and the API go through it, never through gcdmeas.Run directly",
	},
	{
		rule: "one census day", in: []string{"..."}, tests: true,
		names: []string{"CountParticipants"},
		why:   "the missing-site set is a mask, so no helper counts which entries of a map are real sites",
	},
	{
		rule: "one census day", in: []string{"..."}, tests: true,
		names: []string{"MissingWorkers"}, mapOnly: true,
		why: "the missing-site set is a mask, not a map with rules about which of its entries count",
	},
	{
		rule: "one commit seam", in: []string{"internal/archive", "internal/query"}, except: []string{"internal/archive/commit.go"},
		uses: []string{"os.Create", "os.OpenFile", "os.WriteFile", "os.Rename", "os.Remove", "os.RemoveAll", "os.Truncate", "os.CreateTemp"},
		why:  "a whole file commits through archive.CommitFile, and index.jsonl is opened and appended in commit.go: one seam where a store write can be made crash-safe",
	},
}

// Run implements Analyzer.
func (f Fence) Run(p *Package) []Diagnostic {
	var diags []Diagnostic
	for i := range fences {
		r := &fences[i]
		report := func(n ast.Node, format string, args ...any) {
			diags = append(diags, Diagnostic{
				Analyzer: f.Name(),
				Pos:      p.position(n),
				Message:  r.rule + ": " + fmt.Sprintf(format, args...) + " — " + r.why,
			})
		}
		files := r.scoped(p, p.Files)
		switch {
		case len(r.uses) > 0:
			r.checkUses(p, files, report)
		case len(r.names) > 0:
			r.checkNames(p, files, true, report)
			if r.tests {
				r.checkNames(p, r.scoped(p, p.TestFiles), false, report)
			}
		default:
			r.checkLines(p, files, report)
		}
	}
	return diags
}

// scoped returns the files of p the row applies to.
func (r *fenceRow) scoped(p *Package, files []*ast.File) []*ast.File {
	var out []*ast.File
	pkg := p.relPath()
	for _, file := range files {
		rel := p.relFile(file)
		if inScope(r.in, pkg, rel) && !inScope(r.except, pkg, rel) {
			out = append(out, file)
		}
	}
	return out
}

// relPath is the package's import path relative to its module: "" for
// the module root, "internal/api" for the API package.
func (p *Package) relPath() string {
	if p.Path == p.Module {
		return ""
	}
	return strings.TrimPrefix(p.Path, p.Module+"/")
}

// relFile is a file's module-relative path, e.g. "internal/api/respond.go".
func (p *Package) relFile(f *ast.File) string {
	return path.Join(p.relPath(), filepath.Base(p.Fset.Position(f.Package).Filename))
}

// inScope reports whether the package (module-relative import path) or
// file (module-relative file path) matches one of the patterns.
func inScope(patterns []string, pkg, file string) bool {
	for _, pat := range patterns {
		dir, tree := strings.CutSuffix(pat, "/...")
		switch {
		case pat == "...",
			tree && (pkg == dir || strings.HasPrefix(pkg, dir+"/")),
			strings.HasSuffix(pat, ".go") && file == pat,
			pkg == pat:
			return true
		}
	}
	return false
}

// target resolves a row's uses entry to the key objectKey builds and
// reports whether it names a package (an import) rather than an object.
// Entries under internal/ are module-relative.
func target(module, spec string) (key string, isPkg bool) {
	if strings.HasPrefix(spec, "internal/") {
		spec = module + "/" + spec
	}
	slash := strings.LastIndex(spec, "/")
	return spec, !strings.Contains(spec[slash+1:], ".")
}

// objectKey names a package-level object as "pkg/path.Name" and a
// method as "pkg/path.Type.Method", the forms target resolves to; any
// other object has no key.
func objectKey(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			t := recv.Type()
			if ptr, ok := t.(*types.Pointer); ok {
				t = ptr.Elem()
			}
			if named, ok := t.(*types.Named); ok && named.Obj().Pkg() != nil {
				return named.Obj().Pkg().Path() + "." + named.Obj().Name() + "." + fn.Name()
			}
			return ""
		}
	}
	if obj.Pkg().Scope().Lookup(obj.Name()) != obj {
		return ""
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// checkUses reports imports of the row's packages and uses of its
// objects, past the row's cap.
func (r *fenceRow) checkUses(p *Package, files []*ast.File, report func(ast.Node, string, ...any)) {
	pkgs, objs := map[string]string{}, map[string]string{}
	for _, spec := range r.uses {
		if key, isPkg := target(p.Module, spec); isPkg {
			pkgs[key] = spec
		} else {
			objs[key] = spec
		}
	}
	seen := 0
	for _, file := range files {
		for _, im := range file.Imports {
			if ip, _ := strconv.Unquote(im.Path.Value); pkgs[ip] != "" {
				report(im, "imports %s", pkgs[ip])
			}
		}
		calls := map[*ast.Ident]*ast.CallExpr{}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				switch fun := n.Fun.(type) {
				case *ast.Ident:
					calls[fun] = n
				case *ast.SelectorExpr:
					calls[fun.Sel] = n
				}
			case *ast.Ident:
				spec := objs[objectKey(p.Info.Uses[n])]
				if spec == "" || r.arg != "" && !r.argMatches(p, calls[n]) {
					return true
				}
				if seen++; seen > r.max {
					if r.max > 0 {
						report(n, "use %d of %s, at most %d", seen, spec, r.max)
					} else if r.arg != "" {
						report(n, "%s(%q…)", spec, r.arg)
					} else {
						report(n, "%s", spec)
					}
				}
			}
			return true
		})
	}
}

// argMatches reports whether call's first argument is a constant string
// with the row's prefix.
func (r *fenceRow) argMatches(p *Package, call *ast.CallExpr) bool {
	if call == nil || len(call.Args) == 0 {
		return false
	}
	v := p.Info.Types[call.Args[0]].Value
	return v != nil && v.Kind() == constant.String && strings.HasPrefix(constant.StringVal(v), r.arg)
}

// checkNames reports identifiers under the row's names. Type-checked
// files are judged by the object an identifier denotes, test files by
// syntax.
func (r *fenceRow) checkNames(p *Package, files []*ast.File, typed bool, report func(ast.Node, string, ...any)) {
	banned := map[string]bool{}
	for _, n := range r.names {
		banned[n] = true
	}
	kind := "name"
	if r.mapOnly {
		kind = "map named"
	}
	for _, file := range files {
		var mapDecls map[*ast.Ident]bool
		if r.mapOnly && !typed {
			mapDecls = syntacticMapDecls(file)
		}
		ast.Inspect(file, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok || !banned[id.Name] {
				return true
			}
			if r.mapOnly {
				if typed {
					obj := p.Info.ObjectOf(id)
					if _, isVar := obj.(*types.Var); !isVar {
						return true
					}
					if _, isMap := obj.Type().Underlying().(*types.Map); !isMap {
						return true
					}
				} else if !mapDecls[id] {
					return true
				}
			}
			report(id, "%s %s", kind, id.Name)
			return true
		})
	}
}

// syntacticMapDecls returns the identifiers a file declares with a map
// type written out: `Name map[…]` fields and vars.
func syntacticMapDecls(file *ast.File) map[*ast.Ident]bool {
	out := map[*ast.Ident]bool{}
	ast.Inspect(file, func(n ast.Node) bool {
		var names []*ast.Ident
		var typ ast.Expr
		switch n := n.(type) {
		case *ast.Field:
			names, typ = n.Names, n.Type
		case *ast.ValueSpec:
			names, typ = n.Names, n.Type
		}
		if _, isMap := typ.(*ast.MapType); isMap {
			for _, id := range names {
				out[id] = true
			}
		}
		return true
	})
	return out
}

// checkLines reports functions and files over the row's cap.
func (r *fenceRow) checkLines(p *Package, files []*ast.File, report func(ast.Node, string, ...any)) {
	for _, file := range files {
		if r.fileLines > 0 {
			if n := p.Fset.File(file.Package).LineCount(); n > r.fileLines {
				report(file.Name, "%s is %d lines, over %d", p.relFile(file), n, r.fileLines)
			}
		}
		if r.funcLines == 0 {
			continue
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			n := p.Fset.Position(fd.End()).Line - p.Fset.Position(fd.Pos()).Line + 1
			if n > r.funcLines {
				report(fd, "func %s is %d lines, over %d", fd.Name.Name, n, r.funcLines)
			}
		}
	}
}
