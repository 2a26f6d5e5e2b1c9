package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Maporder hunts the byte-identity killer behind the PR 3 sortedEntries
// fix: iterating a Go map in its randomized order while building
// output. A `range` over a map whose body appends to an outer slice is
// a finding unless the slice is visibly sorted after the loop (the
// collect-keys-then-sort idiom); a body that writes straight to an
// encoder, writer or printer is always a finding — no later sort can
// reorder bytes already emitted.
type Maporder struct{}

// Name implements Analyzer.
func (Maporder) Name() string { return "maporder" }

// Doc implements Analyzer.
func (Maporder) Doc() string {
	return "no map iteration that appends to an unsorted slice or writes to an encoder/writer — map order is randomized per run"
}

// writeMethodNames are method or package-function names whose call
// inside a map-range body emits output in iteration order.
var writeMethodNames = map[string]bool{
	"Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true,
	"Encode": true, "EncodeElement": true,
	"Fprintf": true, "Fprint": true, "Fprintln": true,
	"Printf": true, "Print": true, "Println": true,
}

// Run implements Analyzer.
func (m Maporder) Run(p *Package) []Diagnostic {
	var diags []Diagnostic
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				rs, ok := n.(*ast.RangeStmt)
				if !ok {
					return true
				}
				if !isMapType(p.Info, rs.X) {
					return true
				}
				if rs.Key == nil && rs.Value == nil {
					// `for range m` uses only the map's size.
					return true
				}
				diags = append(diags, m.checkMapRange(p, fd, rs)...)
				return true
			})
		}
	}
	return diags
}

// checkMapRange inspects one map-range statement for order-dependent
// output construction.
func (m Maporder) checkMapRange(p *Package, fd *ast.FuncDecl, rs *ast.RangeStmt) []Diagnostic {
	var diags []Diagnostic
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		// Direct output: method or fmt-style call that writes bytes.
		if name, isWrite := writeCallName(p.Info, call); isWrite {
			diags = append(diags, Diagnostic{
				Analyzer: m.Name(),
				Pos:      p.position(call),
				Message:  fmt.Sprintf("%s inside iteration over a map emits output in randomized map order; iterate a sorted key slice instead", name),
			})
			return true
		}
		// Accumulation: append to a slice declared outside the loop,
		// without a dominating sort after the loop.
		if id, isAppend := call.Fun.(*ast.Ident); isAppend && id.Name == "append" && len(call.Args) > 0 {
			if b, bok := p.Info.Uses[id].(*types.Builtin); !bok || b.Name() != "append" {
				return true
			}
			target := call.Args[0]
			key := exprKey(p.Info, target)
			if key == "" || declaredWithin(p.Info, target, rs.Body.Pos(), rs.Body.End()) {
				return true
			}
			if !sortedAfter(p, fd, rs.End(), key) {
				diags = append(diags, Diagnostic{
					Analyzer: m.Name(),
					Pos:      p.position(call),
					Message:  fmt.Sprintf("append to %q inside iteration over a map accumulates in randomized map order and is never sorted after the loop", exprText(target)),
				})
			}
		}
		return true
	})
	return diags
}

// isMapType reports whether the expression's static type is a map.
func isMapType(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	_, isMap := tv.Type.Underlying().(*types.Map)
	return isMap
}

// writeCallName classifies a call as byte-emitting output: a method
// whose name is in writeMethodNames, or the fmt/io printers.
func writeCallName(info *types.Info, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !writeMethodNames[sel.Sel.Name] {
		return "", false
	}
	if pkgPath, fn, ok := pkgFunc(info, call); ok {
		// Package-level call: only the printing/encoding packages count.
		switch pkgPath {
		case "fmt", "io":
			return pkgPath + "." + fn, true
		}
		return "", false
	}
	// Method call (strings.Builder, bufio.Writer, json.Encoder, net
	// connections, ...): the method name is evidence enough — emitting
	// anything per map element is order-dependent.
	return "(" + exprText(sel.X) + ")." + sel.Sel.Name, true
}

// exprKey canonicalizes the identity of an append target: the object of
// the root identifier plus any selector path, so `r.Deltas` in the loop
// and `r.Deltas` in the sort call compare equal.
func exprKey(info *types.Info, e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		if obj := info.ObjectOf(e); obj != nil {
			return fmt.Sprintf("%p", obj)
		}
	case *ast.SelectorExpr:
		if base := exprKey(info, e.X); base != "" {
			return base + "." + e.Sel.Name
		}
	case *ast.IndexExpr:
		if base := exprKey(info, e.X); base != "" {
			return base + "[]"
		}
	}
	return ""
}

// exprText renders a short source-ish form of an expression for
// messages.
func exprText(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprText(e.X) + "." + e.Sel.Name
	case *ast.IndexExpr:
		return exprText(e.X) + "[...]"
	case *ast.CallExpr:
		return exprText(e.Fun) + "(...)"
	default:
		return "expr"
	}
}

// declaredWithin reports whether the expression's root object is
// declared inside [lo, hi] — an append to a loop-local slice does not
// leak iteration order out of the loop body.
func declaredWithin(info *types.Info, e ast.Expr, lo, hi token.Pos) bool {
	root := e
	for {
		switch r := root.(type) {
		case *ast.SelectorExpr:
			root = r.X
			continue
		case *ast.IndexExpr:
			root = r.X
			continue
		}
		break
	}
	id, ok := root.(*ast.Ident)
	if !ok {
		return false
	}
	obj := info.ObjectOf(id)
	return obj != nil && obj.Pos() >= lo && obj.Pos() <= hi
}

// sortedAfter reports whether, somewhere after pos in the enclosing
// function, the accumulated slice is passed through a sort: a
// sort./slices. call taking it, or any call whose name mentions sort
// (sortedEntries and friends), including `x = sortedX(x)` assignment
// forms.
func sortedAfter(p *Package, fd *ast.FuncDecl, pos token.Pos, targetKey string) bool {
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < pos {
			return true
		}
		if !isSortCall(p.Info, call) {
			return true
		}
		for _, arg := range call.Args {
			if argMentions(p.Info, arg, targetKey) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// isSortCall recognizes sorting calls: the sort and slices packages,
// and any function or method whose name contains "sort", qualified or
// not (the repo's sortedEntries and core.SortPrefixStrings idioms).
func isSortCall(info *types.Info, call *ast.CallExpr) bool {
	if pkgPath, _, ok := pkgFunc(info, call); ok && (pkgPath == "sort" || pkgPath == "slices") {
		return true
	}
	var name string
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		name = fun.Name
	case *ast.SelectorExpr:
		name = fun.Sel.Name
	}
	return strings.Contains(strings.ToLower(name), "sort")
}

// argMentions reports whether the argument expression contains the
// target (by canonical key) anywhere inside it — covering sort.Slice(x,
// func...), sort.Strings(x), and sortedEntries(byPrefix(x)) shapes.
func argMentions(info *types.Info, arg ast.Expr, targetKey string) bool {
	found := false
	ast.Inspect(arg, func(n ast.Node) bool {
		if found {
			return false
		}
		if e, ok := n.(ast.Expr); ok {
			if k := exprKey(info, e); k != "" && k == targetKey {
				found = true
				return false
			}
		}
		return true
	})
	return found
}
