package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Directives are magic comments under the //laces: prefix:
//
//	//laces:allow <analyzer> <reason>   audited suppression of one finding
//	//laces:hotpath [reason]            marks a function for the hotalloc pass
//
// An allow applies to findings of the named analyzer on the directive's
// own line (trailing-comment form) or on the next code line below it
// (standalone or doc-comment form). The reason is mandatory: an
// exemption nobody can explain is a finding, not a waiver; and so is an
// allow that suppresses nothing.

const directivePrefix = "//laces:"

// allowKey identifies one suppressible location.
type allowKey struct {
	analyzer string
	file     string
	line     int
}

// directiveSet is the per-package directive index the runner consults.
// allowed maps each allow target to whether it has suppressed a finding
// yet; allows lists the allow directives in source order.
type directiveSet struct {
	allowed   map[allowKey]bool
	allows    []allowDirective
	malformed []Diagnostic
}

// allowDirective is one well-formed allow: what it targets and where it
// is written.
type allowDirective struct {
	key allowKey
	pos token.Position
}

// suppresses reports whether a finding by analyzer at pos is allowed,
// and marks the allow as used.
func (ds *directiveSet) suppresses(analyzer string, pos token.Position) bool {
	k := allowKey{analyzer, pos.Filename, pos.Line}
	if _, ok := ds.allowed[k]; !ok {
		return false
	}
	ds.allowed[k] = true
	return true
}

// stale reports every allow that suppressed nothing: an exemption for a
// finding that no longer exists is itself a finding, so the allowlist
// cannot outlive the code it excused.
func (ds *directiveSet) stale() []Diagnostic {
	var out []Diagnostic
	for _, a := range ds.allows {
		if !ds.allowed[a.key] {
			out = append(out, Diagnostic{
				Analyzer: "directive", Pos: a.pos,
				Message: fmt.Sprintf("//laces:allow %s suppresses nothing; delete it", a.key.analyzer),
			})
		}
	}
	return out
}

// collectDirectives scans every comment in the package for //laces:
// directives, recording allow targets and reporting malformed or
// unknown ones as findings of the "directive" pseudo-analyzer (which
// cannot itself be suppressed).
func collectDirectives(p *Package, known map[string]bool) *directiveSet {
	ds := &directiveSet{allowed: make(map[allowKey]bool)}
	for _, f := range p.Files {
		codeLines := fileCodeLines(p.Fset, f)
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, directivePrefix) {
					continue
				}
				pos := p.Fset.Position(c.Pos())
				rest := strings.TrimPrefix(c.Text, directivePrefix)
				verb, args, _ := strings.Cut(rest, " ")
				switch verb {
				case "hotpath":
					// Valid anywhere; consumed by hotalloc via the
					// function's doc comment. An optional reason rides
					// along unvalidated.
				case "allow":
					fields := strings.Fields(args)
					switch {
					case len(fields) == 0:
						ds.malformed = append(ds.malformed, Diagnostic{
							Analyzer: "directive", Pos: pos,
							Message: "//laces:allow needs an analyzer name and a reason",
						})
					case !known[fields[0]]:
						ds.malformed = append(ds.malformed, Diagnostic{
							Analyzer: "directive", Pos: pos,
							Message: fmt.Sprintf("//laces:allow names unknown analyzer %q (known: %s)",
								fields[0], strings.Join(sortedKeys(known), ", ")),
						})
					case len(fields) < 2:
						ds.malformed = append(ds.malformed, Diagnostic{
							Analyzer: "directive", Pos: pos,
							Message: fmt.Sprintf("//laces:allow %s needs a reason — undocumented exemptions are findings", fields[0]),
						})
					default:
						// Trailing comments cover their own line; standalone
						// (or doc-comment) directives cover the code line
						// below them.
						line, ok := pos.Line, hasLine(codeLines, pos.Line)
						if !ok {
							line, ok = nextCodeLine(codeLines, pos.Line)
						}
						if ok {
							k := allowKey{fields[0], pos.Filename, line}
							ds.allowed[k] = false
							ds.allows = append(ds.allows, allowDirective{k, pos})
						}
					}
				default:
					ds.malformed = append(ds.malformed, Diagnostic{
						Analyzer: "directive", Pos: pos,
						Message: fmt.Sprintf("unknown //laces: directive %q (know: allow, hotpath)", verb),
					})
				}
			}
		}
	}
	return ds
}

// fileCodeLines returns the sorted set of lines carrying non-comment
// tokens, used to attach a standalone directive to the statement below
// it (skipping over the rest of a doc comment).
func fileCodeLines(fset *token.FileSet, f *ast.File) []int {
	seen := make(map[int]bool)
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			return false
		}
		switch n.(type) {
		case *ast.Comment, *ast.CommentGroup:
			return false
		}
		seen[fset.Position(n.Pos()).Line] = true
		seen[fset.Position(n.End()).Line] = true
		return true
	})
	lines := make([]int, 0, len(seen))
	for l := range seen {
		lines = append(lines, l)
	}
	sort.Ints(lines)
	return lines
}

// nextCodeLine returns the first code line strictly after line.
func nextCodeLine(codeLines []int, line int) (int, bool) {
	i := sort.SearchInts(codeLines, line+1)
	if i == len(codeLines) {
		return 0, false
	}
	return codeLines[i], true
}

// hasLine reports whether the sorted line set contains line.
func hasLine(codeLines []int, line int) bool {
	i := sort.SearchInts(codeLines, line)
	return i < len(codeLines) && codeLines[i] == line
}

// isHotpath reports whether the function declaration is annotated
// //laces:hotpath in its doc comment.
func isHotpath(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if c.Text == "//laces:hotpath" || strings.HasPrefix(c.Text, "//laces:hotpath ") {
			return true
		}
	}
	return false
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
