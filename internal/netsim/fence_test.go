package netsim

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// TestStagesProbeByTrainAndFan keeps the two measurement stages on their
// whole-target entry points: manycast.Run asks for a probe train
// (AnycastTrain) and gcdmeas.Run for a fan (UnicastFan), never for the
// single probes those fold. It fails on any selector named ProbeAnycast or
// ProbeUnicast in the stages' non-test files — a call, a method value or
// an interface method alike — and ignores comments and strings. Tests
// compare the two and may use both.
func TestStagesProbeByTrainAndFan(t *testing.T) {
	forbidden := map[string]bool{"ProbeAnycast": true, "ProbeUnicast": true}
	fset := token.NewFileSet()
	parsed := 0
	for _, dir := range []string{"../manycast", "../gcdmeas"} {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range files {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			parsed++
			ast.Inspect(f, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok && forbidden[sel.Sel.Name] {
					t.Errorf("%s: %s — the stage probes a whole target (AnycastTrain, UnicastFan), not one probe at a time",
						fset.Position(sel.Sel.Pos()), sel.Sel.Name)
				}
				return true
			})
		}
	}
	if parsed < 2 {
		t.Fatalf("parsed %d stage files; the fence is looking in the wrong place", parsed)
	}
}
