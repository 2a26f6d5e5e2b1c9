package experiments

import (
	"io"

	"github.com/laces-project/laces/internal/chaos"
)

// Experiment is one row of the catalog: a table, figure or analysis of
// the paper's evaluation that the harness regenerates.
type Experiment struct {
	// Name is the key `laces-experiments -only` and the benchmark
	// sub-name use; Aliases are accepted in its place.
	Name    string
	Aliases []string
	// Title is the artefact as the paper numbers it.
	Title string
	// Longitudinal marks the experiments that need the 77-run census
	// history, which dominates wall-clock; RunAll can leave them out.
	Longitudinal bool
	// Run computes the experiment on e (sharing e's cached intermediates)
	// and renders it to w in the paper's layout.
	Run func(e *Env, w io.Writer) error
}

// row adapts an experiment's two halves — the Env method computing its
// typed result and the function rendering that result — into a Run.
func row[T any](compute func(*Env) (T, error), render func(io.Writer, T) error) func(*Env, io.Writer) error {
	return func(e *Env, w io.Writer) error {
		v, err := compute(e)
		if err != nil {
			return err
		}
		return render(w, v)
	}
}

// Catalog is the experiment index, in the order the evaluation is
// regenerated. cmd/laces-experiments, RunAll and the root
// BenchmarkExperiments all range over it; an experiment added here is
// runnable, rendered and benchmarked without touching any of them.
var Catalog = []Experiment{
	{Name: "table1", Title: "Table 1", Run: row((*Env).Table1, RenderTable1)},
	{Name: "table2", Title: "Table 2", Run: row((*Env).Table2, RenderTable2)},
	{Name: "table3", Title: "Table 3", Run: row((*Env).Table3, RenderTable3)},
	{Name: "table4", Title: "Table 4", Run: row((*Env).Table4, RenderTable4)},
	{Name: "table5", Title: "Table 5", Run: row((*Env).Table5, RenderTable5)},
	{Name: "table6", Title: "Table 6", Run: row((*Env).Table6, RenderTable6)},
	{Name: "fig5", Title: "Fig 5", Run: row((*Env).Fig5, RenderFig5)},
	{Name: "fig6", Title: "Fig 6", Run: row((*Env).Fig6, RenderFig6)},
	{Name: "fig7", Aliases: []string{"fig13"}, Title: "Fig 7/13", Run: row(venn(false), RenderProtocolVenn)},
	{Name: "fig14", Title: "Fig 14", Run: row(venn(true), RenderProtocolVenn)},
	{Name: "fig8", Title: "Fig 8", Run: row((*Env).Fig8, RenderFig8)},
	{Name: "fig11", Title: "Fig 11", Run: row((*Env).Fig11, RenderFig11)},
	{Name: "fig12", Title: "Fig 12", Run: row((*Env).Fig12, RenderFig12)},
	{Name: "sweep", Aliases: []string{"partial"}, Title: "§5.7 sweep", Run: row((*Env).PartialAnycastSweep, RenderSweep)},
	{Name: "validation", Aliases: []string{"groundtruth"}, Title: "§6 validation", Run: row(
		func(e *Env) ([]ValidationRow, error) { return e.GroundTruth(false) },
		func(w io.Writer, rows []ValidationRow) error { return RenderValidation(w, rows, false) })},
	{Name: "mdecomp", Aliases: []string{"globalbgp"}, Title: "§5.1.3 M decomposition", Run: row((*Env).MDecomposition, RenderMDecomposition)},
	{Name: "enum", Aliases: []string{"enumcompare"}, Title: "§5.2 enumeration comparison", Run: row((*Env).EnumComparison, RenderEnumComparison)},
	{Name: "chaos", Aliases: []string{"resilience"}, Title: "chaos resilience", Run: row(
		func(e *Env) (*chaos.Report, error) { return e.ChaosResilience(false) }, RenderChaosResilience)},
	{Name: "fig9", Title: "Fig 9", Longitudinal: true, Run: row((*Env).Fig9, RenderFig9)},
	{Name: "fig10", Title: "Fig 10", Longitudinal: true, Run: row((*Env).Fig10, RenderFig10)},
}

// venn is ProtocolVenn for one address family, in row's compute shape.
func venn(v6 bool) func(*Env) (*ProtocolVennResult, error) {
	return func(e *Env) (*ProtocolVennResult, error) { return e.ProtocolVenn(v6) }
}

// RunAll regenerates the whole catalog to w, a blank line after each
// experiment; skipLongitudinal leaves the Longitudinal rows out.
func (e *Env) RunAll(w io.Writer, skipLongitudinal bool) error {
	for _, x := range Catalog {
		if x.Longitudinal && skipLongitudinal {
			continue
		}
		if err := x.Run(e, w); err != nil {
			return err
		}
		if _, err := io.WriteString(w, "\n"); err != nil {
			return err
		}
	}
	return nil
}
