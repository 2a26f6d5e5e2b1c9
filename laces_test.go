package laces_test

import (
	"sync"
	"testing"

	laces "github.com/laces-project/laces"
)

var (
	facadeOnce sync.Once
	facadeW    *laces.World
	facadeWErr error
)

// facadeWorld builds the shared test world once per process.
func facadeWorld(t *testing.T) *laces.World {
	t.Helper()
	facadeOnce.Do(func() {
		facadeW, facadeWErr = laces.NewWorld(laces.TestConfig())
	})
	if facadeWErr != nil {
		t.Fatal(facadeWErr)
	}
	return facadeW
}

// TestFacadeQuickstart exercises the documented public API end to end.
func TestFacadeQuickstart(t *testing.T) {
	world, err := laces.NewWorld(laces.TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	dep, err := laces.Tangled(world)
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := laces.NewPipeline(world, laces.PipelineConfig{
		Deployment: dep,
		GCDVPs:     laces.ArkVPs(world),
	})
	if err != nil {
		t.Fatal(err)
	}
	census, err := pipe.RunDaily(0, false, laces.DayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(census.G()) == 0 || len(census.M()) == 0 {
		t.Fatalf("quickstart census degenerate: |G|=%d |M|=%d", len(census.G()), len(census.M()))
	}
}

// TestFacadeHitlist builds a census day's hitlist through the facade.
func TestFacadeHitlist(t *testing.T) {
	if hl := laces.HitlistForDay(facadeWorld(t), false, 0); hl.Len() == 0 {
		t.Fatal("empty hitlist")
	}
}

// TestFacadeDiff compares two census days through the facade.
func TestFacadeDiff(t *testing.T) {
	world := facadeWorld(t)
	dep, err := laces.Tangled(world)
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := laces.NewPipeline(world, laces.PipelineConfig{
		Deployment: dep,
		GCDVPs:     laces.ArkVPs(world),
	})
	if err != nil {
		t.Fatal(err)
	}
	a, err := pipe.RunDaily(10, false, laces.DayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := pipe.RunDaily(17, false, laces.DayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	d := laces.DiffCensus(a.Document(), b.Document())
	if d.From == d.To {
		t.Fatal("diff did not carry dates")
	}
}

// TestFacadeArchive exercises the documented archive surface: stream a
// longitudinal run into a store, reopen it, and read a day back
// byte-identically to its published form.
func TestFacadeArchive(t *testing.T) {
	world := facadeWorld(t)
	dir := t.TempDir()
	w, err := laces.CreateArchive(dir, laces.CensusArchiveOptions{SnapshotEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	h, err := laces.RunLongitudinalInto(world, 3, 1, w)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if len(h.Summaries(false)) != 3 {
		t.Fatalf("ran %d days", len(h.Summaries(false)))
	}
	a, err := laces.OpenArchive(dir)
	if err != nil {
		t.Fatal(err)
	}
	if res, err := a.Verify(); err != nil || res.Days != 6 { // 3 days × 2 families
		t.Fatalf("verify: %v (%+v)", err, res)
	}
	doc, err := a.Document("ipv4", 2)
	if err != nil {
		t.Fatal(err)
	}
	if doc.GCount == 0 || doc.ProbesAnycastStage == 0 {
		t.Fatalf("archived day degenerate: %+v", doc)
	}
}

// TestFacadeQueryEngine exercises the longitudinal query surface:
// archive a run, build the timeline index, and answer timeline /
// events / stability queries without decoding archived days.
func TestFacadeQueryEngine(t *testing.T) {
	world := facadeWorld(t)
	dir := t.TempDir()
	w, err := laces.CreateArchive(dir, laces.CensusArchiveOptions{SnapshotEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := laces.RunLongitudinalInto(world, 4, 1, w); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	res, err := laces.BuildCensusIndex(dir)
	if err != nil {
		t.Fatal(err)
	}
	if res.Families != 2 || res.Prefixes == 0 {
		t.Fatalf("index build degenerate: %+v", res)
	}
	ix, err := laces.OpenCensusIndex(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	prefix := ix.Prefixes("ipv4")[0]
	tl, err := laces.QueryTimeline(ix, "ipv4", prefix)
	if err != nil {
		t.Fatal(err)
	}
	if len(tl.Days) != 4 || tl.PresentDays() == 0 {
		t.Fatalf("timeline degenerate: %+v", tl)
	}
	if _, err := laces.QueryEvents(ix, "ipv4", nil, 0, -1); err != nil {
		t.Fatal(err)
	}
	st, err := laces.QueryStability(ix, "ipv4", prefix)
	if err != nil {
		t.Fatal(err)
	}
	if st.Score <= 0 || st.Score > 1 {
		t.Fatalf("stability score out of range: %+v", st)
	}
	// The documented index-only guarantee, at the facade level.
	if n := ix.Archive().Decodes(); n != 0 {
		t.Fatalf("facade queries decoded %d documents, want 0", n)
	}
}

// TestFacadeGovernance exercises the exported responsible-probing
// surface: a governed pipeline run and the responsibility block.
func TestFacadeGovernance(t *testing.T) {
	b := laces.ProbeBudget{DailyProbes: 5000000, PerPrefixProbes: 200}
	world := facadeWorld(t)
	dep, err := laces.Tangled(world)
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := laces.NewPipeline(world, laces.PipelineConfig{
		Deployment: dep,
		GCDVPs:     laces.ArkVPs(world),
		Budget:     b,
	})
	if err != nil {
		t.Fatal(err)
	}
	census, err := pipe.RunDaily(0, false, laces.DayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	doc := census.Document()
	r := doc.Responsibility
	if r == nil {
		t.Fatal("governed census published no responsibility block")
	}
	if r.ProbesSpent+r.ProbesSkipped != r.ProbesDemanded {
		t.Fatalf("responsibility does not reconcile: %+v", r)
	}
}
