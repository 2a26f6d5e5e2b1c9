package archive_test

// The archive's hard contract, pinned against the real pipeline: for
// every (seed, chaos scenario) pair, packing a multi-day census run and
// unpacking it must reproduce each day's WriteJSON bytes exactly. The
// same matrix pins the published-document codec itself (satellite:
// Document → WriteJSON → ParseDocument → WriteJSON is byte-identical).

import (
	"bytes"
	"net/netip"
	"testing"

	"github.com/laces-project/laces/internal/archive"
	"github.com/laces-project/laces/internal/chaos"
	"github.com/laces-project/laces/internal/core"
	"github.com/laces-project/laces/internal/netsim"
	"github.com/laces-project/laces/internal/platform"
)

// runDays executes a short multi-day census run and returns per-day
// documents with their canonical bytes.
func runDays(t *testing.T, seed uint64, sc *chaos.Scenario, days []int) ([]*core.Document, [][]byte) {
	t.Helper()
	cfg := netsim.TestConfig()
	cfg.Seed = seed
	w, err := netsim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dep, err := platform.Tangled(w, netsim.PolicyUnmodified)
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := core.NewPipeline(w, core.Config{
		Deployment: dep,
		GCDVPs: func(day int, v6 bool) ([]netsim.VP, error) {
			return platform.Ark(w, day, v6)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	var docs []*core.Document
	var raw [][]byte
	for _, day := range days {
		c, err := pipe.RunDaily(day, false, core.DayOptions{Chaos: sc})
		if err != nil {
			t.Fatal(err)
		}
		doc := c.Document()
		var buf bytes.Buffer
		if err := doc.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		docs = append(docs, doc)
		raw = append(raw, buf.Bytes())
	}
	return docs, raw
}

// matrix is the determinism suite: multiple seeds crossed with clean and
// impaired scenarios.
func matrix(t *testing.T, fn func(t *testing.T, seed uint64, sc *chaos.Scenario)) {
	scenarios := map[string]*chaos.Scenario{"clean": nil}
	for _, name := range []string{chaos.ScenarioLossyTransit, chaos.ScenarioFlappingUpstream} {
		sc, ok := chaos.Lookup(name)
		if !ok {
			t.Fatalf("scenario %q missing", name)
		}
		scenarios[name] = &sc
	}
	for _, seed := range []uint64{1, 1031} {
		for name, sc := range scenarios {
			seed, sc := seed, sc
			t.Run(name+"/seed="+string(rune('0'+seed%10)), func(t *testing.T) {
				fn(t, seed, sc)
			})
		}
	}
}

// TestArchiveRoundTripAcrossSeedsAndScenarios packs a multi-day census
// into a delta-encoded archive and proves unpacking is lossless.
func TestArchiveRoundTripAcrossSeedsAndScenarios(t *testing.T) {
	matrix(t, func(t *testing.T, seed uint64, sc *chaos.Scenario) {
		days := []int{0, 1, 2, 3}
		docs, want := runDays(t, seed, sc, days)

		dir := t.TempDir()
		w, err := archive.Create(dir, archive.Options{SnapshotEvery: 3})
		if err != nil {
			t.Fatal(err)
		}
		for i, doc := range docs {
			if err := w.Append(days[i], doc); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}

		a, err := archive.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		for i, day := range days {
			got, err := a.Document("ipv4", day)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := got.WriteJSON(&buf); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), want[i]) {
				t.Fatalf("day %d: unpacked census is not byte-identical to WriteJSON", day)
			}
			checkFind(t, got)
		}
		if res, err := a.Verify(); err != nil || res.Days != len(days) {
			t.Fatalf("verify: %v (%+v)", err, res)
		}
	})
}

// checkFind holds Document.Find to the linear scan it replaced on a real
// unpacked census day: every row is found at its own position, and each
// row's neighbours in prefix space (the same address one bit longer and
// shorter) are found exactly when a scan finds them.
func checkFind(t *testing.T, d *core.Document) {
	t.Helper()
	scan := func(prefix string) *core.DocumentEntry {
		for i := range d.Entries {
			if d.Entries[i].Prefix == prefix {
				return &d.Entries[i]
			}
		}
		return nil
	}
	for i := range d.Entries {
		p := d.Entries[i].Prefix
		if d.Find(p) != &d.Entries[i] {
			t.Fatalf("Find(%s) missed row %d", p, i)
		}
		pfx := netip.MustParsePrefix(p)
		for _, bits := range []int{pfx.Bits() - 1, pfx.Bits() + 1} {
			if n := netip.PrefixFrom(pfx.Addr(), bits).String(); d.Find(n) != scan(n) {
				t.Fatalf("Find(%s) disagrees with the linear scan", n)
			}
		}
	}
}

// TestDocumentJSONRoundTrip pins the published codec property:
// Document → WriteJSON → ParseDocument → WriteJSON is byte-identical
// across seeds and chaos scenarios.
func TestDocumentJSONRoundTrip(t *testing.T) {
	matrix(t, func(t *testing.T, seed uint64, sc *chaos.Scenario) {
		_, want := runDays(t, seed, sc, []int{0})
		doc, err := core.ParseDocument(bytes.NewReader(want[0]))
		if err != nil {
			t.Fatal(err)
		}
		var again bytes.Buffer
		if err := doc.WriteJSON(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want[0], again.Bytes()) {
			t.Fatal("WriteJSON → ParseDocument → WriteJSON is not byte-identical")
		}
		if doc.ProbesAnycastStage <= 0 || doc.ProbesGCDStage <= 0 {
			t.Fatalf("published census lacks R3 cost accounting: %+v", doc)
		}
	})
}
