package query_test

// The query engine's determinism contract, pinned against the real
// pipeline: for every (seed, chaos scenario) pair, building the
// timeline index is byte-stable (two builds → identical files), the
// serialized query answers are byte-stable across independent builds,
// and every index-answered timeline matches the brute-force answer
// decoded from the documents themselves.

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"github.com/laces-project/laces/internal/archive"
	"github.com/laces-project/laces/internal/chaos"
	"github.com/laces-project/laces/internal/core"
	"github.com/laces-project/laces/internal/netsim"
	"github.com/laces-project/laces/internal/platform"
	"github.com/laces-project/laces/internal/query"
)

// runArchive executes a short census run under a scenario and packs it.
func runArchive(t *testing.T, seed uint64, sc *chaos.Scenario, days int) (string, []*core.Document) {
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
	dir := t.TempDir()
	aw, err := archive.Create(dir, archive.Options{SnapshotEvery: 3})
	if err != nil {
		t.Fatal(err)
	}
	var docs []*core.Document
	for day := 0; day < days; day++ {
		c, err := pipe.RunDaily(day, false, core.DayOptions{Chaos: sc})
		if err != nil {
			t.Fatal(err)
		}
		doc := c.Document()
		if err := aw.Append(day, doc); err != nil {
			t.Fatal(err)
		}
		docs = append(docs, doc)
	}
	if err := aw.Close(); err != nil {
		t.Fatal(err)
	}
	return dir, docs
}

// matrix crosses seeds with clean and impaired scenarios.
func matrix(t *testing.T, fn func(t *testing.T, seed uint64, sc *chaos.Scenario)) {
	scenarios := []struct {
		name string
		sc   *chaos.Scenario
	}{{"clean", nil}}
	for _, name := range []string{chaos.ScenarioLossyTransit, chaos.ScenarioFlappingUpstream} {
		sc, ok := chaos.Lookup(name)
		if !ok {
			t.Fatalf("scenario %q missing", name)
		}
		scenarios = append(scenarios, struct {
			name string
			sc   *chaos.Scenario
		}{name, &sc})
	}
	for _, seed := range []uint64{1, 1031} {
		for _, s := range scenarios {
			seed, sc := seed, s.sc
			t.Run(s.name+"/seed="+string(rune('0'+seed%10)), func(t *testing.T) {
				fn(t, seed, sc)
			})
		}
	}
}

// TestIndexByteStableAcrossSeedsAndScenarios: same archive → same
// index bytes, and the JSON forms of Events / Series / Stability are
// identical across two independently built and opened indexes.
func TestIndexByteStableAcrossSeedsAndScenarios(t *testing.T) {
	matrix(t, func(t *testing.T, seed uint64, sc *chaos.Scenario) {
		dir, docs := runArchive(t, seed, sc, 4)
		a, err := archive.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		p1 := filepath.Join(dir, query.IndexFileName)
		p2 := filepath.Join(t.TempDir(), "rebuild.idx")
		if _, err := query.Build(a, p1); err != nil {
			t.Fatal(err)
		}
		if _, err := query.Build(a, p2); err != nil {
			t.Fatal(err)
		}
		b1, err := os.ReadFile(p1)
		if err != nil {
			t.Fatal(err)
		}
		b2, err := os.ReadFile(p2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b1, b2) {
			t.Fatal("rebuilding the index from the same archive changed its bytes")
		}

		ix1, err := query.Open(p1)
		if err != nil {
			t.Fatal(err)
		}
		defer ix1.Close()
		ix2, err := query.Open(p2)
		if err != nil {
			t.Fatal(err)
		}
		defer ix2.Close()

		for _, probe := range []func(ix *query.Index) (any, error){
			func(ix *query.Index) (any, error) { return ix.Events("ipv4", nil, 0, -1, query.EventOptions{}) },
			func(ix *query.Index) (any, error) { return ix.Series("ipv4") },
			func(ix *query.Index) (any, error) {
				return ix.Stability("ipv4", ix.Prefixes("ipv4")[0])
			},
		} {
			v1, err := probe(ix1)
			if err != nil {
				t.Fatal(err)
			}
			v2, err := probe(ix2)
			if err != nil {
				t.Fatal(err)
			}
			j1, err := json.Marshal(v1)
			if err != nil {
				t.Fatal(err)
			}
			j2, err := json.Marshal(v2)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(j1, j2) {
				t.Fatalf("query answers diverge across independent builds:\n%s\nvs\n%s", j1, j2)
			}
		}

		// Cross-validate timelines against the documents.
		validateTimelines(t, ix1, docs)
	})
}

// TestStabilityCountsTheEvents: every prefix's Stability counts —
// onsets, offsets, flaps, site changes and geo shifts — are the counts
// of that prefix's events in the family's full-history Events list, for
// every (seed, scenario) pair over ten days, and across the matrix every
// kind occurs.
func TestStabilityCountsTheEvents(t *testing.T) {
	seen := make(map[query.EventKind]int)
	matrix(t, func(t *testing.T, seed uint64, sc *chaos.Scenario) {
		dir, _ := runArchive(t, seed, sc, 10)
		if _, err := query.BuildDir(dir); err != nil {
			t.Fatal(err)
		}
		ix, err := query.Open(filepath.Join(dir, query.IndexFileName))
		if err != nil {
			t.Fatal(err)
		}
		defer ix.Close()
		events, err := ix.Events("ipv4", nil, 0, -1, query.EventOptions{})
		if err != nil {
			t.Fatal(err)
		}
		counts := make(map[string]map[query.EventKind]int)
		for _, e := range events {
			if counts[e.Prefix] == nil {
				counts[e.Prefix] = make(map[query.EventKind]int)
			}
			counts[e.Prefix][e.Kind]++
			seen[e.Kind]++
		}
		for _, p := range ix.Prefixes("ipv4") {
			st, err := ix.Stability("ipv4", p)
			if err != nil {
				t.Fatal(err)
			}
			c := counts[p]
			got := [...]int{st.Onsets, st.Offsets, st.Flaps, st.SiteChanges, st.GeoShifts}
			want := [...]int{c[query.EventOnset], c[query.EventOffset], c[query.EventFlap], c[query.EventSiteChurn], c[query.EventGeoShift]}
			if got != want {
				t.Fatalf("%s: Stability counts onsets, offsets, flaps, site changes, geo shifts %v; the events %v", p, got, want)
			}
		}
	})
	for _, k := range query.EventKinds() {
		if seen[k] == 0 {
			t.Errorf("no %s event in the matrix: the property holds vacuously for it", k)
		}
	}
}

// TestResumeEqualsScratchAcrossSeedsAndScenarios runs the resumed ≡
// from-scratch property (resume_test.go) on real pipeline output: for
// every (seed, scenario) pair and every split of the run, extending the
// committed index day by day, or in one jump, writes the bytes a full
// build writes.
func TestResumeEqualsScratchAcrossSeedsAndScenarios(t *testing.T) {
	matrix(t, func(t *testing.T, seed uint64, sc *chaos.Scenario) {
		_, docs := runArchive(t, seed, sc, 4)
		days := make([]query.DayDoc, len(docs))
		for d, doc := range docs {
			days[d] = query.DayDoc{Day: d, Doc: doc}
		}
		query.CheckResumeEqualsScratch(t, days)
	})
}

// TestIndexIsCadenceIndependentOnPipelineOutput runs the snapshot-cadence
// property (resume_test.go) on one seed's real pipeline output.
func TestIndexIsCadenceIndependentOnPipelineOutput(t *testing.T) {
	_, docs := runArchive(t, 1, nil, 4)
	days := make([]query.DayDoc, len(docs))
	for d, doc := range docs {
		days[d] = query.DayDoc{Day: d, Doc: doc}
	}
	query.CheckCadenceIndependent(t, days)
}

// validateTimelines checks every indexed prefix against the documents.
func validateTimelines(t *testing.T, ix *query.Index, docs []*core.Document) {
	t.Helper()
	byDay := make([]map[string]*core.DocumentEntry, len(docs))
	for d, doc := range docs {
		byDay[d] = make(map[string]*core.DocumentEntry, len(doc.Entries))
		for i := range doc.Entries {
			byDay[d][doc.Entries[i].Prefix] = &doc.Entries[i]
		}
	}
	for _, p := range ix.Prefixes("ipv4") {
		tl, err := ix.Timeline("ipv4", p)
		if err != nil {
			t.Fatal(err)
		}
		if len(tl.Days) != len(docs) {
			t.Fatalf("%s: timeline spans %d days, archive has %d", p, len(tl.Days), len(docs))
		}
		for d := range docs {
			e := byDay[d][p]
			if (e != nil) != tl.Present[d] {
				t.Fatalf("%s day %d: presence bit %v, document says %v", p, d, tl.Present[d], e != nil)
			}
			if e == nil {
				continue
			}
			if tl.GCDAnycast[d] != e.GCDAnycast || tl.Sites[d] != e.GCDSites ||
				tl.Receivers[d] != e.MaxReceivers || tl.VPs[d] != e.GCDVPs ||
				tl.AnycastBased[d] != (len(e.ACProtocols) > 0) {
				t.Fatalf("%s day %d: timeline columns diverge from the document entry", p, d)
			}
		}
	}
}
