package core

import (
	"bytes"
	"testing"

	"github.com/laces-project/laces/internal/chaos"
	"github.com/laces-project/laces/internal/netsim"
	"github.com/laces-project/laces/internal/platform"
)

// runCensusAt builds a fresh pipeline on w with the given parallelism and
// runs the day-0 census under the scenario, returning the census and its
// published JSON bytes.
func runCensusAt(t *testing.T, w *netsim.World, parallelism int, sc *chaos.Scenario) (*DailyCensus, []byte) {
	t.Helper()
	dep, err := platform.Tangled(w, netsim.PolicyUnmodified)
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := NewPipeline(w, Config{
		Deployment:  dep,
		GCDVPs:      func(day int, v6 bool) ([]netsim.VP, error) { return platform.Ark(w, day, v6) },
		Parallelism: parallelism,
	})
	if err != nil {
		t.Fatal(err)
	}
	c, err := pipe.RunDaily(0, false, DayOptions{Chaos: sc})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := c.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return c, buf.Bytes()
}

// compareCensuses asserts the parallel census is byte-identical to the
// sequential one: the published JSON document plus every counter the
// document omits (probe-cost accounting and alerts).
func compareCensuses(t *testing.T, label string, seq, par *DailyCensus, seqJSON, parJSON []byte) {
	t.Helper()
	if !bytes.Equal(seqJSON, parJSON) {
		t.Fatalf("%s: parallel census JSON differs from sequential (seq %d bytes, par %d bytes)",
			label, len(seqJSON), len(parJSON))
	}
	if seq.ProbesAnycastStage != par.ProbesAnycastStage {
		t.Fatalf("%s: anycast-stage probes %d (seq) vs %d (par)",
			label, seq.ProbesAnycastStage, par.ProbesAnycastStage)
	}
	if seq.ProbesGCDStage != par.ProbesGCDStage {
		t.Fatalf("%s: GCD-stage probes %d (seq) vs %d (par)",
			label, seq.ProbesGCDStage, par.ProbesGCDStage)
	}
	if seq.Workers != par.Workers {
		t.Fatalf("%s: workers %d (seq) vs %d (par)", label, seq.Workers, par.Workers)
	}
	if len(seq.Alerts) != len(par.Alerts) {
		t.Fatalf("%s: alerts %v (seq) vs %v (par)", label, seq.Alerts, par.Alerts)
	}
}

// TestParallelCensusDeterminism is the engine's core guarantee: for the
// same (seed, scenario) inputs the parallel census is byte-for-byte
// identical to the sequential one — across seeds (the routing model is a
// pure function of the seed) and across chaos scenarios (impairments are
// pure functions of seed and probe identity, so fault injection commutes
// with sharding).
func TestParallelCensusDeterminism(t *testing.T) {
	lossy, ok := chaos.Lookup(chaos.ScenarioLossyTransit)
	if !ok {
		t.Fatal("lossy-transit scenario missing")
	}
	flap, ok := chaos.Lookup(chaos.ScenarioFlappingUpstream)
	if !ok {
		t.Fatal("flapping-upstream scenario missing")
	}

	for _, seed := range []uint64{1, 0xdead, 987654321} {
		cfg := netsim.TestConfig()
		cfg.Seed = seed
		w, err := netsim.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		scenarios := []struct {
			name string
			sc   *chaos.Scenario
		}{{"clean", nil}}
		// The chaos cross-product only on the first seed keeps the test
		// within a few seconds while still covering ≥3 seeds and ≥2
		// scenarios.
		if seed == 1 {
			scenarios = append(scenarios,
				struct {
					name string
					sc   *chaos.Scenario
				}{"lossy-transit", &lossy},
				struct {
					name string
					sc   *chaos.Scenario
				}{"flapping-upstream", &flap},
			)
		}
		for _, tc := range scenarios {
			label := tc.name
			seqC, seqJSON := runCensusAt(t, w, 1, tc.sc)
			parC, parJSON := runCensusAt(t, w, 0, tc.sc)
			compareCensuses(t, label, seqC, parC, seqJSON, parJSON)
			// Odd worker counts exercise uneven shard boundaries.
			par3C, par3JSON := runCensusAt(t, w, 3, tc.sc)
			compareCensuses(t, label+"/3-workers", seqC, par3C, seqJSON, par3JSON)
		}
	}
}

// TestWorkersCountIgnoresBogusMissingEntries is the measurement-accounting
// bugfix: out-of-range site indices in a SiteOutage's Workers scope must
// not reduce the participant count (previously they fired spurious
// AlertFewWorkers).
func TestWorkersCountIgnoresBogusMissingEntries(t *testing.T) {
	w, err := netsim.New(netsim.TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	dep, err := platform.Tangled(w, netsim.PolicyUnmodified)
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := NewPipeline(w, Config{
		Deployment: dep,
		GCDVPs:     func(day int, v6 bool) ([]netsim.VP, error) { return platform.Ark(w, day, v6) },
	})
	if err != nil {
		t.Fatal(err)
	}
	// Two out-of-range indices plus one genuine outage: only the genuine
	// one may count.
	c, err := pipe.RunDaily(0, false, siteOutage(999, -1, 5))
	if err != nil {
		t.Fatal(err)
	}
	if want := dep.NumSites() - 1; c.Workers != want {
		t.Fatalf("workers = %d, want %d", c.Workers, want)
	}

	// An all-bogus scope is a fully clean day: full participation, no
	// few-workers alert, and byte-identical output to no plan at all.
	pipeClean, err := NewPipeline(w, Config{
		Deployment: dep,
		GCDVPs:     func(day int, v6 bool) ([]netsim.VP, error) { return platform.Ark(w, day, v6) },
	})
	if err != nil {
		t.Fatal(err)
	}
	clean, err := pipeClean.RunDaily(0, false, DayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pipeBogus, err := NewPipeline(w, Config{
		Deployment: dep,
		GCDVPs:     func(day int, v6 bool) ([]netsim.VP, error) { return platform.Ark(w, day, v6) },
	})
	if err != nil {
		t.Fatal(err)
	}
	bogus, err := pipeBogus.RunDaily(0, false, siteOutage(999, -1))
	if err != nil {
		t.Fatal(err)
	}
	if bogus.Workers != dep.NumSites() {
		t.Fatalf("bogus-scope workers = %d, want full %d", bogus.Workers, dep.NumSites())
	}
	if bogus.HasAlert(AlertFewWorkers) {
		t.Fatal("bogus site-outage scope fired AlertFewWorkers")
	}
	var cleanJSON, bogusJSON bytes.Buffer
	if err := clean.WriteJSON(&cleanJSON); err != nil {
		t.Fatal(err)
	}
	if err := bogus.WriteJSON(&bogusJSON); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cleanJSON.Bytes(), bogusJSON.Bytes()) {
		t.Fatal("bogus site-outage scope changed the census output")
	}
}

// TestCountGCountM pins the counting helpers to the slice-materialising
// accessors they replace in the monitor hot path.
func TestCountGCountM(t *testing.T) {
	w, err := netsim.New(netsim.TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	c, _ := runCensusAt(t, w, 0, nil)
	if got, want := c.CountG(), len(c.G()); got != want {
		t.Fatalf("CountG = %d, len(G()) = %d", got, want)
	}
	if got, want := c.CountM(), len(c.M()); got != want {
		t.Fatalf("CountM = %d, len(M()) = %d", got, want)
	}
	if c.CountG() == 0 || c.CountM() == 0 {
		t.Fatalf("degenerate census: |G|=%d |M|=%d", c.CountG(), c.CountM())
	}
}
