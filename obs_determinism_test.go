package laces_test

import (
	"bytes"
	"testing"

	"github.com/laces-project/laces/internal/chaos"
	"github.com/laces-project/laces/internal/core"
	"github.com/laces-project/laces/internal/netsim"
	"github.com/laces-project/laces/internal/obs"
	"github.com/laces-project/laces/internal/platform"
)

// obsCensusBytes runs one day-0 census on w instrumented with reg (nil:
// bare) at the given parallelism and returns the published document's
// canonical bytes. It leaves w detached.
func obsCensusBytes(t *testing.T, w *netsim.World, sc *chaos.Scenario, parallelism int, reg *obs.Registry) []byte {
	t.Helper()
	w.Instrument(reg)
	defer w.Instrument(nil)
	dep, err := platform.Tangled(w, netsim.PolicyUnmodified)
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := core.NewPipeline(w, core.Config{
		Deployment: dep,
		GCDVPs: func(day int, v6 bool) ([]netsim.VP, error) {
			return platform.Ark(w, day, v6)
		},
		Parallelism: parallelism,
	})
	if err != nil {
		t.Fatal(err)
	}
	c, err := pipe.RunDaily(0, false, core.DayOptions{Chaos: sc})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := c.Document().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestObsDoesNotPerturbCensus is the telemetry determinism guard:
// the published census document must be byte-identical with telemetry
// enabled (registry plus netsim probe accounting, and again with
// distributed tracing plus the flight recorder on top) and disabled,
// across seeds, chaos scenarios, and sequential vs fully parallel
// stages. Observation must never feed back into measurement.
func TestObsDoesNotPerturbCensus(t *testing.T) {
	lossy, ok := chaos.Lookup(chaos.ScenarioLossyTransit)
	if !ok {
		t.Fatal("lossy-transit scenario missing")
	}
	flap, ok := chaos.Lookup(chaos.ScenarioFlappingUpstream)
	if !ok {
		t.Fatal("flapping-upstream scenario missing")
	}
	scenarios := []struct {
		name string
		sc   *chaos.Scenario
	}{
		{"lossy-transit", &lossy},
		{"flapping-upstream", &flap},
	}
	for _, seed := range []uint64{1, 0xbeef} {
		cfg := netsim.TestConfig()
		cfg.Seed = seed
		w, err := netsim.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range scenarios {
			for _, parallelism := range []int{1, 0} {
				bare := obsCensusBytes(t, w, tc.sc, parallelism, nil)

				reg := obs.New()
				instrumented := obsCensusBytes(t, w, tc.sc, parallelism, reg)

				if !bytes.Equal(bare, instrumented) {
					t.Errorf("seed %#x %s parallelism=%d: census bytes differ with telemetry on (%d vs %d bytes)",
						seed, tc.name, parallelism, len(bare), len(instrumented))
				}
				if reg.NumSeries() == 0 {
					t.Errorf("seed %#x %s parallelism=%d: instrumented run registered no series",
						seed, tc.name, parallelism)
				}

				// Third variant: distributed tracing and the flight
				// recorder on top of full telemetry. Spans and flight
				// events are observation too — same byte-identity bar.
				traced := obs.New()
				traced.SetTraceComponent("census")
				traced.EnableFlight("census", 1024)
				withTrace := obsCensusBytes(t, w, tc.sc, parallelism, traced)

				if !bytes.Equal(bare, withTrace) {
					t.Errorf("seed %#x %s parallelism=%d: census bytes differ with tracing on (%d vs %d bytes)",
						seed, tc.name, parallelism, len(bare), len(withTrace))
				}
				if len(traced.TraceSpans()) == 0 {
					t.Errorf("seed %#x %s parallelism=%d: traced run recorded no spans",
						seed, tc.name, parallelism)
				}
				if traced.Flight().Total() == 0 {
					t.Errorf("seed %#x %s parallelism=%d: chaos run recorded no flight events",
						seed, tc.name, parallelism)
				}
			}
		}
	}
}
