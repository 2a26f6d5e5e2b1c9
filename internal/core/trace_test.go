package core

import (
	"bytes"
	"reflect"
	"sort"
	"strings"
	"testing"

	"github.com/laces-project/laces/internal/budget"
	"github.com/laces-project/laces/internal/netsim"
	"github.com/laces-project/laces/internal/obs"
	"github.com/laces-project/laces/internal/platform"
)

// obsPipeline builds a fresh pipeline on a fresh test world (lazily
// derived when lazy is set) with the CHAOS stage on and the given
// registry attached.
func obsPipeline(t *testing.T, parallelism int, lazy bool, cfg Config) *Pipeline {
	t.Helper()
	wcfg := netsim.TestConfig()
	wcfg.LazyTargets = lazy
	w, err := netsim.New(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	dep, err := platform.Tangled(w, netsim.PolicyUnmodified)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Deployment = dep
	cfg.GCDVPs = func(day int, v6 bool) ([]netsim.VP, error) { return platform.Ark(w, day, v6) }
	cfg.Parallelism = parallelism
	pipe, err := NewPipeline(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return pipe
}

// TestCensusSpansFormOneTreePerDay is the span model's property: whatever
// the parallelism and the world's derivation mode, the spans a registry
// exports after n RunDaily calls are exactly n trees of four levels — one
// parentless census span per run that starts no later than anything under
// it; under it the day's phases, exactly and in order; under detect
// and confirm their stage spans; under each stage its shard
// spans — every span carrying its run's non-zero trace ID and no parent
// missing, so the ancestor chain of every stage and shard ends at census.
func TestCensusSpansFormOneTreePerDay(t *testing.T) {
	wantPhases := []string{"hitlist", "detect", "feedback", "confirm", "screen", "publish"}
	stagePhases := map[string]bool{"detect": true, "confirm": true}
	for _, tc := range []struct {
		parallelism int
		lazy        bool
	}{{1, false}, {4, true}} {
		reg := obs.New()
		pipe := obsPipeline(t, tc.parallelism, tc.lazy, Config{Obs: reg, ConfirmGlobalBGP: true})
		const days = 2
		for day := 0; day < days; day++ {
			if _, err := pipe.RunDaily(day, false, DayOptions{}); err != nil {
				t.Fatal(err)
			}
		}

		spans := reg.ExportTrace().Spans
		byID := make(map[uint64]obs.TraceSpan, len(spans))
		for _, sp := range spans {
			if sp.TraceID == 0 || sp.SpanID == 0 {
				t.Fatalf("%+v: span %q has a zero ID: %+v", tc, sp.Name, sp)
			}
			if _, dup := byID[sp.SpanID]; dup {
				t.Fatalf("%+v: span ID %x recorded twice", tc, sp.SpanID)
			}
			byID[sp.SpanID] = sp
		}
		// depth walks a span's ancestor chain to its parentless root.
		depth := func(sp obs.TraceSpan) (int, obs.TraceSpan) {
			n := 0
			for sp.Parent != 0 {
				parent, ok := byID[sp.Parent]
				if !ok {
					t.Fatalf("%+v: span %q names a parent that was never recorded", tc, sp.Name)
				}
				if parent.TraceID != sp.TraceID {
					t.Fatalf("%+v: span %q and its parent %q are in different traces", tc, sp.Name, parent.Name)
				}
				sp, n = parent, n+1
			}
			return n, sp
		}
		roots := map[uint64]bool{}             // trace IDs with a census root
		phases := map[uint64][]obs.TraceSpan{} // trace ID → its census span's children
		stages, shards := 0, 0
		widest := map[uint64]int{} // stage span → shard children
		for _, sp := range spans {
			d, root := depth(sp)
			if root.Name != "census" {
				t.Fatalf("%+v: span %q hangs under the parentless span %q, want only census roots", tc, sp.Name, root.Name)
			}
			if sp.Start.Before(root.Start) {
				t.Fatalf("%+v: span %q starts before its census span", tc, sp.Name)
			}
			isShard := strings.HasPrefix(sp.Name, "shard")
			switch d {
			case 0:
				if roots[sp.TraceID] {
					t.Fatalf("%+v: trace %x has two roots", tc, sp.TraceID)
				}
				roots[sp.TraceID] = true
			case 1:
				phases[sp.TraceID] = append(phases[sp.TraceID], sp)
			case 2:
				stages++
				if phase := byID[sp.Parent].Name; isShard || !stagePhases[phase] {
					t.Fatalf("%+v: span %q under phase %q is not a stage span", tc, sp.Name, phase)
				}
			case 3:
				shards++
				widest[sp.Parent]++
				if !isShard {
					t.Fatalf("%+v: span %q under stage %q is not a shard span", tc, sp.Name, byID[sp.Parent].Name)
				}
			default:
				t.Fatalf("%+v: span %q sits below a shard span", tc, sp.Name)
			}
		}
		if len(roots) != days {
			t.Fatalf("%+v: %d census trees for %d RunDaily calls", tc, len(roots), days)
		}
		for trace, got := range phases {
			sort.SliceStable(got, func(i, j int) bool { return got[i].Start.Before(got[j].Start) })
			var names []string
			for _, sp := range got {
				names = append(names, sp.Name)
			}
			if !reflect.DeepEqual(names, wantPhases) {
				t.Fatalf("%+v: trace %x has phases %v, want %v", tc, trace, names, wantPhases)
			}
		}
		// Three anycast stages, at least one GCD stage and the CHAOS
		// stage per day, each with at least one shard.
		if stages < 5*days || shards < stages {
			t.Fatalf("%+v: %d stage / %d shard spans over %d days", tc, stages, shards, days)
		}
		most := 0
		for _, n := range widest {
			most = max(most, n)
		}
		if most != tc.parallelism {
			t.Fatalf("%+v: widest stage has %d shard spans", tc, most)
		}
	}
}

// TestReconcileMismatchRecordedOnce forces the ledger-identity failure
// path and pins that a plain registry — no EnableFlight, no tracing flag
// — carries the event exactly once into its Snapshot, linked to the
// census trace, and that the flight dump fires.
func TestReconcileMismatchRecordedOnce(t *testing.T) {
	reg := obs.New()
	var sink bytes.Buffer
	pipe := obsPipeline(t, 1, false, Config{Obs: reg, FlightSink: &sink})
	censusSpan := reg.StartTrace("census")
	pipe.reportMismatch(censusSpan, 3, budget.Usage{Demanded: 10, Spent: 5, Skipped: 2})
	censusSpan.End()

	var got []obs.FlightEvent
	for _, ev := range reg.Snapshot().Events {
		if ev.Kind == "reconcile_mismatch" {
			got = append(got, ev)
		}
	}
	if len(got) != 1 {
		t.Fatalf("reconcile_mismatch recorded %d times, want once: %+v", len(got), got)
	}
	ev := got[0]
	if ev.N != 3 || ev.TraceID != censusSpan.Context().TraceID || ev.SpanID != censusSpan.Context().SpanID {
		t.Fatalf("event not linked to the census span or wrong shortfall: %+v", ev)
	}
	want := []obs.Label{obs.L("day", "3"), obs.L("demanded", "10"), obs.L("spent", "5"), obs.L("skipped", "2")}
	if len(ev.Fields) != len(want) {
		t.Fatalf("event fields = %+v, want %+v", ev.Fields, want)
	}
	for i := range want {
		if ev.Fields[i] != want[i] {
			t.Fatalf("event field %d = %+v, want %+v", i, ev.Fields[i], want[i])
		}
	}
	if !strings.Contains(sink.String(), `"kind":"flight_dump"`) || !strings.Contains(sink.String(), `"kind":"reconcile_mismatch"`) {
		t.Fatalf("flight dump missing the trigger or its marker:\n%s", sink.String())
	}
}
