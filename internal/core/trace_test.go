package core

import (
	"bytes"
	"strings"
	"testing"

	"github.com/laces-project/laces/internal/budget"
	"github.com/laces-project/laces/internal/netsim"
	"github.com/laces-project/laces/internal/obs"
	"github.com/laces-project/laces/internal/platform"
)

// obsPipeline builds a fresh pipeline on a fresh test world with every
// optional stage on and the given registry attached.
func obsPipeline(t *testing.T, parallelism int, cfg Config) *Pipeline {
	t.Helper()
	w, err := netsim.New(netsim.TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	dep, err := platform.Tangled(w, netsim.PolicyUnmodified)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Deployment = dep
	cfg.GCDVPs = func(day int, v6 bool) ([]netsim.VP, error) { return platform.Ark(w, day, v6) }
	cfg.IncludeChaos = true
	cfg.Parallelism = parallelism
	pipe, err := NewPipeline(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return pipe
}

// TestCensusSpansFormOneTreePerDay is the unified span model's property:
// whatever the parallelism, the spans a registry exports after n RunDaily
// calls are exactly n trees — one parentless census span per run, stage
// spans parented on it, shard spans parented on their stage, every span
// carrying its run's non-zero trace ID and no parent missing.
func TestCensusSpansFormOneTreePerDay(t *testing.T) {
	for _, parallelism := range []int{1, 4} {
		reg := obs.New()
		pipe := obsPipeline(t, parallelism, Config{Obs: reg})
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
				t.Fatalf("parallelism=%d: span %q has a zero ID: %+v", parallelism, sp.Name, sp)
			}
			if _, dup := byID[sp.SpanID]; dup {
				t.Fatalf("parallelism=%d: span ID %x recorded twice", parallelism, sp.SpanID)
			}
			byID[sp.SpanID] = sp
		}
		roots := map[uint64]uint64{} // trace ID → its census span
		stages, shards := 0, 0
		widest := map[uint64]int{} // stage span → shard children
		for _, sp := range spans {
			if sp.Parent == 0 {
				if sp.Name != "census" {
					t.Fatalf("parallelism=%d: parentless span %q, want only census roots", parallelism, sp.Name)
				}
				if _, dup := roots[sp.TraceID]; dup {
					t.Fatalf("parallelism=%d: trace %x has two roots", parallelism, sp.TraceID)
				}
				roots[sp.TraceID] = sp.SpanID
				continue
			}
			parent, ok := byID[sp.Parent]
			if !ok {
				t.Fatalf("parallelism=%d: span %q names a parent that was never recorded", parallelism, sp.Name)
			}
			if parent.TraceID != sp.TraceID {
				t.Fatalf("parallelism=%d: span %q and its parent %q are in different traces", parallelism, sp.Name, parent.Name)
			}
			switch {
			case parent.Parent == 0: // child of a census root: a stage
				stages++
				if strings.HasPrefix(sp.Name, "shard") {
					t.Fatalf("parallelism=%d: shard span %q hangs directly off the census span", parallelism, sp.Name)
				}
			case byID[parent.Parent].Parent == 0: // grandchild: a shard
				shards++
				widest[sp.Parent]++
				if !strings.HasPrefix(sp.Name, "shard") {
					t.Fatalf("parallelism=%d: span %q under stage %q is not a shard span", parallelism, sp.Name, parent.Name)
				}
			default:
				t.Fatalf("parallelism=%d: span %q sits below a shard span", parallelism, sp.Name)
			}
		}
		if len(roots) != days {
			t.Fatalf("parallelism=%d: %d census trees for %d RunDaily calls", parallelism, len(roots), days)
		}
		for _, sp := range spans {
			if _, ok := roots[sp.TraceID]; !ok {
				t.Fatalf("parallelism=%d: span %q belongs to a trace with no census root", parallelism, sp.Name)
			}
		}
		// Three anycast stages, at least one GCD stage and the CHAOS
		// stage per day, each with at least one shard.
		if stages < 5*days || shards < stages {
			t.Fatalf("parallelism=%d: %d stage / %d shard spans over %d days", parallelism, stages, shards, days)
		}
		most := 0
		for _, n := range widest {
			most = max(most, n)
		}
		if most != parallelism {
			t.Fatalf("parallelism=%d: widest stage has %d shard spans", parallelism, most)
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
	pipe := obsPipeline(t, 1, Config{Obs: reg, FlightSink: &sink})
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
