package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestTraceAssembly pins the single-process trace lifecycle: mint, join
// from a propagated context, child spans, attributes, component
// stamping and trace-ID filtering.
func TestTraceAssembly(t *testing.T) {
	r := New()
	r.SetTraceComponent("cli")
	root := r.StartTrace("measure")
	if root.Context() == nil || !root.Context().Valid() {
		t.Fatal("minted trace has no valid context")
	}
	child := root.Child("send")
	child.SetAttr("targets", "100")
	child.SetAttr("targets", "200") // later write wins
	child.End()
	root.End()
	root.End() // double End records once

	// A second component joins via the propagated context.
	r2 := New()
	r2.SetTraceComponent("orchestrator")
	joined := r2.JoinTrace(root.Context(), "orchestrator/measurement")
	joined.End()

	spans := r.TraceSpans()
	if len(spans) != 2 {
		t.Fatalf("cli recorded %d spans, want 2", len(spans))
	}
	if spans[0].Name != "send" || spans[0].Parent != root.Context().SpanID {
		t.Fatalf("child span wrong: %+v", spans[0])
	}
	if len(spans[0].Attrs) != 1 || spans[0].Attrs[0].Value != "200" {
		t.Fatalf("attr overwrite failed: %+v", spans[0].Attrs)
	}
	if spans[0].Component != "cli" || spans[1].Component != "cli" {
		t.Fatalf("component not stamped: %+v", spans)
	}

	remote := r2.TraceSpans()
	if len(remote) != 1 || remote[0].TraceID != root.Context().TraceID {
		t.Fatalf("joined span did not keep the trace ID: %+v", remote)
	}
	if remote[0].Parent != root.Context().SpanID {
		t.Fatalf("joined span parent = %x, want %x", remote[0].Parent, root.Context().SpanID)
	}

	// Ingesting the remote batch assembles the cross-process trace.
	r.IngestTraceSpans(remote)
	got := r.TraceSpansFor(root.Context().TraceID)
	if len(got) != 3 {
		t.Fatalf("assembled trace has %d spans, want 3", len(got))
	}
	// A nil/zero context joins as a fresh trace rather than trace 0.
	fresh := r.JoinTrace(nil, "standalone")
	if fresh.Context().TraceID == 0 || fresh.Context().TraceID == root.Context().TraceID {
		t.Fatalf("nil-context join minted trace %x", fresh.Context().TraceID)
	}
	fresh.End()
}

// TestTraceIDsUnique pins that minted IDs are non-zero and distinct
// under concurrency.
func TestTraceIDsUnique(t *testing.T) {
	const n = 2000
	ids := make(chan uint64, 4*n)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				ids <- newID()
			}
		}()
	}
	wg.Wait()
	close(ids)
	seen := make(map[uint64]bool, 4*n)
	for id := range ids {
		if id == 0 {
			t.Fatal("minted zero ID")
		}
		if seen[id] {
			t.Fatalf("duplicate ID %x", id)
		}
		seen[id] = true
	}
}

// TestFlightRecorderRing pins the ring semantics: bounded retention,
// oldest-first snapshots, wrap counting.
func TestFlightRecorderRing(t *testing.T) {
	rec := NewRecorder("worker-a", 16)
	tc := &TraceContext{TraceID: 7, SpanID: 9}
	for i := 0; i < 20; i++ {
		rec.Record("frame_rx", fmt.Sprintf("ev%d", i), tc, int64(i))
	}
	if rec.Total() != 20 || rec.Dropped() != 4 {
		t.Fatalf("total=%d dropped=%d, want 20/4", rec.Total(), rec.Dropped())
	}
	evs := rec.Snapshot()
	if len(evs) != 16 {
		t.Fatalf("retained %d events, want 16", len(evs))
	}
	if evs[0].Name != "ev4" || evs[15].Name != "ev19" {
		t.Fatalf("ring order wrong: first=%s last=%s", evs[0].Name, evs[15].Name)
	}
	if evs[0].Component != "worker-a" || evs[0].TraceID != 7 || evs[0].SpanID != 9 {
		t.Fatalf("event fields wrong: %+v", evs[0])
	}
	var buf bytes.Buffer
	if err := rec.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(buf.String(), "\n"); n != 16 {
		t.Fatalf("JSONL dump has %d lines, want 16", n)
	}
}

// TestFlightRecorderConcurrent exercises the lock-free record path from
// many goroutines (the CI race job runs this under -race).
func TestFlightRecorderConcurrent(t *testing.T) {
	r := New()
	rec := r.EnableFlight("orchestrator", 64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.Flight().Record("frame_tx", "Targets", nil, int64(i))
			}
		}(g)
	}
	wg.Wait()
	if rec.Total() != 4000 {
		t.Fatalf("total = %d, want 4000", rec.Total())
	}
	if got := len(rec.Snapshot()); got != 64 {
		t.Fatalf("snapshot = %d events, want 64", got)
	}
	if rec.Dropped() != 4000-64 {
		t.Fatalf("dropped = %d, want %d", rec.Dropped(), 4000-64)
	}
}

// TestDropCountsPublished pins satellite telemetry: the bounded-log
// drop counts appear in both the Prometheus exposition and Snapshot.
func TestDropCountsPublished(t *testing.T) {
	r := New()
	// Overflow the trace log in one batch, the flight ring by four.
	batch := make([]TraceSpan, maxTraceSpans+3)
	for i := range batch {
		batch[i] = TraceSpan{TraceID: 1, SpanID: uint64(i + 1), Name: "s"}
	}
	r.IngestTraceSpans(batch)
	r.EnableFlight("cli", 16)
	for i := 0; i < 20; i++ {
		r.Flight().Record("k", "", nil, 0)
	}
	if r.TraceDropped() != 3 || r.FlightDropped() != 4 {
		t.Fatalf("drops = %d/%d", r.TraceDropped(), r.FlightDropped())
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"laces_obs_trace_spans_dropped_total 3",
		"laces_obs_flight_events_dropped_total 4",
	} {
		if !strings.Contains(buf.String(), want+"\n") {
			t.Fatalf("exposition missing %q:\n%s", want, buf.String())
		}
	}
	snap := r.Snapshot()
	byName := map[string]float64{}
	for _, m := range snap.Metrics {
		byName[m.Name] = m.Value
	}
	if byName["laces_obs_trace_spans_dropped_total"] != 3 || byName["laces_obs_flight_events_dropped_total"] != 4 {
		t.Fatalf("snapshot drop counters wrong: %+v", byName)
	}
}

// goldenExport is a fixed-timestamp export used by the JSONL and
// Perfetto golden tests.
func goldenExport() *TraceExport {
	t0 := time.Date(2025, 6, 1, 12, 0, 0, 0, time.UTC)
	return &TraceExport{
		Spans: []TraceSpan{
			{TraceID: 0xabc, SpanID: 1, Component: "cli", Name: "measure", Start: t0, Seconds: 1.5},
			{TraceID: 0xabc, SpanID: 2, Parent: 1, Component: "orchestrator", Name: "orchestrator/measurement",
				Start: t0.Add(10 * time.Millisecond), Seconds: 1.2, Attrs: []Label{L("measurement", "m1")}},
			{TraceID: 0xabc, SpanID: 3, Parent: 2, Component: "worker-a", Name: "worker/measure",
				Start: t0.Add(20 * time.Millisecond), Seconds: 1.0, Attrs: []Label{L("sent", "42")}},
		},
		Events: []FlightEvent{
			{At: t0.Add(5 * time.Millisecond), Component: "orchestrator", Kind: "frame_tx",
				Name: "Start", TraceID: 0xabc, SpanID: 2, N: 64},
		},
	}
}

// TestTraceJSONLRoundTrip pins the JSONL framing: write, read back,
// merge.
func TestTraceJSONLRoundTrip(t *testing.T) {
	ex := goldenExport()
	var buf bytes.Buffer
	if err := ex.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(buf.String(), "\n"); n != 4 {
		t.Fatalf("JSONL has %d lines, want 4", n)
	}
	back, err := ReadTraceJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Spans) != 3 || len(back.Events) != 1 {
		t.Fatalf("round trip = %d spans / %d events", len(back.Spans), len(back.Events))
	}
	if back.Spans[2].Attrs[0].Value != "42" || !back.Spans[0].Start.Equal(ex.Spans[0].Start) {
		t.Fatalf("round trip mangled spans: %+v", back.Spans)
	}
	merged := MergeTraces(back, goldenExport(), nil)
	if len(merged.Spans) != 6 || len(merged.Events) != 2 {
		t.Fatalf("merge = %d spans / %d events", len(merged.Spans), len(merged.Events))
	}
}

// TestChromeExportGolden pins the Perfetto-loadable trace_event output
// byte-for-byte against testdata/trace_golden.json, plus structural
// properties a viewer depends on.
func TestChromeExportGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenExport().WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "trace_golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("chrome export deviates from golden:\ngot:  %s\nwant: %s", buf.Bytes(), want)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v", err)
	}
	// 3 process_name metadata + 3 complete spans + 1 instant.
	if len(doc.TraceEvents) != 7 {
		t.Fatalf("chrome export has %d events, want 7", len(doc.TraceEvents))
	}
	phases := map[string]int{}
	for _, ev := range doc.TraceEvents {
		phases[ev["ph"].(string)]++
	}
	if phases["M"] != 3 || phases["X"] != 3 || phases["i"] != 1 {
		t.Fatalf("phase counts = %v", phases)
	}
}

// TestTraceDisabledPathAllocs pins the zero-alloc contract of the
// disabled tracing path: nil registry, nil recorder, nil spans.
func TestTraceDisabledPathAllocs(t *testing.T) {
	var r *Registry
	var rec *Recorder
	tc := &TraceContext{TraceID: 1, SpanID: 2}
	if n := testing.AllocsPerRun(200, func() {
		sp := r.StartTrace("x")
		sp.SetAttr("a", "b")
		ch := sp.Child("y")
		_ = ch.Context()
		ch.End()
		sp.End()
		r.JoinTrace(tc, "z").End()
		rec.Record("k", "n", tc, 1)
		r.Flight().Record("k", "n", nil, 0)
		r.IngestTraceSpans(nil)
	}); n != 0 {
		t.Fatalf("disabled tracing allocates %.1f objects/op, want 0", n)
	}
}

// BenchmarkTraceEventRing measures the contended flight-recorder record
// path — the cost every frame send/recv pays when tracing is on.
func BenchmarkTraceEventRing(b *testing.B) {
	rec := NewRecorder("bench", 4096)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		tc := &TraceContext{TraceID: 1, SpanID: 2}
		for pb.Next() {
			rec.Record("frame_rx", "Targets", tc, 512)
		}
	})
}
