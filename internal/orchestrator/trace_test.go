package orchestrator

import (
	"bytes"
	"context"
	"encoding/json"
	"strconv"
	"sync"
	"testing"
	"time"

	"github.com/laces-project/laces/internal/budget"
	"github.com/laces-project/laces/internal/client"
	"github.com/laces-project/laces/internal/netsim"
	"github.com/laces-project/laces/internal/obs"
	"github.com/laces-project/laces/internal/wire"
	"github.com/laces-project/laces/internal/worker"
)

// syncBuffer is a concurrency-safe sink for flight-recorder dumps.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) Bytes() []byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]byte, b.buf.Len())
	copy(out, b.buf.Bytes())
	return out
}

// decodeFlightDump parses a flight-recorder JSONL dump (possibly several
// concatenated dumps).
func decodeFlightDump(t *testing.T, data []byte) []obs.FlightEvent {
	t.Helper()
	var out []obs.FlightEvent
	dec := json.NewDecoder(bytes.NewReader(data))
	for dec.More() {
		var ev obs.FlightEvent
		if err := dec.Decode(&ev); err != nil {
			t.Fatalf("flight dump is not valid JSONL: %v", err)
		}
		out = append(out, ev)
	}
	return out
}

// tracedCluster boots an orchestrator (with registry and flight sink)
// plus n traced workers over loopback TCP. The returned cancel silences
// logging before tearing the cluster down, so disconnect messages from
// draining goroutines cannot land after the test completes.
func tracedCluster(t *testing.T, n int, cfg Config) (*Orchestrator, []*obs.Registry, func(format string, args ...any), context.CancelFunc) {
	t.Helper()
	w := world(t)
	dep, err := w.NewDeployment("trace-"+t.Name(), eightSites[:n], netsim.PolicyUnmodified)
	if err != nil {
		t.Fatal(err)
	}
	var logMu sync.Mutex
	quiet := false
	logf := func(format string, args ...any) {
		logMu.Lock()
		defer logMu.Unlock()
		if !quiet {
			t.Logf(format, args...)
		}
	}
	cfg.Addr = "127.0.0.1:0"
	cfg.Logf = logf
	o, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go o.Serve(ctx)

	regs := make([]*obs.Registry, n)
	for i := 0; i < n; i++ {
		regs[i] = obs.New()
		wk, err := worker.New(worker.Config{
			Name:         eightSites[i],
			Orchestrator: o.Addr(),
			NewProber: func(self int) (worker.Prober, error) {
				return worker.NewSimProber(w, dep, self)
			},
			ReconnectMin: 20 * time.Millisecond,
			Logf:         logf,
			Obs:          regs[i],
		})
		if err != nil {
			t.Fatal(err)
		}
		go wk.Run(ctx)
	}
	deadline := time.Now().Add(5 * time.Second)
	for o.NumWorkers() < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d workers connected", o.NumWorkers(), n)
		}
		time.Sleep(5 * time.Millisecond)
	}
	shutdown := func() {
		logMu.Lock()
		quiet = true
		logMu.Unlock()
		cancel()
	}
	return o, regs, logf, shutdown
}

// TestDistributedTraceAssembly is the acceptance scenario: one
// orchestrator, two workers and a CLI over real sockets produce a
// single merged trace containing spans from all three processes with
// per-worker attribution, exportable as JSONL and Chrome trace_event.
func TestDistributedTraceAssembly(t *testing.T) {
	oReg := obs.New()
	o, _, _, cancel := tracedCluster(t, 2, Config{Obs: oReg})
	defer cancel()
	w := world(t)
	addrs, _, _ := pickTargets(w, 20)

	cliReg := obs.New()
	cli := &client.Client{Addr: o.Addr(), Obs: cliReg}
	ctx, cancelRun := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancelRun()
	out, err := cli.Run(ctx, wire.MeasurementDef{ID: 21, Protocol: "ICMP", OffsetMS: 1000, Rate: 1e6}, addrs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Workers != 2 || len(out.Results) == 0 {
		t.Fatalf("measurement failed: workers=%d results=%d", out.Workers, len(out.Results))
	}

	// After Run the CLI registry holds the assembled cross-process trace.
	spans := cliReg.TraceSpans()
	if len(spans) == 0 {
		t.Fatal("CLI registry holds no trace spans")
	}
	traceID := spans[0].TraceID
	components := map[string]int{}
	workers := map[string]bool{}
	names := map[string]int{}
	for _, sp := range spans {
		if sp.TraceID != traceID {
			t.Fatalf("span %q carries trace %x, want %x — trace did not assemble", sp.Name, sp.TraceID, traceID)
		}
		components[sp.Component]++
		names[sp.Name]++
		if sp.Name == "worker/measure" {
			for _, a := range sp.Attrs {
				if a.Name == "worker" {
					workers[a.Value] = true
				}
			}
		}
	}
	for _, c := range []string{"cli", "orchestrator", "worker-Amsterdam", "worker-New York"} {
		if components[c] == 0 {
			t.Fatalf("no spans from component %q (have %v)", c, components)
		}
	}
	for _, n := range []string{"measure", "orchestrator/measurement", "stream", "aggregate", "worker/measure"} {
		if names[n] == 0 {
			t.Fatalf("span %q missing from assembled trace (have %v)", n, names)
		}
	}
	if names["worker/measure"] != 2 || len(workers) != 2 {
		t.Fatalf("per-worker attribution incomplete: %d worker spans over indices %v", names["worker/measure"], workers)
	}

	// Both export formats round-trip from the same registry.
	ex := cliReg.ExportTrace()
	var jsonl bytes.Buffer
	if err := ex.WriteJSONL(&jsonl); err != nil {
		t.Fatal(err)
	}
	back, err := obs.ReadTraceJSONL(&jsonl)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Spans) != len(ex.Spans) {
		t.Fatalf("JSONL round trip lost spans: %d != %d", len(back.Spans), len(ex.Spans))
	}
	var chrome bytes.Buffer
	if err := ex.WriteChrome(&chrome); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(chrome.Bytes(), &doc); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v", err)
	}
	procs := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		if ev["ph"] == "M" {
			procs[ev["args"].(map[string]any)["name"].(string)] = true
		}
	}
	for _, c := range []string{"cli", "orchestrator", "worker-Amsterdam", "worker-New York"} {
		if !procs[c] {
			t.Fatalf("chrome export missing process %q (have %v)", c, procs)
		}
	}
}

// TestTraceChaosWorkerKillReconciles kills a worker mid-shard and pins
// that the assembled trace still reconciles with the budget ledger and
// the Complete frame — no lost or double-counted probe accounting — and
// that the failure auto-dumps both flight recorders.
func TestTraceChaosWorkerKillReconciles(t *testing.T) {
	oReg := obs.New()
	oSink := &syncBuffer{}
	// DailyProbes caps admission: with 5 workers connected each target
	// charges 5 probes, so only 20 of the ~40 requested targets stream.
	o, _, logf, cancel := tracedCluster(t, 4, Config{
		Obs:        oReg,
		FlightSink: oSink,
		Budget:     budget.Budget{DailyProbes: 100},
	})
	defer cancel()
	w := world(t)

	// The chaos worker: probes 5 targets, then dies. The long reconnect
	// floor keeps it from rejoining within the test.
	chaosReg := obs.New()
	chaosSink := &syncBuffer{}
	dep, err := w.NewDeployment("trace-chaos", eightSites[:4], netsim.PolicyUnmodified)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancelChaos := context.WithCancel(context.Background())
	defer cancelChaos()
	wk, err := worker.New(worker.Config{
		Name:         "chaos",
		Orchestrator: o.Addr(),
		NewProber: func(self int) (worker.Prober, error) {
			return worker.NewSimProber(w, dep, self%dep.NumSites())
		},
		ReconnectMin:     time.Minute,
		Logf:             logf,
		FailAfterTargets: 5,
		Obs:              chaosReg,
		FlightSink:       chaosSink,
	})
	if err != nil {
		t.Fatal(err)
	}
	go wk.Run(ctx)
	deadline := time.Now().Add(5 * time.Second)
	for o.NumWorkers() < 5 {
		if time.Now().After(deadline) {
			t.Fatal("chaos worker did not connect")
		}
		time.Sleep(5 * time.Millisecond)
	}

	addrs, _, _ := pickTargets(w, 20)
	demanded := len(addrs)
	cliReg := obs.New()
	cli := &client.Client{Addr: o.Addr(), Obs: cliReg}
	runCtx, cancelRun := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancelRun()
	out, err := cli.Run(runCtx, wire.MeasurementDef{ID: 23, Protocol: "ICMP", OffsetMS: 1000, Rate: 1e6}, addrs, nil)
	if err != nil {
		t.Fatalf("measurement did not survive the chaos kill: %v", err)
	}
	if out.Workers != 5 {
		t.Fatalf("started with %d workers, want 5", out.Workers)
	}

	// Reconcile the trace's accounting against the ledger's invariant:
	// admitted + skipped == demanded, and the stream span streamed
	// exactly the admitted set.
	attr := func(sp obs.TraceSpan, name string) (string, bool) {
		for _, a := range sp.Attrs {
			if a.Name == name {
				return a.Value, true
			}
		}
		return "", false
	}
	spans := cliReg.TraceSpans()
	var kept, skipped, streamed int64 = -1, -1, -1
	var workerSents []int64
	var traceID uint64
	for _, sp := range spans {
		if traceID == 0 {
			traceID = sp.TraceID
		}
		if sp.TraceID != traceID {
			t.Fatalf("span %q carries a foreign trace ID", sp.Name)
		}
		switch sp.Name {
		case "admit":
			if v, ok := attr(sp, "kept"); ok {
				kept, _ = strconv.ParseInt(v, 10, 64)
			}
			if v, ok := attr(sp, "skipped"); ok {
				skipped, _ = strconv.ParseInt(v, 10, 64)
			}
		case "stream":
			if v, ok := attr(sp, "streamed"); ok {
				streamed, _ = strconv.ParseInt(v, 10, 64)
			}
		case "worker/measure":
			if v, ok := attr(sp, "sent"); ok {
				n, _ := strconv.ParseInt(v, 10, 64)
				workerSents = append(workerSents, n)
			}
		}
	}
	if kept < 0 || skipped < 0 || streamed < 0 {
		t.Fatalf("trace is missing accounting spans: kept=%d skipped=%d streamed=%d", kept, skipped, streamed)
	}
	if kept+skipped != int64(demanded) {
		t.Fatalf("ledger reconciliation broken in trace: kept %d + skipped %d != demanded %d", kept, skipped, demanded)
	}
	if skipped == 0 || out.Skipped != skipped {
		t.Fatalf("budget skips: trace says %d, Complete says %d (want equal, nonzero)", skipped, out.Skipped)
	}
	if streamed != kept {
		t.Fatalf("streamed %d of %d admitted targets", streamed, kept)
	}
	// The chaos worker died before handing its span back: exactly the 4
	// survivors report, each having probed every streamed target — no
	// probe lost from, or double-counted into, the assembled trace.
	if len(workerSents) != 4 {
		t.Fatalf("%d worker spans in trace, want 4 (survivors only)", len(workerSents))
	}
	for _, n := range workerSents {
		if n != streamed {
			t.Fatalf("surviving worker probed %d of %d streamed targets", n, streamed)
		}
	}
	// The chaos worker's own record stayed local, marked aborted.
	var chaosSpan *obs.TraceSpan
	for _, sp := range chaosReg.TraceSpans() {
		if sp.Name == "worker/measure" {
			chaosSpan = &sp
			break
		}
	}
	if chaosSpan == nil {
		t.Fatal("chaos worker recorded no local measure span")
	}
	if v, _ := attr(*chaosSpan, "aborted"); v != "true" {
		t.Fatalf("chaos worker span not marked aborted: %+v", chaosSpan.Attrs)
	}
	if v, _ := attr(*chaosSpan, "sent"); v != "5" {
		t.Fatalf("chaos worker span sent=%q, want 5", v)
	}

	// Both flight recorders auto-dumped on the failure trigger.
	oEvents := decodeFlightDump(t, oSink.Bytes())
	kinds := map[string]int{}
	var disconnectFields []obs.Label
	for _, ev := range oEvents {
		kinds[ev.Kind]++
		if ev.Kind == "worker_disconnect" {
			disconnectFields = ev.Fields
		}
	}
	if kinds["worker_disconnect"] != 1 || kinds["flight_dump"] == 0 {
		t.Fatalf("orchestrator dump lacks the disconnect trigger: %v", kinds)
	}
	if kinds["budget_denied"] == 0 || kinds["frame_tx"] == 0 || kinds["frame_rx"] == 0 {
		t.Fatalf("orchestrator dump lacks budget/frame events: %v", kinds)
	}
	// Satellite: the disconnect record carries measurement, shard range
	// and per-connection frame counts.
	fieldNames := map[string]bool{}
	for _, f := range disconnectFields {
		fieldNames[f.Name] = true
	}
	for _, want := range []string{"measurement", "shard_base", "shard_end", "frames_tx", "frames_rx"} {
		if !fieldNames[want] {
			t.Fatalf("worker_disconnect event missing %q (have %v)", want, disconnectFields)
		}
	}
	// The registry's one event log carries the same record, once: a
	// plain telemetry snapshot names the loss without any trace export.
	inSnapshot := 0
	for _, ev := range oReg.Snapshot().Events {
		if ev.Kind == "worker_disconnect" {
			inSnapshot++
		}
	}
	if inSnapshot != 1 {
		t.Fatalf("snapshot carries %d worker_disconnect events, want 1", inSnapshot)
	}
	chaosEvents := decodeFlightDump(t, chaosSink.Bytes())
	ckinds := map[string]int{}
	for _, ev := range chaosEvents {
		ckinds[ev.Kind]++
	}
	if ckinds["chaos_kill"] == 0 || ckinds["flight_dump"] == 0 {
		t.Fatalf("chaos worker dump lacks its kill record: %v", ckinds)
	}
}
