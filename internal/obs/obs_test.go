package obs

import (
	"bytes"
	"fmt"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := New()
	c := r.Counter("laces_test_total", "test counter")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	// Same (name, labels) returns the same instrument.
	if c2 := r.Counter("laces_test_total", "test counter"); c2 != c {
		t.Fatal("get-or-create returned a different counter")
	}
	// A different label set is a different series.
	cl := r.Counter("laces_test_total", "test counter", L("stage", "x"))
	if cl == c {
		t.Fatal("labelled series aliases the unlabelled one")
	}
	var fc FloatCounter
	fc.Add(0.25)
	fc.Add(0.5)
	if got := fc.Value(); got != 0.75 {
		t.Fatalf("float counter = %v, want 0.75", got)
	}
	if r.NumSeries() != 2 {
		t.Fatalf("NumSeries = %d, want 2", r.NumSeries())
	}
}

// TestLabelOrderCanonical pins that label ordering at the call site
// does not split series.
func TestLabelOrderCanonical(t *testing.T) {
	r := New()
	a := r.Counter("laces_t_total", "", L("a", "1"), L("b", "2"))
	b := r.Counter("laces_t_total", "", L("b", "2"), L("a", "1"))
	if a != b {
		t.Fatal("label order at the call site split the series")
	}
}

// TestNilRegistryNoOps pins the disabled-telemetry contract: every
// instrument from a nil registry is usable and inert.
func TestNilRegistryNoOps(t *testing.T) {
	var r *Registry
	c := r.Counter("x", "")
	c.Inc()
	c.Add(10)
	if c.Value() != 0 {
		t.Fatal("nil counter holds a value")
	}
	h := r.Histogram("x", "", nil)
	h.Observe(1)
	h.ObserveDuration(time.Second)
	var fc *FloatCounter
	fc.Add(1)
	var st *Striped
	st.Add(3, 5)
	if st.Value() != 0 {
		t.Fatal("nil striped counter holds a value")
	}
	sp := r.StartTrace("census")
	si := r.Under(sp).Stage("stage", 10)
	si.Span.Child("shard0").End()
	si.End()
	sp.End()
	r.Flight().Record("kind", "", nil, 0)
	r.BeginStage("s", 10)
	r.ProgressDone().Inc()
	r.SetBudgetFunc(func() int64 { return 1 })
	if p := r.Progress(); p.BudgetRemaining != -1 || p.Done != 0 {
		t.Fatalf("nil progress = %+v", p)
	}
	ps := r.StartProgress(&bytes.Buffer{}, time.Millisecond)
	ps.Stop()
	if err := r.WritePrometheus(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	if s := r.Snapshot(); len(s.Metrics) != 0 {
		t.Fatal("nil snapshot has metrics")
	}
}

// TestDisabledPathAllocs pins the zero-alloc contract of the disabled
// (nil-registry) hot path: one branch, no allocation.
func TestDisabledPathAllocs(t *testing.T) {
	var r *Registry
	c := r.Counter("x", "")
	h := r.Histogram("x", "", nil)
	var st *Striped
	if n := testing.AllocsPerRun(200, func() {
		c.Inc()
		h.Observe(0.5)
		st.Add(7, 1)
	}); n != 0 {
		t.Fatalf("disabled instruments allocate %.1f objects/op, want 0", n)
	}
}

// TestEnabledPathAllocs pins the zero-alloc contract of the live hot
// path: pre-resolved instruments update atomically without allocating.
func TestEnabledPathAllocs(t *testing.T) {
	r := New()
	c := r.Counter("laces_hot_total", "")
	h := r.Histogram("laces_hot_seconds", "", nil)
	st := new(Striped)
	if n := testing.AllocsPerRun(200, func() {
		c.Inc()
		h.Observe(0.003)
		st.Add(11, 1)
	}); n != 0 {
		t.Fatalf("live instruments allocate %.1f objects/op, want 0", n)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := New()
	h := r.Histogram("laces_h_seconds", "", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.1, 0.5, 2, 100} {
		h.Observe(v)
	}
	want := []int64{2, 1, 1, 1} // (<=0.1)=2, (<=1)=1, (<=10)=1, +Inf=1
	got := h.BucketCounts()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bucket %d = %d, want %d (%v)", i, got[i], want[i], got)
		}
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if h.Sum() != 102.65 {
		t.Fatalf("sum = %v, want 102.65", h.Sum())
	}
}

func TestStriped(t *testing.T) {
	var s Striped
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				s.Add(uint64(g*1000+i), 1)
			}
		}(g)
	}
	wg.Wait()
	if s.Value() != 8000 {
		t.Fatalf("striped sum = %d, want 8000", s.Value())
	}
}

// TestStripedSplit pins the packed event-pair idiom: adds of
// lo | hi<<32 from concurrent goroutines unpack into independent field
// sums, and a nil receiver reads as zero.
func TestStripedSplit(t *testing.T) {
	var s Striped
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				n := int64(1)
				if i%4 != 0 { // 750 of 1000 carry the high field
					n |= 1 << 32
				}
				s.Add(uint64(g*1000+i), n)
			}
		}(g)
	}
	wg.Wait()
	lo, hi := s.Split()
	if lo != 8000 || hi != 6000 {
		t.Fatalf("split = (%d, %d), want (8000, 6000)", lo, hi)
	}
	var nilStriped *Striped
	if lo, hi := nilStriped.Split(); lo != 0 || hi != 0 {
		t.Fatalf("nil split = (%d, %d), want (0, 0)", lo, hi)
	}
}

// promLine matches one valid Prometheus text-format sample line.
var promLine = regexp.MustCompile(
	`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")*\})? [-+0-9.eE]+$`)

// TestPrometheusExposition pins the text format: HELP/TYPE headers
// precede samples, every sample line parses, histograms emit
// cumulative buckets with a +Inf terminator plus _sum and _count.
func TestPrometheusExposition(t *testing.T) {
	r := New()
	r.Counter("laces_a_total", "a counter", L("stage", `q"uo\te`)).Add(3)
	r.GaugeFunc("laces_b", "a gauge", func() float64 { return -2 })
	h := r.Histogram("laces_c_seconds", "a histogram", []float64{0.5, 1})
	h.Observe(0.2)
	h.Observe(0.7)
	h.Observe(5)
	r.CounterFunc("laces_d_total", "func counter", func() float64 { return 42 })
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	types := map[string]bool{}
	var samples int
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("malformed TYPE line %q", line)
			}
			types[parts[2]] = true
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			continue
		}
		if !promLine.MatchString(line) {
			t.Fatalf("invalid sample line %q", line)
		}
		name := line[:strings.IndexAny(line, "{ ")]
		base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name, "_bucket"), "_sum"), "_count")
		if !types[name] && !types[base] {
			t.Fatalf("sample %q precedes its TYPE header", line)
		}
		samples++
	}
	for _, want := range []string{
		`laces_a_total{stage="q\"uo\\te"} 3`,
		"laces_b -2",
		`laces_c_seconds_bucket{le="0.5"} 1`,
		`laces_c_seconds_bucket{le="1"} 2`,
		`laces_c_seconds_bucket{le="+Inf"} 3`,
		"laces_c_seconds_sum 5.9",
		"laces_c_seconds_count 3",
		"laces_d_total 42",
	} {
		if !strings.Contains(text, want+"\n") {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}
	if samples < 8 {
		t.Fatalf("only %d samples rendered:\n%s", samples, text)
	}
}

// TestEvents pins the event log a plain registry starts with: New
// installs a 256-slot flight recorder, so events reach a Snapshot
// oldest-first without any tracing set-up, and EnableFlight replaces it.
func TestEvents(t *testing.T) {
	r := New()
	for i := 0; i < defaultFlightSize+10; i++ {
		r.Flight().Record("tick", "", nil, int64(i), L("i", fmt.Sprint(i)))
	}
	evs := r.Snapshot().Events
	if len(evs) != defaultFlightSize {
		t.Fatalf("retained %d events, want %d", len(evs), defaultFlightSize)
	}
	// Oldest-first: the first retained event is number 10.
	if got := evs[0].Fields[0].Value; got != "10" || evs[0].Kind != "tick" {
		t.Fatalf("oldest retained event = %+v, want tick i=10", evs[0])
	}
	if r.FlightDropped() != 10 {
		t.Fatalf("dropped = %d, want 10", r.FlightDropped())
	}
	r.EnableFlight("census", 16).Record("after", "", nil, 0)
	if evs := r.Snapshot().Events; len(evs) != 1 || evs[0].Kind != "after" || evs[0].Component != "census" {
		t.Fatalf("EnableFlight did not replace the default recorder: %+v", evs)
	}
}

func TestProgressAndStream(t *testing.T) {
	r := New()
	r.BeginStage("anycast_icmp", 100)
	r.ProgressDone().Add(25)
	r.SetBudgetFunc(func() int64 { return 900 })
	p := r.Progress()
	if p.Stage != "anycast_icmp" || p.Done != 25 || p.Total != 100 || p.BudgetRemaining != 900 {
		t.Fatalf("progress = %+v", p)
	}
	// BeginStage resets the done counter.
	r.BeginStage("gcd_icmp", 50)
	if p := r.Progress(); p.Done != 0 || p.Stage != "gcd_icmp" {
		t.Fatalf("after BeginStage: %+v", p)
	}
	var buf bytes.Buffer
	ps := r.StartProgress(&buf, 5*time.Millisecond)
	r.ProgressDone().Add(10)
	time.Sleep(25 * time.Millisecond)
	ps.Stop()
	out := buf.String()
	if !strings.Contains(out, "stage=gcd_icmp") || !strings.Contains(out, "budget 900") {
		t.Fatalf("progress stream output %q", out)
	}
	if !strings.HasSuffix(out, "\n") {
		t.Fatal("progress stream did not terminate the line")
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	r := New()
	r.Counter("laces_a_total", "a", L("stage", "x")).Add(3)
	r.Histogram("laces_h_seconds", "h", []float64{1, 2}).Observe(1.5)
	root := r.StartTrace("census")
	root.Child("anycast_icmp").End()
	root.End()
	r.Flight().Record("note", "census", root.Context(), 1, L("k", "v"))
	var buf bytes.Buffer
	if err := r.Snapshot().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	snap, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Two registered series plus the two always-present self-telemetry
	// drop counters.
	if len(snap.Metrics) != 4 || len(snap.Spans) != 2 || len(snap.Events) != 1 {
		t.Fatalf("snapshot = %d metrics / %d spans / %d events", len(snap.Metrics), len(snap.Spans), len(snap.Events))
	}
	if snap.Metrics[0].Value != 3 || snap.Metrics[1].Count != 1 {
		t.Fatalf("snapshot values wrong: %+v", snap.Metrics)
	}
	// Spans keep their tree and events their trace link through JSON.
	child, parent := snap.Spans[0], snap.Spans[1]
	if child.Parent != parent.SpanID || parent.Parent != 0 || child.TraceID != parent.TraceID || parent.TraceID == 0 {
		t.Fatalf("span tree lost in round trip: %+v", snap.Spans)
	}
	if ev := snap.Events[0]; ev.Kind != "note" || ev.TraceID != parent.TraceID || ev.Fields[0].Value != "v" {
		t.Fatalf("event lost in round trip: %+v", ev)
	}
	for i, want := range []string{
		"laces_obs_trace_spans_dropped_total",
		"laces_obs_flight_events_dropped_total",
	} {
		m := snap.Metrics[2+i]
		if m.Name != want || m.Value != 0 {
			t.Fatalf("drop counter %d = %+v, want %s 0", i, m, want)
		}
	}
}

// TestConcurrentRegistryWrites exercises concurrent get-or-create,
// updates, exposition and snapshotting — the contract the CI race job
// checks.
func TestConcurrentRegistryWrites(t *testing.T) {
	r := New()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				r.Counter("laces_conc_total", "c", L("g", fmt.Sprint(g%4))).Inc()
				r.Histogram("laces_conc_seconds", "h", nil, L("g", fmt.Sprint(g%4))).Observe(float64(i) / 100)
				if i%50 == 0 {
					r.Flight().Record("tick", "", nil, int64(g))
					r.StartTrace("conc").End()
				}
			}
		}(g)
	}
	var scrapeWG sync.WaitGroup
	scrapeWG.Add(1)
	go func() {
		defer scrapeWG.Done()
		for i := 0; i < 20; i++ {
			var buf bytes.Buffer
			if err := r.WritePrometheus(&buf); err != nil {
				t.Error(err)
			}
			r.Snapshot()
		}
	}()
	wg.Wait()
	scrapeWG.Wait()
	var total int64
	for g := 0; g < 4; g++ {
		total += r.Counter("laces_conc_total", "c", L("g", fmt.Sprint(g))).Value()
	}
	if total != 8*200 {
		t.Fatalf("concurrent counter total = %d, want 1600", total)
	}
}

// BenchmarkObsCounterParallel measures contended counter adds — the
// cost ceiling for per-probe instrumentation under full parallelism.
func BenchmarkObsCounterParallel(b *testing.B) {
	r := New()
	c := r.Counter("laces_bench_total", "")
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}

// BenchmarkObsStripedParallel is the striped variant netsim's per-probe
// accounting uses.
func BenchmarkObsStripedParallel(b *testing.B) {
	var s Striped
	b.RunParallel(func(pb *testing.PB) {
		var k uint64
		for pb.Next() {
			k++
			s.Add(k, 1)
		}
	})
}

// BenchmarkObsHistogramObserve is the single-thread histogram cost.
func BenchmarkObsHistogramObserve(b *testing.B) {
	r := New()
	h := r.Histogram("laces_bench_seconds", "", nil)
	for i := 0; i < b.N; i++ {
		h.Observe(0.003)
	}
}
