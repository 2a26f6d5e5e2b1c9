package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"github.com/laces-project/laces/internal/hitlist"
)

// manifest is BENCHMARK.json as the benchmark contract defines it.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return m
}

// TestManifestMatchesProgram holds BENCHMARK.json and the tables in
// metrics.go and main.go together.
func TestManifestMatchesProgram(t *testing.T) {
	m := readManifest(t)
	if m.RunSeconds != runSeconds {
		t.Errorf("run_seconds %d, program %d", m.RunSeconds, runSeconds)
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(m.Workloads), len(workloads))
	}
	for i, w := range m.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the program", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the program %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", m.EndToEnd, endToEnd)
	same("per_layer", m.PerLayer, perLayer)
	for name := range exactLayer {
		found := false
		for _, d := range perLayer {
			found = found || d.Name == name
		}
		if !found {
			t.Errorf("exactLayer names %q, which is no per-layer metric", name)
		}
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSmoke runs every workload traced at the -smoke size: one run yields the
// end-to-end and the per-layer metrics, so both contract lines are checked
// from it, and the span file must be well formed.
func TestSmoke(t *testing.T) {
	m := readManifest(t)
	o := options{seed: 1, seconds: runSeconds, traced: true, smoke: true, outDir: t.TempDir()}
	layerSeen := make(map[string]bool)
	for _, wl := range workloads {
		tr := &tracer{}
		res, err := wl.run(o, tr)
		if err != nil {
			t.Fatalf("%s: %v", wl.name, err)
		}
		if !res.correct() {
			t.Errorf("%s: failed=%d problems=%q", wl.name, res.Failed, res.Problems)
		}
		if res.Ops < 2 || len(res.OutSHA256) != 64 || len(res.RepS) != 2 {
			t.Errorf("%s: ops=%d out_sha256=%q reps=%v", wl.name, res.Ops, res.OutSHA256, res.RepS)
		}
		rss, err := peakRSSMB()
		if err != nil {
			t.Fatal(err)
		}
		res.Metrics["peak_rss_mb"] = rss
		for name := range res.Metrics {
			layerSeen[name] = true
		}

		for _, traced := range []bool{false, true} {
			res.Traced = traced
			want := m.EndToEnd
			if traced {
				want = m.PerLayer
			}
			var line struct {
				Correct   bool                     `json:"correct"`
				Attempted int                      `json:"attempted"`
				Failed    int                      `json:"failed"`
				Metrics   map[string]contractValue `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(res.contractLine()), &line); err != nil {
				t.Fatalf("%s: contract line: %v", wl.name, err)
			}
			if !line.Correct || line.Attempted < 1 || line.Failed != 0 || len(line.Metrics) != len(want) {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d, %d metrics for %d named",
					wl.name, traced, line.Correct, line.Attempted, line.Failed, len(line.Metrics), len(want))
			}
			for _, d := range want {
				v, ok := line.Metrics[d.Name]
				switch {
				case !nameRE.MatchString(d.Name):
					t.Errorf("metric name %q is outside the contract's alphabet", d.Name)
				case !ok:
					t.Errorf("%s traced=%v: %s is not emitted", wl.name, traced, d.Name)
				case v.Unit != d.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
					t.Errorf("%s: %s = %v %q, want a finite number of %q", wl.name, d.Name, v.Value, v.Unit, d.Unit)
				case !traced && v.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", wl.name, d.Name, v.Value)
				}
			}
		}

		path, err := tr.write(o.outDir, wl.name)
		if err != nil {
			t.Fatal(err)
		}
		checkSpans(t, path)
	}
	for _, d := range perLayer {
		if !layerSeen[d.Name] {
			t.Errorf("no workload measures the per-layer metric %s", d.Name)
		}
	}
}

// checkSpans reads a span file back: ids count up from 1, every span ends
// after it starts, and a child lies inside its parent and shares its rep.
func checkSpans(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var spans []span
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		spans = append(spans, s)
	}
	if len(spans) == 0 {
		t.Fatalf("%s: no spans", path)
	}
	reps := 0
	for i, s := range spans {
		if s.ID != i+1 || s.Name == "" || s.StartNS <= 0 || s.EndNS < s.StartNS {
			t.Errorf("%s: malformed span %+v", path, s)
		}
		if s.Name == "rep" {
			reps++
		}
		if s.Parent == 0 {
			continue
		}
		if s.Parent >= s.ID {
			t.Fatalf("%s: span %d names the later span %d as parent", path, s.ID, s.Parent)
		}
		p := spans[s.Parent-1]
		if s.StartNS < p.StartNS || s.EndNS > p.EndNS || s.Rep != p.Rep {
			t.Errorf("%s: span %+v is not nested in its parent %+v", path, s, p)
		}
	}
	if reps == 0 {
		t.Errorf("%s: no rep span", path)
	}
}

// TestWrongRequestIsCounted sends one request that cannot get the status it
// expects and one whose body differs from what its key saw before.
func TestWrongRequestIsCounted(t *testing.T) {
	b, err := newServeBench(options{seed: 1, seconds: runSeconds, smoke: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer b.close()
	pass, err := b.schedule(50)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, failed := b.runPass(nil, pass); failed != 0 {
		t.Fatalf("a clean pass counted %d failures", failed)
	}

	get := func(target string) *http.Request {
		req, err := http.NewRequest(http.MethodGet, target, nil)
		if err != nil {
			t.Fatal(err)
		}
		return req
	}
	day0, day1 := dayURL("ipv4", 0), dayURL("ipv4", 1)
	pass = append(pass,
		request{class: clsDayCold, req: get(day1), want: http.StatusOK, key: day1},
		request{class: clsTimeline, req: get("/v1/timeline/not-a-prefix"), want: http.StatusOK, key: "bad"}, // answers 400
		request{class: clsDayCold, req: get(day0), want: http.StatusOK, key: day1},                          // another body under day 1's key
	)
	if _, _, failed := b.runPass(nil, pass); failed != 2 {
		t.Errorf("%d failures counted for 2 wrong requests", failed)
	}
}

// TestSeedKeepsWorkEqual holds what a seed may change to what leaves a run the
// same amount of work: census days of one hitlist quarter, and document-served
// requests spread evenly over their parameter range.
func TestSeedKeepsWorkEqual(t *testing.T) {
	longest := options{seconds: 60}.reps(4)
	for seed := 1; seed <= 3*censusDaySpan; seed++ {
		first := firstCensusDay(seed)
		if first < censusFirstDay || hitlist.QuarterOf(first-1) != hitlist.QuarterOf(first+longest-1) {
			t.Errorf("seed %d: days %d to %d straddle a hitlist refresh", seed, first-1, first+longest-1)
		}
	}
	if firstCensusDay(1) == firstCensusDay(2) {
		t.Error("seeds 1 and 2 measure the same census days")
	}

	b := &serveBench{rng: rand.New(rand.NewSource(7))}
	for _, tc := range []struct{ n, size int }{{30, 56}, {20, 31}, {20, 54}, {30, 4}, {3, 1}} {
		got := b.spread(tc.n, tc.size)
		count := make(map[int]int)
		for i, v := range got {
			if v < 0 || v >= tc.size || (i > 0 && v < got[i-1]) {
				t.Fatalf("spread(%d, %d) = %v", tc.n, tc.size, got)
			}
			count[v]++
		}
		for v := 0; v < tc.size; v++ {
			if lo := tc.n / tc.size; count[v] < lo || count[v] > lo+1 {
				t.Errorf("spread(%d, %d) draws %d %d times: %v", tc.n, tc.size, v, count[v], got)
			}
		}
	}
}

// TestQuartiles pins the quartile method to Python's
// statistics.quantiles(xs, n=4), whose values these are.
func TestQuartiles(t *testing.T) {
	q1, q3 := quartiles([]float64{9, 1, 4, 7, 3, 8, 2, 6, 5, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{3.1, 3.0, 3.6, 3.3, 5.7})
	if math.Abs(q1-3.05) > 1e-9 || math.Abs(q3-4.65) > 1e-9 {
		t.Errorf("quartiles = %v, %v, want 3.05, 4.65", q1, q3)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
	if p := percentile([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20}, 0.95); p != 19 {
		t.Errorf("p95 of 1..20 = %v, want 19", p)
	}
}

// TestCompare feeds -compare a clean pair, a regression, a noisy row and a
// seed that published different bytes twice.
func TestCompare(t *testing.T) {
	set := func(name string, workPerS []float64, sha string) string {
		path := filepath.Join(t.TempDir(), name)
		for i, v := range workPerS {
			r := &result{Workload: "serve_mix", Seed: i + 1, Ops: 10, OutSHA256: sha,
				Metrics: map[string]float64{"setup_s": 1, "work_per_s": v, "peak_rss_mb": 50, "out_bytes_per_unit": 100, "p50_ms": 1, "p95_ms": 2}}
			if err := appendResult(path, r); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	steady := []float64{100, 101, 99, 100, 102}
	for _, tc := range []struct {
		name   string
		b      []float64
		sha    string
		wantOK bool
		want   string
	}{
		{"same", steady, "aa", true, "pass"},
		{"slower", []float64{60, 61, 59, 60, 62}, "aa", false, "REGRESSION"},
		{"noisy", []float64{70, 130, 100, 60, 140}, "aa", true, "unresolved"},
		{"other bytes", steady, "bb", false, "NOT REPEATABLE"},
	} {
		var out bytes.Buffer
		ok, err := compareSets(&out, set("a.jsonl", steady, "aa"), set("b.jsonl", tc.b, tc.sha))
		if err != nil {
			t.Fatal(err)
		}
		if ok != tc.wantOK || !strings.Contains(out.String(), tc.want) {
			t.Errorf("%s: ok=%v, want %v and %q in:\n%s", tc.name, ok, tc.wantOK, tc.want, out.String())
		}
	}
}
