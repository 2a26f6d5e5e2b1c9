package api

import (
	"bufio"
	"encoding/json"
	"fmt"
	"maps"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"

	"github.com/laces-project/laces/internal/archive"
	"github.com/laces-project/laces/internal/budget"
	"github.com/laces-project/laces/internal/netsim"
	"github.com/laces-project/laces/internal/obs"
	"github.com/laces-project/laces/internal/platform"
	"github.com/laces-project/laces/internal/query"
)

// newInstrumentedServer builds a server on its own small world (the
// package-level testWorld stays untouched by telemetry) with a registry
// attached and pprof enabled.
func newInstrumentedServer(t *testing.T) (*httptest.Server, *obs.Registry) {
	t.Helper()
	w, err := netsim.New(netsim.TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	d, err := platform.Tangled(w, netsim.PolicyUnmodified)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewServer(w, d,
		func(day int, v6 bool) ([]netsim.VP, error) { return platform.Ark(w, day, v6) },
		func() int { return 3 })
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.New()
	s.Instrument(reg)
	s.EnablePprof = true
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts, reg
}

var (
	promNameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	// Label values may themselves contain braces (route patterns like
	// /v1/prefix/{prefix...}), so the label block is matched greedily up
	// to the final "} value".
	promSampleRe = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{.*\})? (-?[0-9.eE+-]+|NaN|[+-]Inf)$`)
)

// TestMetricsEndpointLiveCensus runs a census through the instrumented
// server and checks the /metrics exposition: valid Prometheus text
// format 0.0.4 carrying at least 25 distinct series spanning the
// stage, netsim, budget, archive-bridge and HTTP families.
func TestMetricsEndpointLiveCensus(t *testing.T) {
	ts, _ := newInstrumentedServer(t)

	// Twice: the first request computes the day, the second is served
	// from the day LRU — one miss, one hit.
	for i := 0; i < 2; i++ {
		resp, err := http.Get(ts.URL + "/v1/census?day=3")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("census status %d", resp.StatusCode)
		}
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("metrics Content-Type = %q", ct)
	}

	series := make(map[string]string) // name+labels → sample value
	typed := make(map[string]bool)    // names with a # TYPE line
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# ") {
			fields := strings.Fields(line)
			if len(fields) < 3 || (fields[1] != "HELP" && fields[1] != "TYPE") {
				t.Fatalf("malformed comment line: %q", line)
			}
			if !promNameRe.MatchString(fields[2]) {
				t.Fatalf("bad metric name in %q", line)
			}
			if fields[1] == "TYPE" {
				typed[fields[2]] = true
			}
			continue
		}
		m := promSampleRe.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("malformed sample line: %q", line)
		}
		// Histogram expansion lines (_bucket/_sum/_count) belong to their
		// base family; the base name must still carry a TYPE header.
		base := m[1]
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if strings.HasSuffix(base, suf) && typed[strings.TrimSuffix(base, suf)] {
				base = strings.TrimSuffix(base, suf)
				break
			}
		}
		if !typed[base] {
			t.Fatalf("sample %q has no # TYPE header", line)
		}
		series[m[1]+m[2]] = m[3]
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(series) < 25 {
		t.Fatalf("exposition carries %d distinct series, want >= 25", len(series))
	}
	for _, want := range []string{
		"laces_stage_probes_total",
		"laces_netsim_probes_total",
		"laces_census_days_total",
		"laces_archive_decodes_total",
		"laces_http_requests_total",
	} {
		found := false
		for s := range series {
			if strings.HasPrefix(s, want) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no %s series in exposition", want)
		}
	}
	// The cache /metrics reports is the one that exists: the server's
	// day LRU. The archive and timeline caches are gone, and so
	// are their series.
	for _, outcome := range []string{"hit", "miss"} {
		if got := series[`laces_api_day_cache_total{outcome="`+outcome+`"}`]; got != "1" {
			t.Errorf("laces_api_day_cache_total{outcome=%q} = %q, want 1", outcome, got)
		}
	}
	for s := range series {
		if strings.HasPrefix(s, "laces_archive_cache_total") || strings.HasPrefix(s, "laces_query_cache_hits_total") {
			t.Errorf("exposition still carries the deleted series %s", s)
		}
	}
}

// TestMetricsRouteAbsentWithoutRegistry: a server never Instrumented
// must not expose /metrics at all.
func TestMetricsRouteAbsentWithoutRegistry(t *testing.T) {
	resp, err := http.Get(testServer.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("uninstrumented /metrics status = %d, want 404", resp.StatusCode)
	}
}

// TestDebugTraceEndpoint: /debug/trace serves the registry's trace
// export in both formats — JSONL by default, Chrome trace_event JSON on
// ?format=chrome — rejects unknown formats, and is absent from an
// uninstrumented server's routing table.
func TestDebugTraceEndpoint(t *testing.T) {
	ts, reg := newInstrumentedServer(t)
	reg.SetTraceComponent("api")
	sp := reg.StartTrace("serve")
	sp.SetAttr("route", "/v1/census")
	sp.End()
	reg.EnableFlight("api", 64).Record("request", "census", nil, 1)

	resp, err := http.Get(ts.URL + "/debug/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("trace Content-Type = %q", ct)
	}
	ex, err := obs.ReadTraceJSONL(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if len(ex.Spans) == 0 || ex.Spans[0].Name != "serve" || len(ex.Events) != 1 {
		t.Fatalf("trace export spans=%d events=%d", len(ex.Spans), len(ex.Events))
	}

	resp, err = http.Get(ts.URL + "/debug/trace?format=chrome")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("chrome trace status %d", resp.StatusCode)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("chrome export carries no events")
	}

	resp, err = http.Get(ts.URL + "/debug/trace?format=bogus")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bogus format status = %d, want 400", resp.StatusCode)
	}

	resp, err = http.Get(testServer.URL + "/debug/trace")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("uninstrumented /debug/trace status = %d, want 404", resp.StatusCode)
	}
}

// TestPprofOptIn: /debug/pprof/ answers on an EnablePprof server and is
// absent from the default routing table.
func TestPprofOptIn(t *testing.T) {
	ts, _ := newInstrumentedServer(t)
	resp, err := http.Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof index status %d", resp.StatusCode)
	}
	resp, err = http.Get(testServer.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pprof on default server status = %d, want 404", resp.StatusCode)
	}
}

// TestErrorResponsesAreTypedJSON pins the response-writing contract for
// error paths: the 4xx status is on the status line (headers before
// body), the body is JSON with an "error" key, and the Content-Type
// is application/json with nosniff — on both instrumented and bare
// servers.
func TestErrorResponsesAreTypedJSON(t *testing.T) {
	ts, _ := newInstrumentedServer(t)
	for _, base := range []string{testServer.URL, ts.URL} {
		for _, tc := range []struct {
			path string
			want int
		}{
			{"/v1/census?day=bogus", http.StatusBadRequest},
			{"/v1/prefix/not-a-prefix", http.StatusBadRequest},
			{"/v1/timeline/10.0.0.0%2F24", http.StatusNotFound}, // no index attached
			{"/v1/days", http.StatusNotFound},                   // no archive attached
		} {
			code, doc := getURL(t, base+tc.path)
			if code != tc.want {
				t.Errorf("%s: status %d, want %d", tc.path, code, tc.want)
			}
			if doc["error"] == "" {
				t.Errorf("%s: no error message in body", tc.path)
			}
		}
	}
}

// TestErrorCounterIncrements: a 4xx response shows up in the route's
// laces_http_errors_total series.
func TestErrorCounterIncrements(t *testing.T) {
	ts, reg := newInstrumentedServer(t)
	resp, err := http.Get(ts.URL + "/v1/census?day=bogus")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	errs := reg.Counter("laces_http_errors_total",
		"HTTP responses with status >= 400, by route.", obs.L("route", "GET /v1/census"))
	if errs.Value() != 1 {
		t.Fatalf("error counter = %d, want 1", errs.Value())
	}
	reqs := reg.Counter("laces_http_requests_total",
		"HTTP requests served, by route.", obs.L("route", "GET /v1/census"))
	if reqs.Value() != 1 {
		t.Fatalf("request counter = %d, want 1", reqs.Value())
	}
}

// TestBridgedCountersSurviveReload: the archive and index bridges count
// across serving generations. After requests on one generation, a Reload
// onto freshly opened handles moves no counter back, and a Reload onto
// the same handles counts nothing twice.
func TestBridgedCountersSurviveReload(t *testing.T) {
	s, dir := packedServer(t, 4)
	if _, err := query.BuildDir(dir); err != nil {
		t.Fatal(err)
	}
	s.Query = openIndexDir(t, dir)
	reg := instrument(t, s)
	h := s.Handler()
	prefix := s.Query.Prefixes("ipv4")[0]
	for _, path := range []string{"/v1/census?day=3", "/v1/timeline/" + prefix, "/v1/events?from=2&to=3"} {
		if rec := fetch(t, h, path, ""); rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d", path, rec.Code)
		}
	}
	before := counterValues(reg)
	for _, name := range []string{
		"laces_archive_decodes_total",
		"laces_query_lookups_total",
		`laces_query_event_rows_total{outcome="scanned"}`,
	} {
		if before[name] == 0 {
			t.Fatalf("%s is 0 before the reload; the requests did not reach it", name)
		}
	}
	// A scraper runs through reloads onto fresh handles, and every
	// counter it reads is at least what it read the time before.
	done, scraped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(scraped)
		for last := before; ; {
			select {
			case <-done:
				return
			default:
			}
			cur := counterValues(reg)
			for name, v := range last {
				if cur[name] < v {
					t.Errorf("%s went from %v to %v across a Reload onto fresh handles", name, v, cur[name])
					return
				}
			}
			last = cur
		}
	}()
	var (
		a   *archive.Archive
		q   *query.Index
		err error
	)
	for range 3 {
		if a, err = archive.Open(dir); err != nil {
			t.Fatal(err)
		}
		q = openIndexDir(t, dir)
		s.Reload(a, q)
	}
	close(done)
	<-scraped
	after := counterValues(reg)
	for name, v := range before {
		if after[name] < v {
			t.Errorf("%s went from %v to %v across Reloads onto fresh handles", name, v, after[name])
		}
	}
	s.Reload(a, q)
	if again := counterValues(reg); !maps.Equal(after, again) {
		t.Errorf("a Reload onto the same handles moved the counters: %v, then %v", after, again)
	}
}

// TestBudgetCountersAddUpAcrossPipelines pins the laces_budget_* series
// on a governed server: every live day and every /v1/measure builds its
// own pipeline, and the series sum the decisions of all of them. A
// measure of an opted-out target answers 403 and adds its one denial,
// the anycast-based round's (no GCD round follows it), to the optout
// series and nothing to the others; the next live day adds to them all.
func TestBudgetCountersAddUpAcrossPipelines(t *testing.T) {
	tg := anycastPrefix(t)
	optOut := budget.NewRegistry()
	optOut.AddAS(tg.Origin)
	s := liveServer(t, 1)
	s.Govern(budget.Budget{DailyProbes: 20_000}, optOut)
	reg := instrument(t, s)
	h := s.Handler()
	series := []string{
		"laces_budget_admitted_total",
		`laces_budget_denied_total{reason="budget"}`,
		`laces_budget_denied_total{reason="optout"}`,
	}
	var last map[string]float64
	step := func(name string, r *http.Request, status int) map[string]float64 {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		if rec.Code != status {
			t.Fatalf("%s: status %d, want %d", name, rec.Code, status)
		}
		cur := counterValues(reg)
		for _, k := range series {
			if cur[k] < last[k] {
				t.Errorf("%s: %s went from %v to %v", name, k, last[k], cur[k])
			}
		}
		last = cur
		return cur
	}
	day0 := step("live day 0", httptest.NewRequest("GET", "/v1/census?day=0", nil), http.StatusOK)
	for _, k := range series {
		if day0[k] == 0 {
			t.Fatalf("%s is 0 after a governed live day", k)
		}
	}
	measured := step("measure", httptest.NewRequest("POST", "/v1/measure",
		strings.NewReader(`{"prefix":"`+tg.Prefix.String()+`"}`)), http.StatusForbidden)
	for _, k := range series {
		want := day0[k]
		if k == `laces_budget_denied_total{reason="optout"}` {
			want++
		}
		if measured[k] != want {
			t.Errorf("a measure moved %s from %v to %v, want %v", k, day0[k], measured[k], want)
		}
	}
	day1 := step("live day 1", httptest.NewRequest("GET", "/v1/census?day=1", nil), http.StatusOK)
	for _, k := range series {
		if day1[k] <= measured[k] {
			t.Errorf("live day 1 did not add to %s: %v, then %v", k, measured[k], day1[k])
		}
	}
}

// openIndexDir opens dir's timeline index until the test ends.
func openIndexDir(t *testing.T, dir string) *query.Index {
	t.Helper()
	ix, err := query.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ix.Close() })
	return ix
}

// counterValues reads every counter series of reg, keyed as the
// exposition names it.
func counterValues(reg *obs.Registry) map[string]float64 {
	out := map[string]float64{}
	for _, m := range reg.Snapshot().Metrics {
		if m.Type != "counter" {
			continue
		}
		key := m.Name
		if len(m.Labels) > 0 {
			var ls []string
			for _, l := range m.Labels {
				ls = append(ls, fmt.Sprintf("%s=%q", l.Name, l.Value))
			}
			key += "{" + strings.Join(ls, ",") + "}"
		}
		out[key] = m.Value
	}
	return out
}

// getURL is get() against an arbitrary server, also checking the typed
// JSON headers every response must carry.
func getURL(t *testing.T, url string) (int, map[string]string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("%s: Content-Type = %q, want application/json", url, ct)
	}
	if ns := resp.Header.Get("X-Content-Type-Options"); ns != "nosniff" {
		t.Errorf("%s: X-Content-Type-Options = %q, want nosniff", url, ns)
	}
	var doc map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, doc
}
