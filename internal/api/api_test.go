package api

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"

	"github.com/laces-project/laces/internal/archive"
	"github.com/laces-project/laces/internal/core"
	"github.com/laces-project/laces/internal/netsim"
	"github.com/laces-project/laces/internal/packet"
	"github.com/laces-project/laces/internal/platform"
	"github.com/laces-project/laces/internal/query"
)

var (
	testWorld  = mustWorld()
	testServer = mustServer()
)

func mustWorld() *netsim.World {
	cfg := netsim.TestConfig()
	cfg.V4Targets = 4000
	cfg.V6Targets = 1200
	cfg.NumASes = 200
	w, err := netsim.New(cfg)
	if err != nil {
		panic(err)
	}
	return w
}

func mustServer() *httptest.Server {
	d, err := platform.Tangled(testWorld, netsim.PolicyUnmodified)
	if err != nil {
		panic(err)
	}
	s, err := NewServer(testWorld, d,
		func(day int, v6 bool) ([]netsim.VP, error) { return platform.Ark(testWorld, day, v6) },
		func() int { return 42 })
	if err != nil {
		panic(err)
	}
	return httptest.NewServer(s.Handler())
}

func get(t *testing.T, path string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Get(testServer.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, doc
}

func TestHealthz(t *testing.T) {
	code, doc := get(t, "/v1/healthz")
	if code != http.StatusOK || doc["status"] != "ok" {
		t.Fatalf("healthz: %d %v", code, doc)
	}
}

func TestCensusEndpoint(t *testing.T) {
	code, doc := get(t, "/v1/census?day=42")
	if code != http.StatusOK {
		t.Fatalf("census status %d", code)
	}
	if doc["family"] != "ipv4" {
		t.Fatalf("family = %v", doc["family"])
	}
	if doc["gcd_confirmed"].(float64) <= 0 {
		t.Fatal("census has no confirmed prefixes")
	}
	entries := doc["entries"].([]any)
	if len(entries) == 0 {
		t.Fatal("census has no entries")
	}
}

func TestCensusValidation(t *testing.T) {
	if code, _ := get(t, "/v1/census?day=zzz"); code != http.StatusBadRequest {
		t.Fatalf("bad day accepted: %d", code)
	}
	if code, _ := get(t, "/v1/census?family=ipx"); code != http.StatusBadRequest {
		t.Fatalf("bad family accepted: %d", code)
	}
}

// anycastPrefix returns a wide, ICMP-responsive anycast prefix.
func anycastPrefix(t *testing.T) *netsim.Target {
	t.Helper()
	for i := range testWorld.NumTargets(false) {
		tg := testWorld.TargetAt(false, i)
		if tg.Kind == netsim.Anycast && len(tg.Sites) >= 20 &&
			tg.AnycastBornDay == 0 && tg.Responsive[packet.ICMP] {
			return tg
		}
	}
	t.Fatal("no anycast prefix")
	return nil
}

func TestPrefixLookup(t *testing.T) {
	tg := anycastPrefix(t)
	code, doc := get(t, "/v1/prefix/"+tg.Prefix.String())
	if code != http.StatusOK {
		t.Fatalf("prefix status %d", code)
	}
	if doc["in_census"] != true || doc["gcd_anycast"] != true {
		t.Fatalf("anycast prefix lookup: %v", doc)
	}
	if doc["gcd_sites"].(float64) < 2 {
		t.Fatalf("gcd_sites = %v", doc["gcd_sites"])
	}
}

func TestPrefixLookupUnicast(t *testing.T) {
	// A clean unicast prefix is not in the census at all.
	for i := range testWorld.NumTargets(false) {
		tg := testWorld.TargetAt(false, i)
		if tg.Kind != netsim.Unicast || len(tg.TempWindows) > 0 {
			continue
		}
		if a, ok := testWorld.ASByNumber(tg.Origin); !ok || a.TieSplit || a.Wobbly || a.Drifty {
			continue
		}
		code, doc := get(t, "/v1/prefix/"+tg.Prefix.String())
		if code != http.StatusOK {
			t.Fatalf("status %d", code)
		}
		if doc["in_census"] == true {
			t.Fatalf("clean unicast prefix in census: %v", doc)
		}
		return
	}
	t.Fatal("no clean unicast prefix")
}

func TestPrefixValidation(t *testing.T) {
	if code, _ := get(t, "/v1/prefix/not-a-prefix"); code != http.StatusBadRequest {
		t.Fatalf("bad prefix accepted: %d", code)
	}
}

func postMeasure(t *testing.T, body string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Post(testServer.URL+"/v1/measure", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, doc
}

func TestLiveMeasurementAnycast(t *testing.T) {
	tg := anycastPrefix(t)
	code, doc := postMeasure(t, `{"prefix":"`+tg.Prefix.String()+`"}`)
	if code != http.StatusOK {
		t.Fatalf("measure status %d: %v", code, doc)
	}
	if doc["responsive"] != true {
		t.Fatalf("target unresponsive: %v", doc)
	}
	if doc["anycast_based"] != true || doc["gcd_anycast"] != true {
		t.Fatalf("live measurement missed anycast: %v", doc)
	}
	if doc["probes_spent"].(float64) <= 0 {
		t.Fatal("no probing cost accounted")
	}
}

func TestLiveMeasurementUnknownPrefix(t *testing.T) {
	code, doc := postMeasure(t, `{"prefix":"203.0.113.0/24"}`)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if doc["responsive"] == true {
		t.Fatal("unknown prefix reported responsive")
	}
}

func TestLiveMeasurementValidation(t *testing.T) {
	if code, _ := postMeasure(t, `{"prefix":"banana"}`); code != http.StatusBadRequest {
		t.Fatalf("bad prefix accepted: %d", code)
	}
	if code, _ := postMeasure(t, `{`); code != http.StatusBadRequest {
		t.Fatalf("bad JSON accepted: %d", code)
	}
}

func TestNewServerValidation(t *testing.T) {
	if _, err := NewServer(nil, nil, nil, nil); err == nil {
		t.Fatal("nil dependencies accepted")
	}
}

// archiveServer builds a server backed by a 6-day packed archive.
func archiveServer(t testing.TB) (*Server, *httptest.Server, [][]byte) {
	t.Helper()
	d, err := platform.Tangled(testWorld, netsim.PolicyUnmodified)
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := core.NewPipeline(testWorld, core.Config{
		Deployment: d,
		GCDVPs:     func(day int, v6 bool) ([]netsim.VP, error) { return platform.Ark(testWorld, day, v6) },
	})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	aw, err := archive.Create(dir, archive.Options{SnapshotEvery: 3})
	if err != nil {
		t.Fatal(err)
	}
	var want [][]byte
	for day := 0; day < 6; day++ {
		c, err := pipe.RunDaily(day, false, core.DayOptions{})
		if err != nil {
			t.Fatal(err)
		}
		doc := c.Document()
		var buf bytes.Buffer
		if err := doc.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		want = append(want, buf.Bytes())
		if err := aw.Append(day, doc); err != nil {
			t.Fatal(err)
		}
	}
	if err := aw.Close(); err != nil {
		t.Fatal(err)
	}
	a, err := archive.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewServer(testWorld, d,
		func(day int, v6 bool) ([]netsim.VP, error) { return platform.Ark(testWorld, day, v6) },
		func() int { return 0 })
	if err != nil {
		t.Fatal(err)
	}
	s.Archive = a
	s.CacheSize = 2
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts, want
}

// TestCensusServedFromArchive proves archived days come back
// byte-identical to the published WriteJSON form, without re-running the
// pipeline, and that the decoded-day cache stays bounded.
func TestCensusServedFromArchive(t *testing.T) {
	s, ts, want := archiveServer(t)
	for _, day := range []int{5, 0, 3, 1, 4, 2, 5} {
		resp, err := http.Get(ts.URL + "/v1/census?day=" + strconv.Itoa(day))
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("day %d: status %d", day, resp.StatusCode)
		}
		if !bytes.Equal(body, want[day]) {
			t.Fatalf("day %d: served census is not byte-identical to the archive's canonical form", day)
		}
	}
	if n := cachedDays(s); n > 2 {
		t.Fatalf("decoded-day LRU holds %d days, bound is 2", n)
	}
}

// TestCensusConcurrentColdAndHot: archived days decode outside the
// server mutex, so readers of cold days, readers of a hot day and Reload
// run side by side (run under -race). Every response must equal the
// sequential one and the decoded-day LRU must hold its bound.
func TestCensusConcurrentColdAndHot(t *testing.T) {
	s, _, want := archiveServer(t) // 6 archived days behind a 2-entry LRU
	h := s.Handler()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 12; i++ {
				day := (g + i) % len(want) // a sweep: mostly cold
				if g%2 == 0 {
					day = 5 // half the readers stay on one hot day
				}
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/census?day="+strconv.Itoa(day), nil))
				if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want[day]) {
					t.Errorf("reader %d, day %d: status %d, body differs from the sequential response", g, day, rec.Code)
					return
				}
				if g == 1 && i%4 == 0 {
					s.Reload(s.currentView().arch, nil)
				}
			}
		}(g)
	}
	wg.Wait()
	if n := cachedDays(s); n > 2 {
		t.Fatalf("decoded-day LRU holds %d days, bound is 2", n)
	}
}

func TestDaysEndpoint(t *testing.T) {
	_, ts, _ := archiveServer(t)
	resp, err := http.Get(ts.URL + "/v1/days")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc struct {
		Family string `json:"family"`
		Days   []int  `json:"days"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.Family != "ipv4" || len(doc.Days) != 6 {
		t.Fatalf("days endpoint: %+v", doc)
	}
}

func TestRangeEndpointStreamsNDJSON(t *testing.T) {
	_, ts, _ := archiveServer(t)
	resp, err := http.Get(ts.URL + "/v1/range?from=1&to=4")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	dec := json.NewDecoder(resp.Body)
	days := 0
	for dec.More() {
		var doc core.Document
		if err := dec.Decode(&doc); err != nil {
			t.Fatal(err)
		}
		if doc.Family != "ipv4" || len(doc.Entries) == 0 {
			t.Fatalf("range document degenerate: %s %s", doc.Family, doc.Date)
		}
		days++
	}
	if days != 4 {
		t.Fatalf("range streamed %d days, want 4", days)
	}
}

func TestRangeRequiresArchive(t *testing.T) {
	resp, err := http.Get(testServer.URL + "/v1/range")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("range without archive: status %d", resp.StatusCode)
	}
}

// getCode fetches a path from ts and returns just the status code.
func getCode(t *testing.T, ts *httptest.Server, path string) int {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestRangeValidation pins the error paths: malformed and negative
// bounds, and an inverted from/to window.
func TestRangeValidation(t *testing.T) {
	_, ts, _ := archiveServer(t)
	for _, path := range []string{
		"/v1/range?from=zzz",
		"/v1/range?from=-1",
		"/v1/range?to=zzz",
		"/v1/range?from=4&to=1",
	} {
		if code := getCode(t, ts, path); code != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", path, code)
		}
	}
}

// TestDaysUnknownFamily: a family the archive does not carry is a 404,
// consistent with /v1/census and /v1/range — not an empty 200 list.
func TestDaysUnknownFamily(t *testing.T) {
	_, ts, _ := archiveServer(t) // packs ipv4 only
	if code := getCode(t, ts, "/v1/days?family=ipv6"); code != http.StatusNotFound {
		t.Fatalf("days for unarchived family: status %d, want 404", code)
	}
	if code := getCode(t, ts, "/v1/days?family=ipx"); code != http.StatusBadRequest {
		t.Fatalf("days for invalid family: status %d, want 400", code)
	}
}

// TestPrefixUnknownPrefix: a well-formed prefix the census never saw
// answers 200 with in_census=false (documented behaviour; /v1/measure
// is the live path).
func TestPrefixUnknownPrefix(t *testing.T) {
	code, doc := get(t, "/v1/prefix/203.0.113.0/24?day=0")
	if code != http.StatusOK {
		t.Fatalf("unknown prefix: status %d", code)
	}
	if doc["in_census"] == true {
		t.Fatalf("unknown prefix claims census membership: %v", doc)
	}
}

// TestRangeStreamsIncrementally: the NDJSON writer must flush after
// every record so long spans reach the client as they decode.
func TestRangeStreamsIncrementally(t *testing.T) {
	s, _, _ := archiveServer(t)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/range?from=0&to=5", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("range status %d", rec.Code)
	}
	if !rec.Flushed {
		t.Fatal("range response was never flushed mid-stream")
	}
}

// queryServer builds an archive-backed server with a timeline index.
func queryServer(t testing.TB) (*Server, *httptest.Server) {
	t.Helper()
	s, ts, _ := archiveServer(t)
	ix, err := query.Build(s.Archive, filepath.Join(t.TempDir(), "timeline.idx"))
	if err != nil {
		t.Fatal(err)
	}
	opened, err := query.Open(ix.Path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { opened.Close() })
	s.Query = opened
	return s, ts
}

// TestTimelineEndpoint serves a prefix timeline from the shared index.
func TestTimelineEndpoint(t *testing.T) {
	s, ts := queryServer(t)
	// Pick a prefix from the archive's first day.
	doc, err := s.Archive.Document("ipv4", 0)
	if err != nil {
		t.Fatal(err)
	}
	prefix := doc.Entries[0].Prefix

	resp, err := http.Get(ts.URL + "/v1/timeline/" + prefix)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("timeline status %d", resp.StatusCode)
	}
	var tl query.Timeline
	if err := json.NewDecoder(resp.Body).Decode(&tl); err != nil {
		t.Fatal(err)
	}
	if tl.Prefix != prefix || len(tl.Days) != 6 || !tl.Present[0] {
		t.Fatalf("timeline degenerate: %+v", tl)
	}
}

// TestQueryEndpointErrorPaths pins the 400/404 matrix of the three
// longitudinal endpoints.
func TestQueryEndpointErrorPaths(t *testing.T) {
	_, ts := queryServer(t)
	for path, want := range map[string]int{
		"/v1/timeline/not-a-prefix":           http.StatusBadRequest,
		"/v1/timeline/203.0.113.0/24":         http.StatusNotFound, // valid, never in census
		"/v1/timeline/1.2.3.0/24?family=ipx":  http.StatusBadRequest,
		"/v1/events?kind=explosion":           http.StatusBadRequest,
		"/v1/events?kind=onset,explosion":     http.StatusBadRequest,
		"/v1/events?limit=0":                  http.StatusBadRequest,
		"/v1/events?from=zzz":                 http.StatusBadRequest,
		"/v1/events?from=4&to=1":              http.StatusBadRequest,
		"/v1/events?hysteresis=0":             http.StatusBadRequest,
		"/v1/events?family=ipv6":              http.StatusNotFound, // ipv4-only index
		"/v1/stability":                       http.StatusBadRequest,
		"/v1/stability?prefix=banana":         http.StatusBadRequest,
		"/v1/stability?prefix=203.0.113.0/24": http.StatusNotFound,
	} {
		if code := getCode(t, ts, path); code != want {
			t.Fatalf("%s: status %d, want %d", path, code, want)
		}
	}
	// A server without an index 404s all three.
	for _, path := range []string{"/v1/timeline/1.2.3.0/24", "/v1/events", "/v1/stability?prefix=1.2.3.0/24"} {
		resp, err := http.Get(testServer.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s without index: status %d, want 404", path, resp.StatusCode)
		}
	}
}

// TestEventsAndStabilityEndpoints exercise the happy paths end to end.
func TestEventsAndStabilityEndpoints(t *testing.T) {
	s, ts := queryServer(t)
	resp, err := http.Get(ts.URL + "/v1/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events status %d", resp.StatusCode)
	}
	var out struct {
		Family string        `json:"family"`
		Count  int           `json:"count"`
		Events []query.Event `json:"events"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Family != "ipv4" || out.Count != len(out.Events) {
		t.Fatalf("events envelope: %+v", out)
	}

	// The comma-separated kind form the CLI teaches works over HTTP
	// too, and limit bounds the body while count keeps the total.
	resp3, err := http.Get(ts.URL + "/v1/events?kind=onset,offset,flap,site-churn,geo-shift&limit=2")
	if err != nil {
		t.Fatal(err)
	}
	defer resp3.Body.Close()
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("comma kinds + limit: status %d", resp3.StatusCode)
	}
	var limited struct {
		Count  int           `json:"count"`
		Events []query.Event `json:"events"`
	}
	if err := json.NewDecoder(resp3.Body).Decode(&limited); err != nil {
		t.Fatal(err)
	}
	if limited.Count != out.Count || len(limited.Events) > 2 {
		t.Fatalf("limit envelope: count %d (want %d), %d events in body", limited.Count, out.Count, len(limited.Events))
	}

	prefix := s.Query.Prefixes("ipv4")[0]
	resp2, err := http.Get(ts.URL + "/v1/stability?prefix=" + prefix)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var st query.Stability
	if err := json.NewDecoder(resp2.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if resp2.StatusCode != http.StatusOK || st.Prefix != prefix || st.DaysIndexed != 6 {
		t.Fatalf("stability: %d %+v", resp2.StatusCode, st)
	}
}

// cachedDays reports the decoded-day LRU's current size.
func cachedDays(s *Server) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dayCache().order.Len()
}
