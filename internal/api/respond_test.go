package api

// Tests for the one response path: the ordering contract over every
// registered route × outcome (the run-time successor of the httporder
// analyzer), validators never riding on errors, aborted streams counted
// as errors, and a fuzz target over route parameters.

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"github.com/laces-project/laces/internal/budget"
	"github.com/laces-project/laces/internal/netsim"
	"github.com/laces-project/laces/internal/obs"
	"github.com/laces-project/laces/internal/platform"
)

// strictRW is a ResponseWriter that records every breach of the
// response-writing contract instead of tolerating it the way net/http's
// own writer does.
type strictRW struct {
	hdr      http.Header
	sent     http.Header // the header map as it stood at WriteHeader
	status   int
	body     bytes.Buffer
	breaches []string
}

func newStrictRW() *strictRW { return &strictRW{hdr: make(http.Header)} }

func (w *strictRW) Header() http.Header { return w.hdr }

func (w *strictRW) WriteHeader(code int) {
	if w.status != 0 {
		w.breaches = append(w.breaches, fmt.Sprintf("second WriteHeader(%d) after %d", code, w.status))
		return
	}
	w.status, w.sent = code, w.hdr.Clone()
}

func (w *strictRW) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.breaches = append(w.breaches, "body byte before the status line")
	}
	return w.body.Write(p)
}

func (w *strictRW) Flush() {
	if w.status == 0 {
		w.breaches = append(w.breaches, "flush before the status line")
	}
}

// serveStrict runs one request through h and returns the recorder with
// every breach found, plus whether the handler aborted the connection.
func serveStrict(h http.Handler, r *http.Request) (w *strictRW, aborted bool) {
	w = newStrictRW()
	defer func() {
		if p := recover(); p != nil {
			if p != http.ErrAbortHandler {
				panic(p)
			}
			aborted = true
		}
		if w.status == 0 {
			w.breaches = append(w.breaches, "no status written")
		} else if !reflect.DeepEqual(w.hdr, w.sent) {
			w.breaches = append(w.breaches, fmt.Sprintf("header mutated after the status line: sent %v, now %v", w.sent, w.hdr))
		}
	}()
	h.ServeHTTP(w, r)
	return w, false
}

// bareServer has neither an archive nor an index attached; its clock pins
// day 0.
func bareServer(t *testing.T) *Server {
	t.Helper()
	d, err := platform.Tangled(testWorld, netsim.PolicyUnmodified)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewServer(testWorld, d,
		func(day int, v6 bool) ([]netsim.VP, error) { return platform.Ark(testWorld, day, v6) },
		func() int { return 0 })
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// brokenServer serves a 3-day archive (snapshot, delta, delta) whose
// day-1 file vanished after Open: day 0 decodes, days 1 and 2 cannot.
func brokenServer(t *testing.T) *Server {
	t.Helper()
	s, dir := packedServer(t, 3)
	gone, err := filepath.Glob(filepath.Join(dir, "ipv4-000001.*"))
	if err != nil || len(gone) != 1 {
		t.Fatalf("day-1 files %v (%v), want exactly one", gone, err)
	}
	if err := os.Remove(gone[0]); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestErrorsCarryNoValidators: a day the archive lists but cannot decode
// answers 500 without the day's ETag or its immutable cache policy — a
// cache must not be told to keep an error forever — while a client that
// already holds the tag still revalidates before any decode, and intact
// days are untouched.
func TestErrorsCarryNoValidators(t *testing.T) {
	h := brokenServer(t).Handler()
	for _, path := range []string{"/v1/census?day=1", "/v1/prefix/1.0.0.0/24?day=1"} {
		rec := fetch(t, h, path, "")
		if rec.Code != http.StatusInternalServerError {
			t.Fatalf("%s: status %d, want 500", path, rec.Code)
		}
		if etag, cc := rec.Header().Get("Etag"), rec.Header().Get("Cache-Control"); etag != "" || cc != "" {
			t.Errorf("%s: 500 carries Etag %q, Cache-Control %q; want neither", path, etag, cc)
		}
		if rec := fetch(t, h, path, "*"); rec.Code != http.StatusNotModified {
			t.Errorf("%s with If-None-Match: status %d, want the 304 that precedes the decode", path, rec.Code)
		}
	}
	ok := fetch(t, h, "/v1/census?day=0", "")
	if ok.Code != http.StatusOK || ok.Header().Get("Etag") == "" ||
		ok.Header().Get("Cache-Control") != "public, max-age=31536000, immutable" {
		t.Fatalf("intact day 0: status %d, headers %v", ok.Code, ok.Header())
	}
}

// TestAbortedStreamCountsAsError: a /v1/range whose second day fails to
// decode has already committed 200; it must abort the connection rather
// than end the body cleanly, and the route's error counter must see it.
func TestAbortedStreamCountsAsError(t *testing.T) {
	s := brokenServer(t)
	s.Obs = obs.New()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/range?from=0&to=2")
	if err != nil {
		t.Fatal(err)
	}
	_, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || err == nil {
		t.Fatalf("status %d, body read error %v; want 200 and a broken stream", resp.StatusCode, err)
	}
	for name, want := range map[string]int64{"laces_http_requests_total": 1, "laces_http_errors_total": 1} {
		if got := s.Obs.Counter(name, "", obs.L("route", "GET /v1/range")).Value(); got != want {
			t.Errorf("%s{route=GET /v1/range} = %d, want %d", name, got, want)
		}
	}
	if n := s.Obs.Histogram("laces_http_request_seconds", "", nil, obs.L("route", "GET /v1/range")).Count(); n != 1 {
		t.Errorf("latency histogram saw %d requests, want 1", n)
	}
}

// outcome is one request and what its response must look like.
type outcome struct {
	srv  string // which server: full, bare, broken, governed
	path string // request target; the method comes from the route pattern
	body string // request body (POST)
	want int    // status; 0 = 200 committed, then the connection aborted
	// validated marks a 200 that carries validators; the same request is
	// then repeated with its ETag and must answer 304.
	validated bool
	ctype     string // Content-Type of a 200 ("" = application/json)
}

// routeOutcomes lists, per registered pattern, the outcomes the route can
// produce. TestResponseOrder fails on a pattern missing here.
func routeOutcomes(prefix string) map[string][]outcome {
	const ndjson = "application/x-ndjson"
	esc := url.QueryEscape(prefix)
	return map[string][]outcome{
		"GET /v1/census": {
			{srv: "full", path: "/v1/census?day=2", want: 200, validated: true},
			{srv: "bare", path: "/v1/census", want: 200}, // computed live: nothing to validate against
			{srv: "full", path: "/v1/census?day=bogus", want: 400},
			{srv: "broken", path: "/v1/census?day=1", want: 500},
		},
		"GET /v1/days": {
			{srv: "full", path: "/v1/days", want: 200, validated: true},
			{srv: "full", path: "/v1/days?family=ipx", want: 400},
			{srv: "full", path: "/v1/days?family=ipv6", want: 404},
			{srv: "bare", path: "/v1/days", want: 404},
		},
		"GET /v1/range": {
			{srv: "full", path: "/v1/range?from=1&to=2", want: 200, validated: true, ctype: ndjson},
			{srv: "full", path: "/v1/range?from=4", want: 200, validated: true, ctype: ndjson},
			{srv: "full", path: "/v1/range?from=4&to=1", want: 400},
			{srv: "full", path: "/v1/range?family=ipv6", want: 404},
			{srv: "bare", path: "/v1/range", want: 404},
			// The span's validator is stamped before the second day fails.
			{srv: "broken", path: "/v1/range?from=0&to=2", want: 0, validated: true, ctype: ndjson},
		},
		"GET /v1/prefix/{prefix...}": {
			{srv: "full", path: "/v1/prefix/" + prefix + "?day=2", want: 200, validated: true},
			{srv: "full", path: "/v1/prefix/not-a-prefix", want: 400},
			{srv: "broken", path: "/v1/prefix/" + prefix + "?day=1", want: 500},
		},
		"GET /v1/timeline/{prefix...}": {
			{srv: "full", path: "/v1/timeline/" + prefix, want: 200, validated: true},
			{srv: "full", path: "/v1/timeline/not-a-prefix", want: 400},
			{srv: "full", path: "/v1/timeline/203.0.113.0/24", want: 404},
			{srv: "bare", path: "/v1/timeline/" + prefix, want: 404},
		},
		"GET /v1/events": {
			{srv: "full", path: "/v1/events?limit=2", want: 200, validated: true},
			{srv: "full", path: "/v1/events?kind=explosion", want: 400},
			{srv: "full", path: "/v1/events?page_token=garbage", want: 400},
			{srv: "full", path: "/v1/events?family=ipv6", want: 404},
			{srv: "bare", path: "/v1/events", want: 404},
		},
		"GET /v1/stability": {
			{srv: "full", path: "/v1/stability?prefix=" + esc, want: 200, validated: true},
			{srv: "full", path: "/v1/stability", want: 400},
			{srv: "full", path: "/v1/stability?prefix=203.0.113.0/24", want: 404},
			{srv: "bare", path: "/v1/stability?prefix=" + esc, want: 404},
		},
		"GET /v1/aggregates": {
			{srv: "full", path: "/v1/aggregates", want: 200, validated: true},
			{srv: "full", path: "/v1/aggregates?family=ipx", want: 400},
			{srv: "full", path: "/v1/aggregates?family=ipv6", want: 404},
			{srv: "bare", path: "/v1/aggregates", want: 404},
		},
		"GET /v1/responsibility": {
			{srv: "governed", path: "/v1/responsibility", want: 200},
			{srv: "full", path: "/v1/responsibility?day=bogus", want: 400},
			{srv: "full", path: "/v1/responsibility?day=2", want: 404}, // archived ungoverned
			{srv: "broken", path: "/v1/responsibility?day=1", want: 500},
		},
		"POST /v1/measure": {
			{srv: "bare", path: "/v1/measure", body: `{"prefix":"203.0.113.0/24"}`, want: 200},
			{srv: "bare", path: "/v1/measure", body: `{`, want: 400},
		},
		"GET /v1/healthz": {{srv: "bare", path: "/v1/healthz", want: 200}},
		"GET /metrics": {
			{srv: "full", path: "/metrics", want: 200, ctype: "text/plain; version=0.0.4; charset=utf-8"},
		},
		"GET /debug/trace": {
			{srv: "full", path: "/debug/trace", want: 200, ctype: ndjson},
			{srv: "full", path: "/debug/trace?format=chrome", want: 200},
			{srv: "full", path: "/debug/trace?format=bogus", want: 400},
		},
	}
}

// checkHeaders asserts, per outcome, which of Etag, Cache-Control,
// Content-Type and nosniff the response carries.
func checkHeaders(t *testing.T, w *strictRW, o outcome, status int) {
	t.Helper()
	get := func(k string) string { return strings.Join(w.sent[k], ",") }
	if got := get("X-Content-Type-Options"); got != "nosniff" {
		t.Errorf("X-Content-Type-Options %q, want nosniff", got)
	}
	validators := status == http.StatusNotModified || (status == http.StatusOK && o.validated)
	if etag, cc := get("Etag"), get("Cache-Control"); (etag != "") != validators || (cc != "") != validators {
		t.Errorf("Etag %q, Cache-Control %q; validators wanted: %v", etag, cc, validators)
	}
	wantCT := "application/json"
	switch {
	case status == http.StatusNotModified:
		wantCT = ""
	case status == http.StatusOK && o.ctype != "":
		wantCT = o.ctype
	}
	if got := get("Content-Type"); got != wantCT {
		t.Errorf("Content-Type %q, want %q", got, wantCT)
	}
	switch {
	case status == http.StatusNotModified:
		if w.body.Len() != 0 {
			t.Errorf("304 carried %d body bytes", w.body.Len())
		}
	case status >= 400:
		if !bytes.HasPrefix(w.body.Bytes(), []byte(`{"error":"`)) {
			t.Errorf("error body %q is not the typed JSON error", w.body.Bytes())
		}
	case w.body.Len() == 0:
		t.Error("200 with an empty body")
	}
}

// TestResponseOrder drives every pattern the route table registers,
// through Handler(), into a ResponseWriter that records a header
// mutation after the status line, a second WriteHeader, or a body byte
// before the status — over every outcome the route can produce — and
// checks which headers each outcome carries.
func TestResponseOrder(t *testing.T) {
	full, _ := queryServer(t)
	full.Obs = obs.New()
	full.Obs.StartTrace("serve").End() // an empty trace exports as an empty body
	governed := bareServer(t)
	governed.Govern(budget.Budget{DailyProbes: 1 << 50}, nil)
	handlers := map[string]http.Handler{
		"full":     full.Handler(),
		"bare":     bareServer(t).Handler(),
		"broken":   brokenServer(t).Handler(),
		"governed": governed.Handler(),
	}
	outcomes := routeOutcomes(full.Query.Prefixes("ipv4")[0])
	seen := map[int]bool{}
	for _, rt := range full.routes() {
		if len(outcomes[rt.pattern]) == 0 {
			t.Errorf("route %q has no outcomes listed in routeOutcomes", rt.pattern)
		}
		method, _, _ := strings.Cut(rt.pattern, " ")
		for _, o := range outcomes[rt.pattern] {
			t.Run(fmt.Sprintf("%s %s %s %d", o.srv, method, o.path, o.want), func(t *testing.T) {
				request := func(inm string) *http.Request {
					r := httptest.NewRequest(method, o.path, strings.NewReader(o.body))
					if inm != "" {
						r.Header.Set("If-None-Match", inm)
					}
					return r
				}
				w, aborted := serveStrict(handlers[o.srv], request(""))
				for _, b := range w.breaches {
					t.Error(b)
				}
				want := o.want
				if want == 0 {
					want = http.StatusOK
				}
				if w.status != want || aborted != (o.want == 0) {
					t.Fatalf("status %d (aborted %v), want %d: %s", w.status, aborted, o.want, w.body.Bytes())
				}
				seen[o.want] = true
				checkHeaders(t, w, o, w.status)
				if !o.validated {
					return
				}
				w, _ = serveStrict(handlers[o.srv], request(w.sent.Get("Etag")))
				for _, b := range w.breaches {
					t.Error(b)
				}
				if w.status != http.StatusNotModified {
					t.Fatalf("revalidation answered %d, want 304", w.status)
				}
				seen[w.status] = true
				checkHeaders(t, w, o, w.status)
			})
		}
	}
	for _, status := range []int{0, 200, 304, 400, 404, 500} {
		if !seen[status] {
			t.Errorf("no outcome exercised status %d (0 = mid-stream abort)", status)
		}
	}
}

// TestResponseOrderCatchesViolations plants each breach the recorder
// exists to catch and requires it to be reported — the recorder is the
// oracle of TestResponseOrder, so it is tested too. A route only ever
// holds the body's io.Writer; the planted ones reach the connection
// through it the one way a route could.
func TestResponseOrderCatchesViolations(t *testing.T) {
	s := bareServer(t)
	hijack := func(abuse func(http.ResponseWriter)) http.Handler {
		return s.serve(route{"GET /fake", func(*view, *http.Request) (answer, error) {
			return answer{ctype: ctJSON, stream: func(w io.Writer, _ func()) error {
				abuse(w.(http.ResponseWriter))
				return nil
			}}, nil
		}})
	}
	for name, tc := range map[string]struct {
		h    http.Handler
		want string
	}{
		"header after commit": {hijack(func(w http.ResponseWriter) { w.Header().Set("X-Late", "1") }), "header mutated"},
		"double WriteHeader":  {hijack(func(w http.ResponseWriter) { w.WriteHeader(http.StatusTeapot) }), "second WriteHeader"},
		"body before status": {http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			_, _ = w.Write([]byte("early"))
			w.WriteHeader(http.StatusOK)
		}), "body byte before"},
		"no response": {http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}), "no status"},
	} {
		w, _ := serveStrict(tc.h, httptest.NewRequest("GET", "/fake", nil))
		if len(w.breaches) != 1 || !strings.Contains(w.breaches[0], tc.want) {
			t.Errorf("%s: breaches %q, want one containing %q", name, w.breaches, tc.want)
		}
	}
	// A clean route reports nothing.
	if w, _ := serveStrict(hijack(func(http.ResponseWriter) {}), httptest.NewRequest("GET", "/fake", nil)); len(w.breaches) != 0 {
		t.Errorf("clean route: breaches %q", w.breaches)
	}
}

// TestReadmeListsEveryRoute: README's "API endpoints" table and the route
// table name the same endpoints.
func TestReadmeListsEveryRoute(t *testing.T) {
	readme, err := os.ReadFile(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(readme), "### API endpoints\n")
	if !ok {
		t.Fatal(`README has no "API endpoints" section`)
	}
	section, _, _ = strings.Cut(section, "\n## ")
	documented := map[string]bool{}
	for _, line := range strings.Split(section, "\n") {
		if cell, ok := strings.CutPrefix(line, "| `"); ok {
			documented[cell[:strings.IndexAny(cell, "?`")]] = true
		}
	}
	s := bareServer(t)
	s.Obs = obs.New()
	registered := map[string]bool{}
	for _, rt := range s.routes() {
		registered[strings.Replace(rt.pattern, "...}", "}", 1)] = true
	}
	if !reflect.DeepEqual(documented, registered) {
		t.Errorf("README documents %v\nroute table registers %v", documented, registered)
	}
}

// FuzzRouteParams throws arbitrary query strings, {prefix...} path values
// and If-None-Match headers at every GET route of a packed and indexed
// server: no input may panic a route or draw anything but 200, 304, 400
// or 404. Requests for a day the archive does not hold are left out —
// they would run a whole live census per input.
func FuzzRouteParams(f *testing.F) {
	s, _ := queryServer(f)
	prefix := s.Query.Prefixes("ipv4")[0]
	token := eventsPageOf(f, fetch(f, s.Handler(), "/v1/events?limit=1", "")).NextPageToken
	if token == "" {
		f.Fatal("test world produced fewer than two events; no page token to seed with")
	}
	for _, seed := range []struct{ query, prefix, inm string }{
		{"", prefix, ""},
		{"day=2", prefix, "*"},
		{"day=3&family=ipv4", "203.0.113.0/24", `"ipv4-3-00000000", "x"`},
		{"page_token=" + url.QueryEscape(token), prefix, ""},
		{"page_token=" + url.QueryEscape(pageToken{fp: s.currentView().fp, family: "ipv4", to: -1, limit: 1 << 62, offset: 1}.encode()), "", ""},
		{"prefix=" + url.QueryEscape(prefix), "not-a-prefix", ""},
		{"day=zzz", "1.2.3.0/24", ""}, {"family=ipx", "::/0", ""}, {"from=zzz", "", ""}, {"from=-1", "", ""},
		{"to=zzz", "", ""}, {"from=4&to=1", "", ""}, {"kind=explosion", "", ""}, {"kind=onset,explosion", "", ""},
		{"limit=0", "", ""}, {"hysteresis=0", "", ""}, {"prefix=banana", "", ""}, {"page_token=!!!not-base64!!!", "", ""},
		{"kind=onset&kind=flap,offset&from=1&to=4&hysteresis=2&limit=3", "", ""}, {"from=2", "", ""}, {"%zz&day=1;x", "%2f", ","},
	} {
		f.Add(seed.query, seed.prefix, seed.inm)
	}
	// The routes that serve a census day, live when it is not archived.
	dayKeyed := map[string]bool{"GET /v1/census": true, "GET /v1/prefix/{prefix...}": true, "GET /v1/responsibility": true}
	type handler struct {
		pattern string
		h       http.HandlerFunc
	}
	var handlers []handler
	for _, rt := range s.routes() {
		if strings.HasPrefix(rt.pattern, "GET ") {
			handlers = append(handlers, handler{rt.pattern, s.serve(rt)})
		}
	}
	archived := len(s.Archive.Days("ipv4"))
	f.Fuzz(func(t *testing.T, rawQuery, prefix, inm string) {
		r := &http.Request{Method: "GET", URL: &url.URL{Path: "/", RawQuery: rawQuery}, Header: http.Header{}}
		r.SetPathValue("prefix", prefix)
		if inm != "" {
			r.Header.Set("If-None-Match", inm)
		}
		q := r.URL.Query()
		day, err := strconv.Atoi(q.Get("day"))
		live := q.Get("family") == "ipv6" || (err == nil && day >= archived)
		for _, h := range handlers {
			if live && dayKeyed[h.pattern] {
				continue
			}
			w := httptest.NewRecorder()
			h.h(w, r)
			switch w.Code {
			case http.StatusOK, http.StatusNotModified, http.StatusBadRequest, http.StatusNotFound:
			default:
				t.Fatalf("%s ?%s prefix %q If-None-Match %q: status %d: %s", h.pattern, rawQuery, prefix, inm, w.Code, w.Body.Bytes())
			}
		}
	})
}
