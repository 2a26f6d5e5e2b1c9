package api

// Tests for the serving tier's caching layer: conditional requests,
// restart-stable validators, cursor pagination, snapshot-isolated
// reads and the zero-alloc 304 path.

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strconv"
	"sync"
	"testing"

	"github.com/laces-project/laces/internal/archive"
	"github.com/laces-project/laces/internal/core"
	"github.com/laces-project/laces/internal/longitudinal"
	"github.com/laces-project/laces/internal/netsim"
	"github.com/laces-project/laces/internal/platform"
	"github.com/laces-project/laces/internal/query"
)

// packedServer builds a server over a freshly packed archive and also
// returns the archive directory so tests can append to it.
func packedServer(t *testing.T, days int) (*Server, string) {
	t.Helper()
	d, err := platform.Tangled(testWorld, netsim.PolicyUnmodified)
	if err != nil {
		t.Fatal(err)
	}
	gcd := func(day int, v6 bool) ([]netsim.VP, error) { return platform.Ark(testWorld, day, v6) }
	pipe, err := core.NewPipeline(testWorld, core.Config{Deployment: d, GCDVPs: gcd})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	aw, err := archive.Create(dir, archive.Options{SnapshotEvery: 3})
	if err != nil {
		t.Fatal(err)
	}
	for day := 0; day < days; day++ {
		c, err := pipe.RunDaily(day, false, core.DayOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if err := aw.Append(day, c.Document()); err != nil {
			t.Fatal(err)
		}
	}
	if err := aw.Close(); err != nil {
		t.Fatal(err)
	}
	s := serverOver(t, dir)
	return s, dir
}

// serverOver opens the archive directory as a fresh Server — a process
// "restart" in test form.
func serverOver(t *testing.T, dir string) *Server {
	t.Helper()
	a, err := archive.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
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
	s.Archive = a
	return s
}

// fetch runs one request through the full handler chain and returns the
// recorder.
func fetch(t testing.TB, h http.Handler, path string, inm string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest("GET", path, nil)
	if inm != "" {
		req.Header.Set("If-None-Match", inm)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// TestConditionalCensusRequests pins the caching contract on archived
// days: strong ETag + immutable policy, 304 with an empty body on a
// matching If-None-Match (exact, list and wildcard forms), and a full
// 200 on a mismatch.
func TestConditionalCensusRequests(t *testing.T) {
	s, _ := packedServer(t, 4)
	h := s.Handler()
	first := fetch(t, h, "/v1/census?day=2", "")
	if first.Code != http.StatusOK {
		t.Fatalf("census status %d", first.Code)
	}
	etag := first.Header().Get("Etag")
	if etag == "" || etag[0] != '"' {
		t.Fatalf("archived census carries no strong ETag: %q", etag)
	}
	if cc := first.Header().Get("Cache-Control"); cc != "public, max-age=31536000, immutable" {
		t.Fatalf("archived census Cache-Control %q", cc)
	}
	for _, inm := range []string{etag, `"nope", ` + etag, "*"} {
		rec := fetch(t, h, "/v1/census?day=2", inm)
		if rec.Code != http.StatusNotModified {
			t.Fatalf("If-None-Match %q: status %d, want 304", inm, rec.Code)
		}
		if rec.Body.Len() != 0 {
			t.Fatalf("304 carried %d body bytes", rec.Body.Len())
		}
		if got := rec.Header().Get("Etag"); got != etag {
			t.Fatalf("304 ETag %q, want %q", got, etag)
		}
	}
	miss := fetch(t, h, "/v1/census?day=2", `"some-other-tag"`)
	if miss.Code != http.StatusOK || miss.Body.Len() == 0 {
		t.Fatalf("mismatched If-None-Match: status %d, %d bytes", miss.Code, miss.Body.Len())
	}
	// Same day, same bytes, same validator on every fetch.
	if again := fetch(t, h, "/v1/census?day=2", ""); again.Header().Get("Etag") != etag ||
		!bytes.Equal(again.Body.Bytes(), first.Body.Bytes()) {
		t.Fatal("repeated census fetch changed ETag or bytes")
	}
}

// TestEtagStableAcrossRestart: validators derive from pack-time content
// hashes, so a fresh process over the same archive mints identical
// ETags — the property that makes client caches survive deploys.
func TestEtagStableAcrossRestart(t *testing.T) {
	s1, dir := packedServer(t, 4)
	e1 := fetch(t, s1.Handler(), "/v1/census?day=3", "").Header().Get("Etag")
	d1 := fetch(t, s1.Handler(), "/v1/days", "").Header().Get("Etag")
	s2 := serverOver(t, dir)
	e2 := fetch(t, s2.Handler(), "/v1/census?day=3", "").Header().Get("Etag")
	d2 := fetch(t, s2.Handler(), "/v1/days", "").Header().Get("Etag")
	if e1 == "" || e1 != e2 {
		t.Fatalf("census ETag not restart-stable: %q vs %q", e1, e2)
	}
	if d1 == "" || d1 != d2 {
		t.Fatalf("days ETag not restart-stable: %q vs %q", d1, d2)
	}
}

// TestFreshEtagAfterAppend: appending a day and reloading changes the
// growing collection's validator (a cached /v1/days must revalidate to
// the new list) while leaving existing days' validators untouched.
func TestFreshEtagAfterAppend(t *testing.T) {
	s, dir := packedServer(t, 4)
	h := s.Handler()
	daysTag := fetch(t, h, "/v1/days", "").Header().Get("Etag")
	if cc := fetch(t, h, "/v1/days", "").Header().Get("Cache-Control"); cc != "public, no-cache" {
		t.Fatalf("days Cache-Control %q", cc)
	}
	if rec := fetch(t, h, "/v1/days", daysTag); rec.Code != http.StatusNotModified {
		t.Fatalf("days revalidation: status %d", rec.Code)
	}
	day2Tag := fetch(t, h, "/v1/census?day=2", "").Header().Get("Etag")

	// Append day 4 and publish the new generation.
	d, err := platform.Tangled(testWorld, netsim.PolicyUnmodified)
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := core.NewPipeline(testWorld, core.Config{Deployment: d,
		GCDVPs: func(day int, v6 bool) ([]netsim.VP, error) { return platform.Ark(testWorld, day, v6) }})
	if err != nil {
		t.Fatal(err)
	}
	c, err := pipe.RunDaily(4, false, core.DayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	aw, err := archive.OpenWriter(dir, archive.Options{SnapshotEvery: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := aw.Append(4, c.Document()); err != nil {
		t.Fatal(err)
	}
	if err := aw.Close(); err != nil {
		t.Fatal(err)
	}
	a2, err := archive.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	gen := s.Generation()
	s.Reload(a2, nil)
	if s.Generation() != gen+1 {
		t.Fatalf("generation %d after reload, want %d", s.Generation(), gen+1)
	}

	newTag := fetch(t, h, "/v1/days", "").Header().Get("Etag")
	if newTag == daysTag {
		t.Fatal("days ETag unchanged after appending a day")
	}
	if rec := fetch(t, h, "/v1/days", daysTag); rec.Code != http.StatusOK {
		t.Fatalf("stale days validator answered %d, want a full 200", rec.Code)
	}
	if got := fetch(t, h, "/v1/census?day=2", "").Header().Get("Etag"); got != day2Tag {
		t.Fatalf("immutable day's ETag changed across append: %q vs %q", got, day2Tag)
	}
	if rec := fetch(t, h, "/v1/census?day=4", ""); rec.Code != http.StatusOK ||
		rec.Header().Get("Etag") == "" {
		t.Fatalf("appended day not served with a validator: %d %q", rec.Code, rec.Header().Get("Etag"))
	}
}

// eventsPageOf decodes one /v1/events response body.
func eventsPageOf(t testing.TB, rec *httptest.ResponseRecorder) eventsPage {
	t.Helper()
	var p eventsPage
	if err := json.Unmarshal(rec.Body.Bytes(), &p); err != nil {
		t.Fatalf("events page: %v (%s)", err, rec.Body.Bytes())
	}
	return p
}

// TestEventsPaginationWalk: the cursor walk returns the full result set
// in order, pages are byte-identical across repeated walks, the last
// page carries no token, and an out-of-range window pages as empty.
func TestEventsPaginationWalk(t *testing.T) {
	s, ts := queryServer(t)
	h := s.Handler()
	_ = ts
	full := eventsPageOf(t, fetch(t, h, "/v1/events", ""))
	if full.Count == 0 {
		t.Fatal("test world produced no events; pagination test is vacuous")
	}
	walk := func() ([]query.Event, [][]byte, int) {
		var events []query.Event
		var pages [][]byte
		path := "/v1/events?limit=2"
		for {
			rec := fetch(t, h, path, "")
			if rec.Code != http.StatusOK {
				t.Fatalf("walk %s: status %d (%s)", path, rec.Code, rec.Body.Bytes())
			}
			pages = append(pages, append([]byte(nil), rec.Body.Bytes()...))
			p := eventsPageOf(t, rec)
			if len(p.Events) > 2 {
				t.Fatalf("page holds %d events, limit 2", len(p.Events))
			}
			if p.Count != full.Count {
				t.Fatalf("page count %d, want total %d on every page", p.Count, full.Count)
			}
			events = append(events, p.Events...)
			if p.NextPageToken == "" {
				if len(p.Events) == 0 && full.Count%2 != 0 {
					t.Fatal("dangling empty last page")
				}
				return events, pages, p.Count
			}
			path = "/v1/events?page_token=" + url.QueryEscape(p.NextPageToken)
		}
	}
	got1, pages1, count := walk()
	_, pages2, _ := walk()
	if count != full.Count || len(got1) != full.Count {
		t.Fatalf("walk yielded %d events, full list has %d", len(got1), full.Count)
	}
	b1, _ := json.Marshal(got1)
	bFull, _ := json.Marshal(full.Events)
	if !bytes.Equal(b1, bFull) {
		t.Fatal("concatenated pages differ from the unpaginated result")
	}
	if len(pages1) != len(pages2) {
		t.Fatalf("repeated walk: %d vs %d pages", len(pages1), len(pages2))
	}
	for i := range pages1 {
		if !bytes.Equal(pages1[i], pages2[i]) {
			t.Fatalf("page %d not byte-identical across walks", i)
		}
	}
	// A window past the archived days pages as an empty, tokenless set.
	empty := eventsPageOf(t, fetch(t, h, "/v1/events?limit=5&from=1000&to=2000", ""))
	if empty.Count != 0 || len(empty.Events) != 0 || empty.NextPageToken != "" {
		t.Fatalf("empty window page: %+v", empty)
	}
	if !bytes.Contains(fetch(t, h, "/v1/events?limit=5&from=1000&to=2000", "").Body.Bytes(), []byte(`"events":[]`)) {
		t.Fatal("empty page must serialize events as [], not null")
	}
}

// TestEventsPageTokenValidation pins the 400 matrix: garbage tokens,
// checksum-forged tokens, cursors from a different index build, and
// offsets past the result set.
func TestEventsPageTokenValidation(t *testing.T) {
	s, _ := queryServer(t)
	h := s.Handler()
	fp := s.currentView().fp
	if fp == "" {
		t.Fatal("no index fingerprint")
	}
	cases := map[string]string{
		"not base64":   "!!!not-base64!!!",
		"bad checksum": base64.RawURLEncoding.EncodeToString([]byte("v1|" + fp + "|ipv4||0|-1|0|2|0|deadbeef")),
		"truncated":    base64.RawURLEncoding.EncodeToString([]byte("v1|hello")),
		"stale fingerprint": pageToken{
			fp: "0123456789abcdef", family: "ipv4", to: -1, limit: 2,
		}.encode(),
		"offset past result set": pageToken{
			fp: fp, family: "ipv4", to: -1, limit: 2, offset: 1 << 30,
		}.encode(),
		"zero limit": pageToken{fp: fp, family: "ipv4", to: -1}.encode(),
	}
	for name, token := range cases {
		rec := fetch(t, h, "/v1/events?page_token="+url.QueryEscape(token), "")
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", name, rec.Code, rec.Body.Bytes())
		}
	}
	// The stale-cursor rejection names the remedy.
	rec := fetch(t, h, "/v1/events?page_token="+url.QueryEscape(cases["stale fingerprint"]), "")
	if !bytes.Contains(rec.Body.Bytes(), []byte("restart pagination")) {
		t.Fatalf("stale cursor error unhelpful: %s", rec.Body.Bytes())
	}
	// A forged cursor whose limit overflows offset+limit is still a legal
	// "the rest": 200 with the remainder and no next token (the checksum
	// salt is public, so anyone can mint this; it used to panic).
	full := eventsPageOf(t, fetch(t, h, "/v1/events", ""))
	if full.Count < 2 {
		t.Fatalf("test world produced %d events; the remainder case is vacuous", full.Count)
	}
	huge := pageToken{fp: fp, family: "ipv4", to: -1, limit: math.MaxInt, offset: 1}.encode()
	rec = fetch(t, h, "/v1/events?page_token="+url.QueryEscape(huge), "")
	if rec.Code != http.StatusOK {
		t.Fatalf("huge limit: status %d, want 200 (%s)", rec.Code, rec.Body.Bytes())
	}
	rest := eventsPageOf(t, rec)
	if rest.Count != full.Count || rest.NextPageToken != "" || !reflect.DeepEqual(rest.Events, full.Events[1:]) {
		t.Fatalf("huge limit: %d of %d events, next %q; want the remainder after the first and no token",
			len(rest.Events), rest.Count, rest.NextPageToken)
	}
}

// forgeToken mints a cursor with a valid checksum around an arbitrary
// payload — what any client can do, since the salt is public.
func forgeToken(payload string) string {
	sum := crc32.ChecksumIEEE([]byte(payload)) ^ pageTokenSalt
	return base64.RawURLEncoding.EncodeToString([]byte(fmt.Sprintf("%s|%08x", payload, sum)))
}

// FuzzDecodePageToken: no input makes the decoder or the page arithmetic
// panic, with or without a valid checksum; an accepted token re-encodes
// to one that decodes to the same value; and the page an accepted token
// selects lies inside the result set whatever its size.
func FuzzDecodePageToken(f *testing.F) {
	f.Add(pageToken{fp: "abc", family: "ipv4", kinds: "flap,onset", to: -1, hysteresis: 2, limit: 10, offset: 20}.encode(),
		"v1|abc|ipv4||0|-1|0|2|0", "abc", 35)
	f.Add("!!!not-base64!!!", "v1|abc|ipv6|onset|3|9|0|9223372036854775807|1", "abc", 5)
	f.Add("", "v1|abc|ipv4||0|-1|0|+1|9223372036854775807", "abc", 0)
	f.Add("djF8aGVsbG8", "v1|hello", "", -1)
	f.Fuzz(func(t *testing.T, raw, payload, fp string, total int) {
		if total < 0 {
			total = -(total + 1)
		}
		for _, in := range []string{raw, forgeToken(payload)} {
			tok, err := decodePageToken(in, fp)
			if err != nil {
				continue
			}
			again, err := decodePageToken(tok.encode(), fp)
			if err != nil || again != tok {
				t.Fatalf("%+v re-encodes to %+v (%v)", tok, again, err)
			}
			end, ok := tok.pageEnd(total)
			switch {
			case !ok:
				if tok.offset <= total {
					t.Fatalf("%+v rejected for a result set of %d", tok, total)
				}
			case end < tok.offset || end > total || end-tok.offset > tok.limit ||
				(end < total && end-tok.offset != tok.limit):
				t.Fatalf("%+v over %d events: page ends at %d", tok, total, end)
			}
		}
	})
}

// TestAggregatesEndpoint: the materialized dashboard block serves from
// the sidecar (precomputed=true via the normal Build path), revalidates
// against the index fingerprint, and 404s for an unindexed family.
func TestAggregatesEndpoint(t *testing.T) {
	s, _ := queryServer(t)
	h := s.Handler()
	rec := fetch(t, h, "/v1/aggregates", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("aggregates status %d: %s", rec.Code, rec.Body.Bytes())
	}
	var doc struct {
		Fingerprint string                 `json:"fingerprint"`
		Precomputed bool                   `json:"precomputed"`
		Aggregates  query.FamilyAggregates `json:"aggregates"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if !doc.Precomputed {
		t.Fatal("Build-produced sidecar not used: precomputed=false")
	}
	if doc.Aggregates.Family != "ipv4" || doc.Aggregates.Days != 6 ||
		len(doc.Aggregates.Series) != 6 || len(doc.Aggregates.Stability.Buckets) != 10 {
		t.Fatalf("aggregates degenerate: %+v", doc.Aggregates)
	}
	if doc.Aggregates.Churn.Events == 0 {
		t.Fatal("churn summary counted no events")
	}
	etag := rec.Header().Get("Etag")
	if rec2 := fetch(t, h, "/v1/aggregates", etag); rec2.Code != http.StatusNotModified {
		t.Fatalf("aggregates revalidation: status %d", rec2.Code)
	}
	if code := fetch(t, h, "/v1/aggregates?family=ipv6", "").Code; code != http.StatusNotFound {
		t.Fatalf("aggregates for unindexed family: %d, want 404", code)
	}
}

// allocFreeRW is a reusable ResponseWriter whose per-request work is
// two map assignments and an int store — the measurement harness for
// the zero-alloc 304 path.
type allocFreeRW struct {
	hdr    http.Header
	status int
}

func (w *allocFreeRW) Header() http.Header         { return w.hdr }
func (w *allocFreeRW) WriteHeader(c int)           { w.status = c }
func (w *allocFreeRW) Write(p []byte) (int, error) { return len(p), nil }

// TestConditionalRequestZeroAlloc: a conditional GET that answers 304 —
// for an archived day, and for an index-keyed response — allocates
// nothing from the route through respond: the property that makes
// high-rate dashboard revalidation effectively free. Guards the
// precomputed-header design in cache.go and the by-value answer.
func TestConditionalRequestZeroAlloc(t *testing.T) {
	s, _ := queryServer(t) // Clock pins day 0, so /v1/census hits an archived day
	table := map[string]route{}
	for _, rt := range s.routes() {
		table[rt.pattern] = rt
	}
	for _, path := range []string{"/v1/census", "/v1/aggregates"} {
		rt, ok := table["GET "+path]
		if !ok {
			t.Fatalf("no route registered for %s", path)
		}
		// Prime the view and learn the validator.
		prime := fetch(t, s.Handler(), path, "")
		etag := prime.Header().Get("Etag")
		if prime.Code != http.StatusOK || etag == "" {
			t.Fatalf("prime %s: %d %q", path, prime.Code, etag)
		}
		u, err := url.Parse(path)
		if err != nil {
			t.Fatal(err)
		}
		r := &http.Request{
			Method: "GET", URL: u,
			Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
			Header: http.Header{"If-None-Match": {etag}},
		}
		w := &allocFreeRW{hdr: make(http.Header, 8)}
		h := s.serve(rt)
		allocs := testing.AllocsPerRun(500, func() {
			w.status = 0
			h(w, r)
		})
		if w.status != http.StatusNotModified {
			t.Fatalf("conditional %s answered %d, want 304", path, w.status)
		}
		if allocs != 0 {
			t.Fatalf("conditional 304 on %s allocates %.1f times per request, want 0", path, allocs)
		}
	}
}

// reloadSink appends each finished census day to the archive and
// immediately publishes a new serving generation — the live side of the
// snapshot-isolation race test.
type reloadSink struct {
	t   *testing.T
	aw  *archive.Writer
	dir string
	s   *Server
}

func (rs *reloadSink) Append(day int, doc *core.Document) error {
	if err := rs.aw.Append(day, doc); err != nil {
		return err
	}
	a, err := archive.Open(rs.dir)
	if err != nil {
		return err
	}
	rs.s.Reload(a, nil)
	return nil
}

// TestSnapshotIsolatedReadsDuringAppend: readers hammer the API while a
// longitudinal census appends days and reloads the serving generation
// after each one. Run under -race in CI. Every response a reader sees
// must be internally consistent: listed days always serve 200 with a
// validator, and a given ETag always names the same body.
func TestSnapshotIsolatedReadsDuringAppend(t *testing.T) {
	dir := t.TempDir()
	aw, err := archive.Create(dir, archive.Options{SnapshotEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
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
	h := s.Handler()

	done := make(chan struct{})
	var wg sync.WaitGroup
	var mu sync.Mutex
	seen := map[string]string{} // ETag -> body digest; must never conflict
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/days", nil))
				if rec.Code != http.StatusOK {
					continue // no archive generation published yet
				}
				var doc struct {
					Days []int `json:"days"`
				}
				if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
					t.Errorf("days body: %v", err)
					return
				}
				for _, day := range doc.Days {
					cr := httptest.NewRecorder()
					h.ServeHTTP(cr, httptest.NewRequest("GET", "/v1/census?day="+strconv.Itoa(day), nil))
					if cr.Code != http.StatusOK {
						t.Errorf("listed day %d answered %d", day, cr.Code)
						return
					}
					etag := cr.Header().Get("Etag")
					if etag == "" {
						t.Errorf("listed day %d served without a validator", day)
						return
					}
					digest := strconv.Itoa(cr.Body.Len()) + ":" + strconv.FormatUint(uint64(crcOf(cr.Body.Bytes())), 16)
					mu.Lock()
					if prev, ok := seen[etag]; ok && prev != digest {
						mu.Unlock()
						t.Errorf("ETag %q named two different bodies", etag)
						return
					}
					seen[etag] = digest
					mu.Unlock()
				}
			}
		}()
	}

	_, err = longitudinal.Run(testWorld, longitudinal.Config{
		Days:   4,
		Stride: 1,
		Sink:   &reloadSink{t: t, aw: aw, dir: dir, s: s},
	})
	close(done)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if err := aw.Close(); err != nil {
		t.Fatal(err)
	}
	if s.Generation() < 4 {
		t.Fatalf("only %d generations published for 4 appended days", s.Generation())
	}
	if len(seen) == 0 {
		t.Fatal("readers never observed an archived day")
	}
}

func crcOf(b []byte) uint32 {
	h := crc32.New(castagnoli)
	h.Write(b)
	return h.Sum32()
}
