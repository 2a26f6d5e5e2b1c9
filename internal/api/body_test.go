package api

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"slices"
	"strconv"
	"sync"
	"testing"

	"github.com/laces-project/laces/internal/archive"
	"github.com/laces-project/laces/internal/core"
	"github.com/laces-project/laces/internal/netsim"
	"github.com/laces-project/laces/internal/platform"
	"github.com/laces-project/laces/internal/query"
)

// twoFamilyServer builds a server over a six-day archive of both
// families (snapshot cadence 3) and its timeline index, and returns the
// archive's directory.
func twoFamilyServer(t *testing.T) (*Server, string) {
	t.Helper()
	d, err := platform.Tangled(testWorld, netsim.PolicyUnmodified)
	if err != nil {
		t.Fatal(err)
	}
	vps := func(day int, v6 bool) ([]netsim.VP, error) { return platform.Ark(testWorld, day, v6) }
	pipe, err := core.NewPipeline(testWorld, core.Config{Deployment: d, GCDVPs: vps})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	aw, err := archive.Create(dir, archive.Options{SnapshotEvery: 3})
	if err != nil {
		t.Fatal(err)
	}
	for day := 0; day < 6; day++ {
		for _, v6 := range []bool{false, true} {
			c, err := pipe.RunDaily(day, v6, core.DayOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if err := aw.Append(day, c.Document()); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := aw.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := query.BuildDir(dir); err != nil {
		t.Fatal(err)
	}
	ix, err := query.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewServer(testWorld, d, vps, func() int { return 5 })
	if err != nil {
		t.Fatal(err)
	}
	s.Archive, s.Query = ix.Archive(), ix
	return s, dir
}

// encoded is the body json.NewEncoder writes for v.
func encoded(t *testing.T, v any) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := json.NewEncoder(&b).Encode(v); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestIndexBodiesMatchEncodingJSON: the bodies /v1/timeline,
// /v1/stability and /v1/events append are byte-equal to what
// json.NewEncoder writes for the same values — every prefix of both
// families, and events pages over several windows, kind sets and page
// sizes, followed to their last page.
func TestIndexBodiesMatchEncodingJSON(t *testing.T) {
	s, _ := twoFamilyServer(t)
	h, ix := s.Handler(), s.Query
	get := func(path string) []byte {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", path, rec.Code, rec.Body.Bytes())
		}
		return rec.Body.Bytes()
	}
	for _, fam := range []string{"ipv4", "ipv6"} {
		prefixes := ix.Prefixes(fam)
		if len(prefixes) == 0 {
			t.Fatalf("no %s prefixes indexed", fam)
		}
		for _, p := range prefixes {
			tl, err := ix.Timeline(fam, p)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := get("/v1/timeline/"+p+"?family="+fam), encoded(t, tl); !bytes.Equal(got, want) {
				t.Fatalf("%s timeline of %s:\n%s\nencoding/json writes\n%s", fam, p, got, want)
			}
			st, err := ix.Stability(fam, p)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := get("/v1/stability?prefix="+url.QueryEscape(p)+"&family="+fam), encoded(t, st); !bytes.Equal(got, want) {
				t.Fatalf("%s stability of %s:\n%s\nencoding/json writes\n%s", fam, p, got, want)
			}
		}
	}

	fp := s.currentView().fp
	pages := 0
	for _, fam := range []string{"ipv4", "ipv6"} {
		for _, w := range []struct{ from, to int }{{0, -1}, {1, 3}, {4, 4}, {5, -1}, {0, 0}} {
			for _, kinds := range []string{"", "onset", "flap,offset", "geo-shift,site-churn"} {
				events, err := ix.Events(fam, kindList(kinds), w.from, w.to, query.EventOptions{})
				if err != nil {
					t.Fatal(err)
				}
				for _, limit := range []int{0, 1, 3} {
					q := url.Values{"family": {fam}, "from": {strconv.Itoa(w.from)}}
					if w.to >= 0 {
						q.Set("to", strconv.Itoa(w.to))
					}
					if kinds != "" {
						q.Set("kind", kinds)
					}
					if limit > 0 {
						q.Set("limit", strconv.Itoa(limit))
					}
					path := "/v1/events?" + q.Encode()
					for offset := 0; ; {
						end := len(events)
						if limit > 0 {
							end = min(offset+limit, len(events))
						}
						want := eventsPage{Family: fam, Count: len(events), Events: events[offset:end]}
						if want.Events == nil {
							want.Events = []query.Event{}
						}
						if end < len(events) {
							next := pageToken{fp: fp, family: fam, kinds: kinds, from: w.from, to: w.to, limit: limit, offset: end}
							want.NextPageToken = next.encode()
						}
						if got, wantB := get(path), encoded(t, &want); !bytes.Equal(got, wantB) {
							t.Fatalf("%s:\n%s\nencoding/json writes\n%s", path, got, wantB)
						}
						pages++
						if want.NextPageToken == "" {
							break
						}
						offset, path = end, "/v1/events?page_token="+want.NextPageToken
					}
				}
			}
		}
	}
	t.Logf("%d events pages compared", pages)

	// A page holding no slice at all, which no route serves, still
	// writes encoding/json's null.
	page := &eventsPage{Family: "ipv4"}
	got, err := page.AppendJSON(nil)
	if want := encoded(t, page); err != nil || !bytes.Equal(append(got, '\n'), want) {
		t.Fatalf("a nil events page: %s (%v), encoding/json writes %s", got, err, want)
	}
}

// TestIndexBodiesConcurrent: requests running side by side share the
// pooled body buffers, the pooled scan rows, the index image and the
// archive's read buffers (run under -race); every body must equal the
// one the same request got alone, under the ETag it had alone. The
// readers call the handler in process, or go through a real socket with
// one shared http.Client; those send every other request with that
// ETag, which must answer 304 with an empty body.
func TestIndexBodiesConcurrent(t *testing.T) {
	s, _ := twoFamilyServer(t)
	h := s.Handler()
	ts := httptest.NewServer(h)
	defer ts.Close()
	inProcess := func(path, inm string) (int, string, []byte) {
		req := httptest.NewRequest(http.MethodGet, path, nil)
		if inm != "" {
			req.Header.Set("If-None-Match", inm)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec.Code, rec.Header().Get("Etag"), rec.Body.Bytes()
	}
	overSocket := func(path, inm string) (int, string, []byte) {
		req, err := http.NewRequest(http.MethodGet, ts.URL+path, nil)
		if err != nil {
			t.Error(err)
			return 0, "", nil
		}
		if inm != "" {
			req.Header.Set("If-None-Match", inm)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Error(err)
			return 0, "", nil
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Error(err)
		}
		return resp.StatusCode, resp.Header.Get("Etag"), body
	}
	var paths []string
	for _, fam := range []string{"ipv4", "ipv6"} {
		for _, p := range s.Query.Prefixes(fam)[:20] {
			paths = append(paths,
				"/v1/timeline/"+p+"?family="+fam,
				"/v1/stability?prefix="+url.QueryEscape(p)+"&family="+fam)
		}
		paths = append(paths, "/v1/events?family="+fam, "/v1/events?limit=5&from=2&family="+fam,
			"/v1/range?from=1&to=4&family="+fam, "/v1/census?day=2&family="+fam)
	}
	want := make([][]byte, len(paths))
	etags := make([]string, len(paths))
	for i, p := range paths {
		var status int
		if status, etags[i], want[i] = inProcess(p, ""); status != http.StatusOK {
			t.Fatalf("%s: not a 200", p)
		}
	}
	for _, c := range []struct {
		name       string
		get        func(path, inm string) (int, string, []byte)
		revalidate bool
	}{
		{"in-process", inProcess, false},
		{"socket", overSocket, true},
	} {
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := range paths {
					k := (i*(g+1) + g) % len(paths)
					inm := ""
					if c.revalidate && i%2 == 1 {
						inm = etags[k]
					}
					status, tag, got := c.get(paths[k], inm)
					switch {
					case tag != etags[k]:
						t.Errorf("%s reader %d, %s: ETag %s, want the %s it had alone", c.name, g, paths[k], tag, etags[k])
						return
					case inm != "" && (status != http.StatusNotModified || len(got) != 0):
						t.Errorf("%s reader %d, %s with its ETag: status %d, %d body bytes; want 304 and none", c.name, g, paths[k], status, len(got))
						return
					case inm == "" && (status != http.StatusOK || !bytes.Equal(got, want[k])):
						t.Errorf("%s reader %d, %s: status %d, body differs from the one served alone", c.name, g, paths[k], status)
						return
					}
				}
			}(g)
		}
		wg.Wait()
	}
}

// TestEventsPagesConcatenateToTheWindow: for every window of the
// archive's days, closed or open-ended, and two page sizes, the
// /v1/events pages followed to the last concatenate to the events of the
// family's full-history list that fall in the window, in order.
func TestEventsPagesConcatenateToTheWindow(t *testing.T) {
	s, _ := twoFamilyServer(t)
	h := s.Handler()
	for _, fam := range []string{"ipv4", "ipv6"} {
		full := eventsPageOf(t, fetch(t, h, "/v1/events?family="+fam, ""))
		if full.Count == 0 {
			t.Fatalf("no %s events: the test is vacuous", fam)
		}
		days := s.Archive.Days(fam)
		for a, from := range days {
			for _, to := range append(slices.Clone(days[a:]), -1) {
				var want []query.Event
				for _, e := range full.Events {
					if e.Day >= from && (to < 0 || e.Day <= to) {
						want = append(want, e)
					}
				}
				for _, limit := range []int{1, 4} {
					path := fmt.Sprintf("/v1/events?family=%s&from=%d&limit=%d", fam, from, limit)
					if to >= 0 {
						path += fmt.Sprintf("&to=%d", to)
					}
					var got []query.Event
					for {
						rec := fetch(t, h, path, "")
						if rec.Code != http.StatusOK {
							t.Fatalf("%s: status %d (%s)", path, rec.Code, rec.Body.Bytes())
						}
						p := eventsPageOf(t, rec)
						if p.Count != len(want) {
							t.Fatalf("%s: count %d, want %d", path, p.Count, len(want))
						}
						got = append(got, p.Events...)
						if p.NextPageToken == "" {
							break
						}
						path = "/v1/events?page_token=" + url.QueryEscape(p.NextPageToken)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s [%d,%d] in pages of %d: %d events, want the window's %d", fam, from, to, limit, len(got), len(want))
					}
				}
			}
		}
	}
}

// TestEventsConcurrentFirstRequests: first requests for both families
// and three hysteresis values, side by side on a fresh index (run under
// -race), each get the body a second fresh index serves alone, and each
// family's list is scanned once per hysteresis however many requests
// ask for it at once.
func TestEventsConcurrentFirstRequests(t *testing.T) {
	s, dir := twoFamilyServer(t)
	ref := serverOver(t, dir)
	ref.Query = openIndexDir(t, dir)
	var paths []string
	for _, fam := range []string{"ipv4", "ipv6"} {
		for _, hy := range []int{1, 2, 3} {
			for _, w := range []string{"", "&from=1&to=3", "&from=4&limit=2", "&kind=onset,offset"} {
				paths = append(paths, fmt.Sprintf("/v1/events?family=%s&hysteresis=%d%s", fam, hy, w))
			}
		}
	}
	const readers = 3
	h := s.Handler()
	got := make([][]byte, readers*len(paths))
	var wg sync.WaitGroup
	for g := range readers {
		for i := range paths {
			wg.Add(1)
			go func(k int, path string) {
				defer wg.Done()
				rec := fetch(t, h, path, "")
				if rec.Code != http.StatusOK {
					t.Errorf("%s: status %d", path, rec.Code)
				}
				got[k] = rec.Body.Bytes()
			}(g*len(paths)+i, paths[(i+g)%len(paths)])
		}
	}
	wg.Wait()
	rh := ref.Handler()
	for g := range readers {
		for i := range paths {
			path := paths[(i+g)%len(paths)]
			if want := fetch(t, rh, path, "").Body.Bytes(); !bytes.Equal(got[g*len(paths)+i], want) {
				t.Errorf("%s asked side by side: body differs from the one a fresh index serves alone", path)
			}
		}
	}
	rows := int64(len(s.Query.Prefixes("ipv4")) + len(s.Query.Prefixes("ipv6")))
	if scanned, _ := s.Query.EventScanStats(); scanned != 3*rows {
		t.Errorf("%d rows scanned, want each family's %d rows once per hysteresis (%d)", scanned, rows, 3*rows)
	}
}
