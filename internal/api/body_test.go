package api

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
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
// families (snapshot cadence 3) and its timeline index.
func twoFamilyServer(t *testing.T) *Server {
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
	return s
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
	s := twoFamilyServer(t)
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
			all, err := ix.Events(fam, nil, w.from, w.to, query.EventOptions{})
			if err != nil {
				t.Fatal(err)
			}
			for _, kinds := range []string{"", "onset", "flap,offset", "geo-shift,site-churn"} {
				events := filterKinds(all, kinds)
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
	s := twoFamilyServer(t)
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
