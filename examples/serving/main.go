// Serving: the high-traffic serving tier end to end — archive a census
// run, build the timeline index (which materializes the aggregates
// sidecar), stand up the HTTP API in-process, and send it a few requests
// through net/http/httptest. They show two of the tier's contracts: an
// archived day carries a strong ETag, and revalidating it answers 304
// with no body; and /v1/events paginates with opaque cursors, so walking
// the pages twice by next_page_token yields byte-identical pages. Any
// other status exits non-zero.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"

	laces "github.com/laces-project/laces"
)

func main() {
	world, err := laces.NewWorld(laces.TestConfig())
	if err != nil {
		log.Fatal(err)
	}
	dir, err := os.MkdirTemp("", "laces-serving-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// Produce and index a 30-day census archive.
	const days = 30
	w, err := laces.CreateArchive(dir, laces.CensusArchiveOptions{SnapshotEvery: 7})
	if err != nil {
		log.Fatal(err)
	}
	if _, err := laces.RunLongitudinalInto(world, days, 1, w); err != nil {
		log.Fatal(err)
	}
	if err := w.Close(); err != nil {
		log.Fatal(err)
	}
	if _, err := laces.BuildCensusIndex(dir); err != nil {
		log.Fatal(err)
	}

	// Open the serving handles and the materialized aggregates.
	a, err := laces.OpenArchive(dir)
	if err != nil {
		log.Fatal(err)
	}
	ix, err := laces.OpenCensusIndex(dir)
	if err != nil {
		log.Fatal(err)
	}
	defer ix.Close()
	ag, err := laces.QueryAggregates(ix)
	if err != nil {
		log.Fatal(err)
	}
	fa := ag.Family("ipv4")
	fmt.Printf("materialized aggregates: %d days, %d prefixes, %d events, mean stability %.3f (precomputed=%v)\n",
		fa.Days, fa.Prefixes, fa.Churn.Events, fa.Stability.Mean, ix.AggregatesPrecomputed())

	// Stand up the serving tier in-process.
	dep, err := laces.Tangled(world)
	if err != nil {
		log.Fatal(err)
	}
	srv, err := laces.NewCensusAPIServer(world, dep, laces.ArkVPs(world), nil)
	if err != nil {
		log.Fatal(err)
	}
	srv.Archive = a
	srv.Query = ix

	h := srv.Handler()

	// One archived day, then its revalidation.
	day := fmt.Sprintf("/v1/census?day=%d&family=ipv4", a.Days("ipv4")[days/2])
	etag, b := get(h, day, "", http.StatusOK)
	fmt.Printf("%s: 200, %d bytes, ETag %s\n", day, len(b), etag)
	get(h, day, etag, http.StatusNotModified)
	fmt.Printf("%s with If-None-Match: 304 Not Modified\n", day)

	// The events list, paged twice by next_page_token.
	walk := func() (pages [][]byte) {
		path := "/v1/events?limit=50"
		for {
			_, b := get(h, path, "", http.StatusOK)
			pages = append(pages, b)
			var page struct {
				NextPageToken string `json:"next_page_token"`
			}
			if err := json.Unmarshal(b, &page); err != nil {
				log.Fatal(err)
			}
			if page.NextPageToken == "" {
				return pages
			}
			path = "/v1/events?page_token=" + url.QueryEscape(page.NextPageToken)
		}
	}
	first, second := walk(), walk()
	same := len(first) == len(second)
	for i := 0; same && i < len(first); i++ {
		same = bytes.Equal(first[i], second[i])
	}
	fmt.Printf("/v1/events?limit=50: %d pages, second walk byte-identical: %v\n", len(first), same)
	if !same {
		log.Fatal("serving-tier contract violated: the events walk did not replay")
	}
}

// get sends one GET to h, conditional on inm when it is set, and exits
// unless the answer has status want; it returns the ETag and the body.
func get(h http.Handler, path, inm string, want int) (string, []byte) {
	req := httptest.NewRequest(http.MethodGet, path, nil)
	if inm != "" {
		req.Header.Set("If-None-Match", inm)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != want {
		log.Fatalf("%s: status %d, want %d: %s", path, rec.Code, want, rec.Body.Bytes())
	}
	return rec.Header().Get("Etag"), rec.Body.Bytes()
}
