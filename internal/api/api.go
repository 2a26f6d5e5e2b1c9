// Package api implements the community-facing HTTP API the paper names as
// future work (§9: "provide an API to the community for live measurement
// of anycast"). It serves daily census documents and accepts on-demand
// live measurements of individual prefixes: an anycast-based probe round
// plus a GCD confirmation, returning both classifications independently
// (R1's confidence-through-independence, applied to a single prefix).
//
// Published days are served straight from the longitudinal archive when
// one is attached (Server.Archive): decoding from the delta store is
// orders of magnitude cheaper than re-running the pipeline, and one
// bounded LRU of decoded days — the only decoded-day cache on the read
// path; the archive and the query index underneath keep none — means
// serving a 500-day archive never holds 500 censuses in memory.
//
// A day the archive does not carry is computed live, and a live day is a
// function of the day: every computation runs on a fresh core.Pipeline
// (Server.newPipeline — empty feedback list, empty ledger, no baseline),
// so the document served does not depend on which days were computed
// before it or on what the LRU evicted in between. Live days are bounded
// by the server's clock: a day after Clock() that is not archived is a
// 404, decided before anything is built. The server runs no measurement
// stage itself — a live census is Pipeline.RunDaily, a live measurement
// Pipeline.Measure.
package api

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/netip"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/laces-project/laces/internal/archive"
	"github.com/laces-project/laces/internal/budget"
	"github.com/laces-project/laces/internal/core"
	"github.com/laces-project/laces/internal/netsim"
	"github.com/laces-project/laces/internal/obs"
	"github.com/laces-project/laces/internal/query"
)

// DefaultCacheSize bounds the server's decoded-day LRU. It is the only
// cache of decoded days, so passing cold days evict hot ones from it and
// nothing underneath re-finds them: at 8 — the size of the bench's
// serve_mix hot set — traced hot-day p50 reads 1.17–1.28 ms and 5,796
// archive decodes per run, at 16 0.80–0.85 ms and 5,426.
const DefaultCacheSize = 16

// Server exposes census data and live measurements over HTTP.
type Server struct {
	World      *netsim.World
	Deployment *netsim.Deployment
	GCDVPs     func(day int, v6 bool) ([]netsim.VP, error)
	// Clock returns the "current" census day for live measurements.
	Clock func() int
	// Archive, when set, serves archived days directly from the
	// delta-encoded store; days not in the archive fall back to running
	// the pipeline. Set before the first request.
	Archive *archive.Archive
	// Query, when set, answers the longitudinal endpoints
	// (/v1/timeline, /v1/events, /v1/stability) from the columnar
	// prefix-timeline index — one shared handle across all requests,
	// no document decodes on the hot path. Set before the first
	// request.
	Query *query.Index
	// CacheSize bounds the decoded-day LRU (default DefaultCacheSize).
	// Set before the first request.
	CacheSize int
	// Obs, when set (via Instrument), is the telemetry registry behind
	// GET /metrics and the per-route request metrics. Set before Handler
	// is called; nil leaves every route uninstrumented and unregistered.
	Obs *obs.Registry
	// EnablePprof mounts net/http/pprof under /debug/pprof/ when Handler
	// is called. Off by default: profiling endpoints expose heap and CPU
	// internals and belong behind an operator's explicit opt-in.
	EnablePprof bool

	// viewPtr holds the current serving generation (see cache.go):
	// archive + index handles, precomputed validators and the per-view
	// events cache, resolved once per request and swapped atomically by
	// Reload. gen numbers generations for telemetry.
	viewPtr atomic.Pointer[view]
	gen     atomic.Uint64

	mu sync.Mutex
	// Governance knobs applied to live census computation (Govern).
	govBudget budget.Budget
	govOptOut *budget.Registry
	// cache is the bounded decoded-day LRU, sized on first use so
	// CacheSize can be set any time before the first request. Cached
	// documents are shared across requests and never mutated.
	cache *lru[censusKey, *core.Document]
	// cacheHits/cacheMisses tally census lookups by whether the LRU
	// answered them; /metrics exposes them as laces_api_day_cache_total.
	cacheHits, cacheMisses atomic.Int64
}

type censusKey struct {
	day int
	v6  bool
}

// NewServer validates dependencies and returns a Server.
func NewServer(w *netsim.World, d *netsim.Deployment, gcdVPs func(int, bool) ([]netsim.VP, error), clock func() int) (*Server, error) {
	if w == nil || d == nil || gcdVPs == nil {
		return nil, fmt.Errorf("api: world, deployment and GCD VP source are required")
	}
	if clock == nil {
		clock = func() int { return 0 }
	}
	return &Server{World: w, Deployment: d, GCDVPs: gcdVPs, Clock: clock}, nil
}

// newPipeline builds the pipeline of one live computation. Each gets its
// own: a long-lived pipeline grows its feedback list, monitoring baseline
// and ledger with every day it serves, so a day recomputed later (LRU
// eviction, or v4 after v6) would publish a different document than it
// did the first time.
func (s *Server) newPipeline() (*core.Pipeline, error) {
	return core.NewPipeline(s.World, core.Config{
		Deployment: s.Deployment,
		GCDVPs:     s.GCDVPs,
		Budget:     s.govBudget,
		OptOut:     s.govOptOut,
		Obs:        s.Obs,
	})
}

// routes is the route table: every endpoint the server answers itself
// (pprof's handlers are net/http's own). /metrics and /debug/trace exist
// only with a registry attached (Instrument).
func (s *Server) routes() []route {
	table := []route{
		{"GET /v1/census", s.handleCensus},
		{"GET /v1/days", s.handleDays},
		{"GET /v1/range", s.handleRange},
		{"GET /v1/prefix/{prefix...}", s.handlePrefix},
		{"GET /v1/timeline/{prefix...}", s.handleTimeline},
		{"GET /v1/events", s.handleEvents},
		{"GET /v1/stability", s.handleStability},
		{"GET /v1/aggregates", s.handleAggregates},
		{"GET /v1/responsibility", s.handleResponsibility},
		{"POST /v1/measure", s.handleMeasure},
		{"GET /v1/healthz", func(*view, *http.Request) (answer, error) {
			return answer{body: map[string]string{"status": "ok"}}, nil
		}},
	}
	if s.Obs != nil {
		table = append(table,
			route{"GET /metrics", s.handleMetrics},
			route{"GET /debug/trace", s.handleTrace})
	}
	return table
}

// Handler mounts the route table, each route behind the one response
// path with its per-route request metrics (respond.go), plus
// /debug/pprof/ per EnablePprof. Obs and EnablePprof must be set before
// Handler is called.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	for _, rt := range s.routes() {
		mux.HandleFunc(rt.pattern, s.serve(rt))
	}
	if s.EnablePprof {
		registerPprof(mux)
	}
	return mux
}

func family(v6 bool) string {
	if v6 {
		return "ipv6"
	}
	return "ipv4"
}

// census returns the published document for a day — from the pinned
// view's archive when it carries the day, otherwise by running the
// pipeline if the server's clock has reached the day — through a bounded
// LRU of decoded days. The LRU is shared across serving generations: it
// is keyed by day, archived days are immutable and live days a function
// of the day, so Reload never invalidates it.
//
// An archived day decodes outside s.mu (the Archive takes no lock), so a
// cold day never queues the hot ones, /v1/events or Reload behind it;
// two requests racing on the same cold day both decode it, which is
// harmless for an immutable day. A live computation keeps the lock for
// its whole run: live days are computed one at a time (each already
// shards its stages over every core), and a request that waited for the
// same day finds it cached instead of computing it again.
func (s *Server) census(v *view, day int, v6 bool) (*core.Document, error) {
	key := censusKey{day, v6}
	s.mu.Lock()
	doc, ok := s.dayCache().Get(key)
	s.mu.Unlock()
	if ok {
		s.cacheHits.Add(1)
		return doc, nil
	}
	s.cacheMisses.Add(1)
	if v.arch != nil {
		doc, err := v.arch.Document(family(v6), day)
		switch {
		case err == nil:
			s.mu.Lock()
			s.dayCache().Put(key, doc)
			s.mu.Unlock()
			return doc, nil
		case errors.Is(err, archive.ErrNotFound):
			// Not archived: fall through to the live pipeline.
		default:
			// The archive carries the day but cannot decode it —
			// surfacing the failure beats silently serving a freshly
			// recomputed census that may differ from the published one.
			return nil, err
		}
	}
	if today := s.Clock(); day > today {
		return nil, notFound(fmt.Errorf("census day %d (%s) is not archived and the server's clock (day %d) has not reached it: the newest servable day is %d",
			day, family(v6), today, s.newestDay(v, v6, today)))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if doc, ok := s.dayCache().Get(key); ok {
		// Computed by another request while this one waited for the lock.
		return doc, nil
	}
	pipe, err := s.newPipeline()
	if err != nil {
		return nil, err
	}
	c, err := pipe.RunDaily(day, v6, core.DayOptions{})
	if err != nil {
		return nil, err
	}
	doc = c.Document()
	s.dayCache().Put(key, doc)
	return doc, nil
}

// newestDay is the last day census can serve for a family: today by the
// server's clock, or the newest archived day if that is later.
func (s *Server) newestDay(v *view, v6 bool, today int) int {
	if v.arch != nil {
		if days := v.arch.Days(family(v6)); len(days) > 0 {
			return max(today, days[len(days)-1])
		}
	}
	return today
}

// dayCache returns the decoded-day LRU, creating it at the configured
// bound on first use. Callers hold s.mu.
func (s *Server) dayCache() *lru[censusKey, *core.Document] {
	if s.cache == nil {
		bound := s.CacheSize
		if bound <= 0 {
			bound = DefaultCacheSize
		}
		s.cache = newLRU[censusKey, *core.Document](bound)
	}
	return s.cache
}

// handleDays lists the archived census days for a family. The ETag
// covers the day list and every day's content hash; the list grows as
// days are appended, so the policy is revalidate (a 304 when nothing
// changed, a fresh ETag as soon as a census appends).
func (s *Server) handleDays(v *view, r *http.Request) (answer, error) {
	if v.arch == nil {
		return answer{}, errNoArchive
	}
	_, v6, err := s.parseDayFamily(r)
	if err != nil {
		return answer{}, err
	}
	days := v.arch.Days(family(v6))
	if len(days) == 0 {
		// Consistent with /v1/census and /v1/range: a family the
		// archive does not carry is a miss, not an empty success.
		return answer{}, notFound(fmt.Errorf("no %s days archived", family(v6)))
	}
	a := answer{tag: v.famTags[family(v6)], cc: ccRevalidate}
	if !a.current(r) {
		a.body = map[string]any{
			"family": family(v6),
			"days":   days,
		}
	}
	return a, nil
}

// handleRange streams a span of archived days as NDJSON, one compact
// census document per line, decoded incrementally from the delta store —
// O(1) documents in memory no matter how long the span.
func (s *Server) handleRange(v *view, r *http.Request) (answer, error) {
	if v.arch == nil {
		return answer{}, errNoArchive
	}
	_, v6, err := s.parseDayFamily(r)
	if err != nil {
		return answer{}, err
	}
	from, to, err := parseFromTo(r)
	if err != nil {
		return answer{}, err
	}
	if len(v.arch.Days(family(v6))) == 0 {
		return answer{}, notFound(fmt.Errorf("no %s days archived", family(v6)))
	}
	// A span with an explicit upper bound is a fixed set of immutable
	// days — cacheable forever; an open-ended span grows as days are
	// appended, so it revalidates.
	a := answer{tag: v.rangeTag(family(v6), from, to), cc: ccRevalidate}
	if to >= 0 {
		a.cc = ccImmutable
	}
	if a.current(r) {
		return a, nil
	}
	a.ctype = ctNDJSON
	a.stream = func(w io.Writer, flush func()) error {
		var line []byte // one day's NDJSON line, reused
		return v.arch.Range(family(v6), from, to, func(day int, doc *core.Document) error {
			var err error
			if line, err = doc.AppendJSON(line[:0]); err != nil {
				return err
			}
			line = append(line, '\n')
			if _, err := w.Write(line); err != nil {
				return err
			}
			// Flush per record so long spans stream incrementally instead
			// of buffering the whole decoded range server-side.
			flush()
			return nil
		})
	}
	return a, nil
}

// parseFromTo extracts the optional ?from=/?to= day window shared by
// /v1/range and /v1/events: from defaults to 0, to to -1 ("through the
// last day"), and an inverted window is a client error (400).
func parseFromTo(r *http.Request) (from, to int, err error) {
	from, to = 0, -1
	if v := r.URL.Query().Get("from"); v != "" {
		if from, err = strconv.Atoi(v); err != nil || from < 0 {
			return 0, 0, badRequest(fmt.Errorf("invalid from %q", v))
		}
	}
	if v := r.URL.Query().Get("to"); v != "" {
		if to, err = strconv.Atoi(v); err != nil || to < from {
			return 0, 0, badRequest(fmt.Errorf("invalid to %q", v))
		}
	}
	return from, to, nil
}

// parseDayFamily extracts ?day= and ?family= query parameters; a
// malformed one is a 400.
func (s *Server) parseDayFamily(r *http.Request) (int, bool, error) {
	if r.URL.RawQuery == "" {
		// Fast path: url.Values allocates even for an empty query string,
		// and the conditional-GET 304 path must stay zero-alloc.
		return s.Clock(), false, nil
	}
	day := s.Clock()
	if v := r.URL.Query().Get("day"); v != "" {
		d, err := strconv.Atoi(v)
		if err != nil || d < 0 {
			return 0, false, badRequest(fmt.Errorf("invalid day %q", v))
		}
		day = d
	}
	v6 := false
	switch fam := r.URL.Query().Get("family"); fam {
	case "", "ipv4":
	case "ipv6":
		v6 = true
	default:
		return 0, false, badRequest(fmt.Errorf("invalid family %q (ipv4, ipv6)", fam))
	}
	return day, v6, nil
}

// handleCensus serves the full daily census document in its canonical
// published byte form. Archived days are immutable, so they carry the
// pack-time content hash as a strong ETag plus an immutable cache
// policy — and a matching If-None-Match turns around as a 304 before
// any document is decoded.
func (s *Server) handleCensus(v *view, r *http.Request) (answer, error) {
	day, v6, err := s.parseDayFamily(r)
	if err != nil {
		return answer{}, err
	}
	a := answer{tag: v.dayTags[censusKey{day, v6}], cc: ccImmutable}
	if a.current(r) {
		return a, nil
	}
	doc, err := s.census(v, day, v6)
	if err != nil {
		return answer{}, err
	}
	// The document's own canonical bytes, not a re-encoding of it.
	a.ctype = ctJSON
	a.stream = func(w io.Writer, _ func()) error { return doc.WriteJSON(w) }
	return a, nil
}

// prefixView is the JSON document for one prefix lookup.
type prefixView struct {
	Prefix       string   `json:"prefix"`
	Day          int      `json:"day"`
	InCensus     bool     `json:"in_census"`
	AnycastBased bool     `json:"anycast_based"`
	GCDAnycast   bool     `json:"gcd_anycast"`
	GCDSites     int      `json:"gcd_sites,omitempty"`
	GCDCities    []string `json:"gcd_cities,omitempty"`
}

// handlePrefix serves a single census row from the *published* census:
// in_census means the prefix is in the day's published document (an
// anycast finding, §4.4), the same view the archive carries. Prefixes
// that were measured but not published (e.g. feedback targets GCD-judged
// unicast) report in_census=false; use /v1/measure for a live verdict.
func (s *Server) handlePrefix(v *view, r *http.Request) (answer, error) {
	day, v6, err := s.parseDayFamily(r)
	if err != nil {
		return answer{}, err
	}
	prefix, err := parsePrefix(r.PathValue("prefix"))
	if err != nil {
		return answer{}, err
	}
	// Derived wholly from one immutable archived day, so it shares the
	// day's validator and cache policy.
	a := answer{tag: v.dayTags[censusKey{day, v6}], cc: ccImmutable}
	if a.current(r) {
		return a, nil
	}
	doc, err := s.census(v, day, v6)
	if err != nil {
		return answer{}, err
	}
	pv := prefixView{Prefix: prefix.String(), Day: day}
	if e := doc.Find(pv.Prefix); e != nil {
		pv.InCensus = true
		pv.AnycastBased = len(e.ACProtocols) > 0
		pv.GCDAnycast = e.GCDAnycast
		pv.GCDSites = e.GCDSites
		pv.GCDCities = e.GCDCities
	}
	a.body = pv
	return a, nil
}

// The 404s of routes that need a handle this server was started without.
var (
	errNoArchive = notFound(errors.New("no archive attached to this server"))
	errNoIndex   = notFound(errors.New("no timeline index attached to this server (build one with `laces query build-index`)"))
)

// parsePrefix parses a prefix from the path or the query; a malformed
// one is a 400.
func parsePrefix(raw string) (netip.Prefix, error) {
	prefix, err := netip.ParsePrefix(raw)
	if err != nil {
		return prefix, badRequest(fmt.Errorf("invalid prefix: %w", err))
	}
	return prefix, nil
}

// handleTimeline serves one prefix's full longitudinal record from the
// columnar index — no document is decoded.
func (s *Server) handleTimeline(v *view, r *http.Request) (answer, error) {
	if v.q == nil {
		return answer{}, errNoIndex
	}
	_, v6, err := s.parseDayFamily(r)
	if err != nil {
		return answer{}, err
	}
	prefix, err := parsePrefix(r.PathValue("prefix"))
	if err != nil {
		return answer{}, err
	}
	// Index-keyed: the response is a pure function of the index bytes,
	// so the build fingerprint is its validator. A 304 costs no row read.
	a := answer{tag: v.idxTag, cc: ccRevalidate}
	if a.current(r) {
		return a, nil
	}
	a.body, err = v.q.Timeline(family(v6), prefix.String())
	return a, err
}

// eventsPage is the /v1/events response envelope. count is always the
// full match count; events carries the requested page.
type eventsPage struct {
	Family        string        `json:"family"`
	Count         int           `json:"count"`
	Events        []query.Event `json:"events"`
	NextPageToken string        `json:"next_page_token,omitempty"`
}

// handleEvents serves the family-wide longitudinal event scan:
// onset/offset/flap/site-churn/geo-shift, filtered by kind and day
// range, answered entirely from the index.
//
// Pagination is cursor-based: ?limit=N returns the first N events in
// chronological order plus an opaque next_page_token; the token pins
// the whole query shape and the index fingerprint, so resuming a walk
// is deterministic (byte-identical pages however often it is replayed)
// and a cursor minted against a rebuilt index is rejected with 400
// instead of silently skipping events. When page_token is present it
// fully determines the query; other filter parameters are ignored.
func (s *Server) handleEvents(v *view, r *http.Request) (answer, error) {
	if v.q == nil {
		return answer{}, errNoIndex
	}
	q := r.URL.Query()
	var t pageToken
	if raw := q.Get("page_token"); raw != "" {
		var err error
		if t, err = decodePageToken(raw, v.fp); err != nil {
			return answer{}, badRequest(err)
		}
	} else {
		_, v6, err := s.parseDayFamily(r)
		if err != nil {
			return answer{}, err
		}
		kinds, err := parseKinds(q["kind"])
		if err != nil {
			return answer{}, err
		}
		from, to, err := parseFromTo(r)
		if err != nil {
			return answer{}, err
		}
		hysteresis := 0
		if v := q.Get("hysteresis"); v != "" {
			if hysteresis, err = strconv.Atoi(v); err != nil || hysteresis < 1 {
				return answer{}, badRequest(fmt.Errorf("invalid hysteresis %q", v))
			}
		}
		limit := 0
		if v := q.Get("limit"); v != "" {
			if limit, err = strconv.Atoi(v); err != nil || limit < 1 {
				return answer{}, badRequest(fmt.Errorf("invalid limit %q", v))
			}
		}
		t = pageToken{fp: v.fp, family: family(v6), kinds: kinds, from: from, to: to, hysteresis: hysteresis, limit: limit}
	}
	// Every page shares the index validator: same fingerprint, same
	// bytes for the same URL.
	a := answer{tag: v.idxTag, cc: ccRevalidate}
	if a.current(r) {
		return a, nil
	}
	all, err := s.eventList(v, t.family, t.hysteresis, t.from, t.to)
	if err != nil {
		return answer{}, err
	}
	events := filterKinds(all, t.kinds)
	total := len(events)
	next := ""
	if t.limit > 0 {
		end, ok := t.pageEnd(total)
		if !ok {
			// Unmintable under a matching fingerprint; reject rather than
			// invent an empty page.
			return answer{}, badRequest(errBadPageToken)
		}
		if end < total {
			nt := t
			nt.offset = end
			next = nt.encode()
		}
		events = events[t.offset:end]
	}
	if events == nil {
		events = []query.Event{}
	}
	a.body = eventsPage{
		Family:        t.family,
		Count:         total,
		Events:        events,
		NextPageToken: next,
	}
	return a, nil
}

// parseKinds validates ?kind= values (repeated and/or comma-separated)
// into the canonical sorted, de-duplicated, comma-joined form tokens
// and cache keys use. "" means every kind; an unknown kind is a 400.
func parseKinds(raw []string) (string, error) {
	var kinds []string
	for _, r := range raw {
		for _, one := range strings.Split(r, ",") {
			k, err := query.ParseEventKind(strings.TrimSpace(one))
			if err != nil {
				return "", badRequest(err)
			}
			kinds = append(kinds, string(k))
		}
	}
	if len(kinds) == 0 {
		return "", nil
	}
	sort.Strings(kinds)
	kinds = slices.Compact(kinds)
	return strings.Join(kinds, ","), nil
}

// filterKinds selects the events matching a canonical kind set ("" =
// all). The shared all-kinds list is never mutated.
func filterKinds(events []query.Event, kinds string) []query.Event {
	if kinds == "" {
		return events
	}
	want := make(map[query.EventKind]bool)
	for _, k := range strings.Split(kinds, ",") {
		want[query.EventKind(k)] = true
	}
	var out []query.Event
	for _, e := range events {
		if want[e.Kind] {
			out = append(out, e)
		}
	}
	return out
}

// handleStability serves one prefix's longitudinal stability score.
func (s *Server) handleStability(v *view, r *http.Request) (answer, error) {
	if v.q == nil {
		return answer{}, errNoIndex
	}
	_, v6, err := s.parseDayFamily(r)
	if err != nil {
		return answer{}, err
	}
	raw := r.URL.Query().Get("prefix")
	if raw == "" {
		return answer{}, badRequest(errors.New("missing prefix parameter"))
	}
	prefix, err := parsePrefix(raw)
	if err != nil {
		return answer{}, err
	}
	a := answer{tag: v.idxTag, cc: ccRevalidate}
	if a.current(r) {
		return a, nil
	}
	a.body, err = v.q.Stability(family(v6), prefix.String())
	return a, err
}

// handleAggregates serves one family's materialized dashboard block —
// per-day aggregate series, churn summary, stability histogram —
// precomputed at index-build time and served without touching row
// storage (the sidecar is read on the first aggregates call; see
// query.Aggregates).
func (s *Server) handleAggregates(v *view, r *http.Request) (answer, error) {
	if v.q == nil {
		return answer{}, errNoIndex
	}
	_, v6, err := s.parseDayFamily(r)
	if err != nil {
		return answer{}, err
	}
	a := answer{tag: v.idxTag, cc: ccRevalidate}
	if a.current(r) {
		return a, nil
	}
	ag, err := v.q.Aggregates()
	if err != nil {
		return answer{}, err
	}
	fa := ag.Family(family(v6))
	if fa == nil {
		return answer{}, fmt.Errorf("query: no %s timelines: %w", family(v6), query.ErrUnknownFamily)
	}
	a.body = map[string]any{
		"fingerprint": v.fp,
		"precomputed": v.q.AggregatesPrecomputed(),
		"aggregates":  fa,
	}
	return a, nil
}

// Govern applies responsible-probing governance to the server's live
// census computation: a probe budget and/or an opt-out registry.
// Archived days are always served exactly as published (their
// responsibility block, if any, rides along); governance affects only
// days the server computes itself, each on its own ledger like every
// other piece of pipeline state. Call before the first request.
func (s *Server) Govern(b budget.Budget, reg *budget.Registry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.govBudget, s.govOptOut = b, reg
}

// handleResponsibility serves a census day's R3 governance block: budget
// spent/remaining, opt-out and budget skip counts, and the adaptive rate
// steps taken. Days produced without governance carry no block and
// answer 404.
func (s *Server) handleResponsibility(v *view, r *http.Request) (answer, error) {
	day, v6, err := s.parseDayFamily(r)
	if err != nil {
		return answer{}, err
	}
	doc, err := s.census(v, day, v6)
	if err != nil {
		return answer{}, err
	}
	if doc.Responsibility == nil {
		return answer{}, notFound(
			fmt.Errorf("census day %d (%s) carries no responsibility block (ran without probing governance)", day, family(v6)))
	}
	return answer{body: map[string]any{
		"day":            day,
		"family":         family(v6),
		"responsibility": doc.Responsibility,
	}}, nil
}

// measureRequest is the on-demand measurement body.
type measureRequest struct {
	Prefix string `json:"prefix"`
}

// measureResponse carries both methodologies' live verdicts.
type measureResponse struct {
	Prefix        string   `json:"prefix"`
	Day           int      `json:"day"`
	Responsive    bool     `json:"responsive"`
	ReceivingVPs  int      `json:"anycast_based_vps"`
	AnycastBased  bool     `json:"anycast_based"`
	GCDAnycast    bool     `json:"gcd_anycast"`
	GCDSites      int      `json:"gcd_sites,omitempty"`
	GCDCities     []string `json:"gcd_cities,omitempty"`
	ProbesSpent   int64    `json:"probes_spent"`
	MeasurementMS int64    `json:"measurement_ms"`
}

// handleMeasure runs a live single-prefix measurement — one synchronized
// anycast-based round plus a GCD confirmation (core.Pipeline.Measure) —
// and renders the row it returns.
func (s *Server) handleMeasure(_ *view, r *http.Request) (answer, error) {
	var req measureRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		return answer{}, badRequest(fmt.Errorf("invalid body: %w", err))
	}
	prefix, err := parsePrefix(req.Prefix)
	if err != nil {
		return answer{}, err
	}
	resp := measureResponse{Prefix: prefix.String(), Day: s.Clock()}
	started := time.Now() //laces:allow detnow measurement_ms is a diagnostic latency field in the response, not census content
	target := s.World.FindTarget(prefix)
	if target == nil {
		return answer{body: resp}, nil // unknown prefix: unresponsive
	}
	pipe, err := s.newPipeline()
	if err != nil {
		return answer{}, err
	}
	e, probes, err := pipe.Measure(target, resp.Day)
	if err != nil {
		return answer{}, err
	}
	resp.Responsive = e.MaxReceivers > 0
	resp.ReceivingVPs = e.MaxReceivers
	resp.AnycastBased = e.IsCandidate()
	resp.GCDAnycast = e.GCDAnycast
	resp.GCDSites = e.GCDSites
	resp.GCDCities = e.GCDCities
	resp.ProbesSpent = probes
	resp.MeasurementMS = time.Since(started).Milliseconds() //laces:allow detnow measurement_ms is a diagnostic latency field in the response, not census content
	return answer{body: resp}, nil
}
