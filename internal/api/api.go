// Package api implements the community-facing HTTP API the paper names as
// future work (§9: "provide an API to the community for live measurement
// of anycast"). It serves daily census documents and accepts on-demand
// live measurements of individual prefixes: an anycast-based probe round
// plus a GCD confirmation, returning both classifications independently
// (R1's confidence-through-independence, applied to a single prefix).
//
// Published days are served straight from the longitudinal archive when
// one is attached (Server.Archive): rebuilding a day from the delta
// store's rows is orders of magnitude cheaper than re-running the
// pipeline, and one bounded LRU of days — the only day cache on the read
// path; the archive and the query index underneath keep none — means
// serving a 500-day archive never holds 500 censuses in memory. The LRU
// holds each day in its canonical form (core.CanonicalDay): the bytes
// the day was published as (an archived day's checked against the CRC
// its record holds before it enters the cache) and the rows that alias
// them.
// /v1/census writes those bytes as they are, /v1/prefix decodes only the
// one row it answers with, and /v1/responsibility reads the header; no
// request decodes a whole day or re-encodes one.
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
	"net/url"
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
	"github.com/laces-project/laces/internal/query"
)

// DefaultCacheSize bounds the server's day LRU. It is the only cache of
// days, so passing cold days evict hot ones from it and nothing
// underneath re-finds them: serve_mix's hot set is 8 days, and at 16 its
// run reads 5,426 day-files (5,796 at 8). On a 2-core guest its traced
// hot-day p50 reads 0.021–0.023 ms at 16, writing the cached bytes, and
// its cold-day p50 0.50–0.57 ms. A cached day is its canonical bytes and
// their rows, at most about 128 KB and 50 KB on that fixture.
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
	// CacheSize bounds the day LRU (default DefaultCacheSize).
	// Set before the first request.
	CacheSize int
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
	// cache is the bounded day LRU, sized on first use so CacheSize can
	// be set any time before the first request. It holds each day in its
	// canonical form (core.CanonicalDay): its published bytes and the rows
	// that alias them, shared across requests and never changed — a
	// request only reads the bytes, the header or one row, decoded into
	// an entry of its own.
	cache *lru[censusKey, *core.CanonicalDay]
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
	})
}

// routes is the route table: every endpoint the server answers itself
// (pprof's handlers are net/http's own). /metrics and /debug/trace exist
// only when the world is instrumented (Instrument).
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
	if s.World.Registry() != nil {
		table = append(table,
			route{"GET /metrics", s.handleMetrics},
			route{"GET /debug/trace", s.handleTrace})
	}
	return table
}

// Handler mounts the route table, each route behind the one response
// path with its per-route request metrics (respond.go), plus
// /debug/pprof/ per EnablePprof. Instrument and EnablePprof must come
// before Handler is called.
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

// census returns a day's published census in canonical form — rebuilt
// from the pinned view's archive when it carries the day, otherwise
// streamed from a pipeline run if the server's clock has reached the
// day, and split once — through the bounded day LRU. The LRU is shared
// across serving generations: it is keyed by day, archived days are
// immutable and live days a function of the day, so Reload never
// invalidates it.
//
// An archived day is rebuilt outside s.mu (the Archive takes no lock), so
// a cold day never queues the hot ones, /v1/events or Reload behind it;
// two requests racing on the same cold day both rebuild it, which is
// harmless for an immutable day. A live computation keeps the lock for
// its whole run: live days are computed one at a time (each already
// shards its stages over every core), and a request that waited for the
// same day finds it cached instead of computing it again.
func (s *Server) census(v *view, day int, v6 bool) (*core.CanonicalDay, error) {
	key := censusKey{day, v6}
	s.mu.Lock()
	d, ok := s.dayCache().Get(key)
	s.mu.Unlock()
	if ok {
		s.cacheHits.Add(1)
		return d, nil
	}
	s.cacheMisses.Add(1)
	if v.arch != nil {
		d, err := v.arch.Day(family(v6), day)
		switch {
		case err == nil:
			s.mu.Lock()
			s.dayCache().Put(key, d)
			s.mu.Unlock()
			return d, nil
		case errors.Is(err, archive.ErrNotFound):
			// Not archived: fall through to the live pipeline.
		default:
			// The archive carries the day but cannot rebuild it, or its
			// bytes are not the ones packed — surfacing the failure beats
			// serving other bytes under the day's immutable validator, or
			// a freshly recomputed census that may differ from the
			// published one.
			return nil, err
		}
	}
	if today := s.Clock(); day > today {
		return nil, notFound(fmt.Errorf("census day %d (%s) is not archived and the server's clock (day %d) has not reached it: the newest servable day is %d",
			day, family(v6), today, s.newestDay(v, v6, today)))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if d, ok := s.dayCache().Get(key); ok {
		// Computed by another request while this one waited for the lock.
		return d, nil
	}
	pipe, err := s.newPipeline()
	if err != nil {
		return nil, err
	}
	c, err := pipe.RunDaily(day, v6, core.DayOptions{})
	if err != nil {
		return nil, err
	}
	d = new(core.CanonicalDay)
	if err := d.Stream(c.Document()); err != nil {
		return nil, err
	}
	s.dayCache().Put(key, d)
	return d, nil
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

// dayCache returns the day LRU, creating it at the configured bound on
// first use. Callers hold s.mu.
func (s *Server) dayCache() *lru[censusKey, *core.CanonicalDay] {
	if s.cache == nil {
		bound := s.CacheSize
		if bound <= 0 {
			bound = DefaultCacheSize
		}
		s.cache = newLRU[censusKey, *core.CanonicalDay](bound)
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
	_, v6, err := s.parseDayFamily(queryValues(r))
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
// census document per line, built from the stored rows' bytes
// (Archive.RangeJSON) — O(1) days in memory no matter how long the span.
func (s *Server) handleRange(v *view, r *http.Request) (answer, error) {
	if v.arch == nil {
		return answer{}, errNoArchive
	}
	q := queryValues(r)
	_, v6, err := s.parseDayFamily(q)
	if err != nil {
		return answer{}, err
	}
	from, to, err := parseFromTo(q)
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
		return v.arch.RangeJSON(family(v6), from, to, func(day int, line []byte) error {
			if _, err := w.Write(line); err != nil {
				return err
			}
			if _, err := w.Write(newline); err != nil {
				return err
			}
			// Flush per record so long spans stream incrementally instead
			// of buffering the whole range server-side.
			flush()
			return nil
		})
	}
	return a, nil
}

// newline ends each /v1/range record.
var newline = []byte("\n")

// queryValues parses the request's query string, once per request: the
// route passes the values to every parser it calls. An empty query
// string parses to nil, whose Get reads "" — url.Values allocates even
// for an empty query string, and the conditional-GET 304 path must stay
// zero-alloc.
func queryValues(r *http.Request) url.Values {
	if r.URL.RawQuery == "" {
		return nil
	}
	return r.URL.Query()
}

// parseFromTo extracts the optional ?from=/?to= day window shared by
// /v1/range and /v1/events: from defaults to 0, to to -1 ("through the
// last day"), and an inverted window is a client error (400).
func parseFromTo(q url.Values) (from, to int, err error) {
	from, to = 0, -1
	if v := q.Get("from"); v != "" {
		if from, err = strconv.Atoi(v); err != nil || from < 0 {
			return 0, 0, badRequest(fmt.Errorf("invalid from %q", v))
		}
	}
	if v := q.Get("to"); v != "" {
		if to, err = strconv.Atoi(v); err != nil || to < from {
			return 0, 0, badRequest(fmt.Errorf("invalid to %q", v))
		}
	}
	return from, to, nil
}

// parseDayFamily extracts ?day= and ?family= query parameters; a
// malformed one is a 400.
func (s *Server) parseDayFamily(q url.Values) (int, bool, error) {
	day := s.Clock()
	if v := q.Get("day"); v != "" {
		d, err := strconv.Atoi(v)
		if err != nil || d < 0 {
			return 0, false, badRequest(fmt.Errorf("invalid day %q", v))
		}
		day = d
	}
	v6 := false
	switch fam := q.Get("family"); fam {
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
// any day is read.
func (s *Server) handleCensus(v *view, r *http.Request) (answer, error) {
	day, v6, err := s.parseDayFamily(queryValues(r))
	if err != nil {
		return answer{}, err
	}
	a := answer{tag: v.dayTags[censusKey{day, v6}], cc: ccImmutable}
	if a.current(r) {
		return a, nil
	}
	d, err := s.census(v, day, v6)
	if err != nil {
		return answer{}, err
	}
	// The day's canonical bytes as they are, not a re-encoding of it.
	a.ctype = ctJSON
	a.stream = func(w io.Writer, _ func()) error {
		_, err := w.Write(d.Bytes())
		return err
	}
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
	day, v6, err := s.parseDayFamily(queryValues(r))
	if err != nil {
		return answer{}, err
	}
	prefix, err := parsePrefix(r.PathValue("prefix"), family(v6))
	if err != nil {
		return answer{}, err
	}
	// Derived wholly from one immutable archived day, so it shares the
	// day's validator and cache policy.
	a := answer{tag: v.dayTags[censusKey{day, v6}], cc: ccImmutable}
	if a.current(r) {
		return a, nil
	}
	d, err := s.census(v, day, v6)
	if err != nil {
		return answer{}, err
	}
	pv := prefixView{Prefix: prefix.String(), Day: day}
	e, ok, err := d.Rows().Find(pv.Prefix)
	if err != nil {
		return answer{}, err
	}
	if ok {
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

// parsePrefix parses a prefix from the path or the query. A malformed
// one is a 400, and so is one no census row of the family fam ("" for
// either) is keyed by: one with host bits set, or of the other family.
func parsePrefix(raw, fam string) (netip.Prefix, error) {
	prefix, err := netip.ParsePrefix(raw)
	switch {
	case err != nil:
		return prefix, badRequest(fmt.Errorf("invalid prefix: %w", err))
	case prefix != prefix.Masked():
		return prefix, badRequest(fmt.Errorf("prefix %s has host bits set (census rows are keyed %s)", prefix, prefix.Masked()))
	case fam != "" && family(prefix.Addr().Is6()) != fam:
		return prefix, badRequest(fmt.Errorf("prefix %s is %s, not %s", prefix, family(prefix.Addr().Is6()), fam))
	}
	return prefix, nil
}

// handleTimeline serves one prefix's full longitudinal record from the
// columnar index — no document is decoded.
func (s *Server) handleTimeline(v *view, r *http.Request) (answer, error) {
	if v.q == nil {
		return answer{}, errNoIndex
	}
	_, v6, err := s.parseDayFamily(queryValues(r))
	if err != nil {
		return answer{}, err
	}
	prefix, err := parsePrefix(r.PathValue("prefix"), family(v6))
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

// AppendJSON appends the page as json.Marshal writes it, with no
// trailing newline.
func (p *eventsPage) AppendJSON(b []byte) ([]byte, error) {
	b = core.AppendJSONString(append(b, `{"family":`...), p.Family)
	b = strconv.AppendInt(append(b, `,"count":`...), int64(p.Count), 10)
	if p.Events == nil {
		b = append(b, `,"events":null`...)
	} else {
		b = append(b, `,"events":[`...)
		for i := range p.Events {
			if i > 0 {
				b = append(b, ',')
			}
			b = p.Events[i].AppendJSON(b)
		}
		b = append(b, ']')
	}
	if p.NextPageToken != "" {
		b = core.AppendJSONString(append(b, `,"next_page_token":`...), p.NextPageToken)
	}
	return append(b, '}'), nil
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
	q := queryValues(r)
	var t pageToken
	if raw := q.Get("page_token"); raw != "" {
		var err error
		if t, err = decodePageToken(raw, v.fp); err != nil {
			return answer{}, badRequest(err)
		}
	} else {
		_, v6, err := s.parseDayFamily(q)
		if err != nil {
			return answer{}, err
		}
		kinds, err := parseKinds(q["kind"])
		if err != nil {
			return answer{}, err
		}
		from, to, err := parseFromTo(q)
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
	events, err := v.q.Events(t.family, kindList(t.kinds), t.from, t.to, query.EventOptions{Hysteresis: t.hysteresis})
	if err != nil {
		return answer{}, err
	}
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
	a.body = &eventsPage{
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

// kindList splits a canonical kind set ("" = all) into the kinds
// Index.Events filters by.
func kindList(kinds string) []query.EventKind {
	if kinds == "" {
		return nil
	}
	var out []query.EventKind
	for _, k := range strings.Split(kinds, ",") {
		out = append(out, query.EventKind(k))
	}
	return out
}

// handleStability serves one prefix's longitudinal stability score.
func (s *Server) handleStability(v *view, r *http.Request) (answer, error) {
	if v.q == nil {
		return answer{}, errNoIndex
	}
	q := queryValues(r)
	_, v6, err := s.parseDayFamily(q)
	if err != nil {
		return answer{}, err
	}
	raw := q.Get("prefix")
	if raw == "" {
		return answer{}, badRequest(errors.New("missing prefix parameter"))
	}
	prefix, err := parsePrefix(raw, family(v6))
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
	_, v6, err := s.parseDayFamily(queryValues(r))
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

// Govern applies a probe budget and/or an opt-out registry to what the
// server probes itself: live days and POST /v1/measure, each on its own
// ledger like every other piece of pipeline state. Archived days are
// always served exactly as published (their responsibility block, if
// any, rides along). Call before the first request.
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
	day, v6, err := s.parseDayFamily(queryValues(r))
	if err != nil {
		return answer{}, err
	}
	d, err := s.census(v, day, v6)
	if err != nil {
		return answer{}, err
	}
	hdr := d.Rows().Header()
	if hdr.Responsibility == nil {
		return answer{}, notFound(
			fmt.Errorf("census day %d (%s) carries no responsibility block (ran without probing governance)", day, family(v6)))
	}
	return answer{body: map[string]any{
		"day":            day,
		"family":         family(v6),
		"responsibility": hdr.Responsibility,
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
// and renders the row it returns. A prefix the governance denies answers
// 403 (opted out) or 429 (over a budget cap), naming the decision.
func (s *Server) handleMeasure(_ *view, r *http.Request) (answer, error) {
	var req measureRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		return answer{}, badRequest(fmt.Errorf("invalid body: %w", err))
	}
	prefix, err := parsePrefix(req.Prefix, "")
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
	e, probes, dec, err := pipe.Measure(target, resp.Day)
	if err != nil {
		return answer{}, err
	}
	if dec != budget.Admitted {
		status := http.StatusTooManyRequests
		if dec == budget.DeniedOptOut {
			status = http.StatusForbidden
		}
		return answer{}, &httpError{status, fmt.Errorf("%s: %s by the server's probing governance (%d probes sent); no verdict", prefix, dec, probes)}
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
