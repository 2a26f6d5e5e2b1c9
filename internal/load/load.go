// Package load is the deterministic mixed-workload generator behind
// `laces loadgen` and CI's api-load-smoke job: it drives the serving
// tier (internal/api) with a dashboard-shaped request mix — day fetch /
// timeline / events / stability / aggregates — measures latency into
// fixed-bucket histograms (internal/obs), paces the open-loop schedule
// with internal/rate, and emits the BENCH_api.json report.
//
// Determinism contract: the request schedule is a pure function of the
// config (seeded math/rand, single stream, pregenerated before any
// request fires), so two runs against the same archive issue the same
// requests in the same order. A pre-phase probe additionally verifies
// the server side of the contract — stable ETags, 304 on revalidation,
// byte-identical paginated walks — and reports it as determinism_ok.
// Only the latency numbers are wall-clock: time here is the measurement
// instrument, never an input to what gets requested.
package load

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/laces-project/laces/internal/obs"
	"github.com/laces-project/laces/internal/rate"
)

// Op kind names, also the report's per-op keys.
const (
	OpDay        = "day"
	OpTimeline   = "timeline"
	OpEvents     = "events"
	OpStability  = "stability"
	OpAggregates = "aggregates"
)

// Mix weights the workload by op kind. Zero-weight kinds are never
// issued; an all-zero mix gets DefaultMix.
type Mix struct {
	Day        int `json:"day"`
	Timeline   int `json:"timeline"`
	Events     int `json:"events"`
	Stability  int `json:"stability"`
	Aggregates int `json:"aggregates"`
}

// DefaultMix approximates a dashboard fleet: mostly day fetches and
// timelines, a steady trickle of event scans, stability checks and
// aggregate panels.
var DefaultMix = Mix{Day: 50, Timeline: 25, Events: 10, Stability: 10, Aggregates: 5}

func (m Mix) total() int { return m.Day + m.Timeline + m.Events + m.Stability + m.Aggregates }

// Config describes one load run. Exactly one of Handler (in-process)
// or BaseURL (live server) must be set.
type Config struct {
	// Handler serves requests in-process: no sockets, so the measured
	// path is the serving tier itself and alloc/op can be reported.
	Handler http.Handler
	// BaseURL targets a live server ("http://host:port") instead.
	BaseURL string

	// Family plus the target lists the schedule draws from. Days is
	// required; Prefixes may be empty (prefix-keyed ops then fold into
	// day fetches).
	Family   string
	Days     []int
	Prefixes []string

	Mix Mix
	// Rate is the open-loop request rate per second (paced via
	// rate.Pacer). 0 means closed-loop: as fast as the workers go.
	Rate float64
	// Duration bounds the run. With Rate set, it also sizes the
	// schedule (Rate × Duration requests); closed-loop runs stop at
	// whichever of Duration / Requests comes first.
	Duration time.Duration
	// Requests overrides the schedule length (0 = derive: Rate×Duration
	// when paced, DefaultRequests otherwise).
	Requests int
	// Workers is the concurrency (default DefaultWorkers).
	Workers int
	// Seed drives the schedule RNG; equal seeds mean equal schedules.
	Seed int64
	// Revalidate is the fraction [0,1] of requests sent conditionally
	// (If-None-Match with the ETag discovered in the probe phase) — the
	// dashboard-revalidation share of the workload.
	Revalidate float64
	// PageSize is the ?limit= for event scans (default 100).
	PageSize int
}

// Defaults for unset knobs.
const (
	DefaultWorkers  = 4
	DefaultRequests = 2000
	DefaultPageSize = 100
)

// latencyBounds is the request-latency bucket ladder in seconds: 1-2-5
// steps from 1µs (in-process cache hit) to 10s, fine enough for p99
// interpolation on both in-process and socket paths.
var latencyBounds = []float64{
	1e-6, 2e-6, 5e-6, 1e-5, 2e-5, 5e-5, 1e-4, 2e-4, 5e-4,
	1e-3, 2e-3, 5e-3, 1e-2, 2e-2, 5e-2, 0.1, 0.2, 0.5, 1, 2, 5, 10,
}

// op is one preplanned request.
type op struct {
	kind string
	path string
	inm  string // If-None-Match value, "" = unconditional
}

// client issues one GET. do discards the body (hot path); get returns
// it (probe phase).
type client interface {
	do(path, inm string) (status int, n int64, err error)
	get(path, inm string) (status int, etag string, body []byte, err error)
}

// handlerClient drives an http.Handler in-process with a reusable
// response writer. Not safe for concurrent use: one per worker.
type handlerClient struct {
	h http.Handler
	w discardRW
}

// discardRW counts body bytes and keeps headers/status only.
type discardRW struct {
	hdr    http.Header
	status int
	n      int64
}

func (w *discardRW) Header() http.Header { return w.hdr }
func (w *discardRW) WriteHeader(c int)   { w.status = c }
func (w *discardRW) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}
func (w *discardRW) Flush() {}

func (c *handlerClient) request(path, inm string) (*http.Request, error) {
	u, err := url.Parse(path)
	if err != nil {
		return nil, err
	}
	r := &http.Request{
		Method: http.MethodGet, URL: u,
		Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header: make(http.Header, 2), Host: "loadgen", RequestURI: path,
	}
	if inm != "" {
		r.Header["If-None-Match"] = []string{inm}
	}
	return r, nil
}

func (c *handlerClient) do(path, inm string) (int, int64, error) {
	r, err := c.request(path, inm)
	if err != nil {
		return 0, 0, err
	}
	c.w.status, c.w.n = http.StatusOK, 0
	if c.w.hdr == nil {
		c.w.hdr = make(http.Header, 8)
	}
	for k := range c.w.hdr {
		delete(c.w.hdr, k)
	}
	c.h.ServeHTTP(&c.w, r)
	return c.w.status, c.w.n, nil
}

func (c *handlerClient) get(path, inm string) (int, string, []byte, error) {
	r, err := c.request(path, inm)
	if err != nil {
		return 0, "", nil, err
	}
	w := &bufRW{hdr: make(http.Header, 8), status: http.StatusOK}
	c.h.ServeHTTP(w, r)
	return w.status, w.hdr.Get("Etag"), w.body, nil
}

// bufRW captures the body for the probe phase.
type bufRW struct {
	hdr    http.Header
	status int
	body   []byte
}

func (w *bufRW) Header() http.Header { return w.hdr }
func (w *bufRW) WriteHeader(c int)   { w.status = c }
func (w *bufRW) Write(p []byte) (int, error) {
	w.body = append(w.body, p...)
	return len(p), nil
}
func (w *bufRW) Flush() {}

// httpClient targets a live server over sockets.
type httpClient struct {
	base string
	c    *http.Client
}

func (c *httpClient) roundTrip(path, inm string) (*http.Response, error) {
	req, err := http.NewRequest(http.MethodGet, c.base+path, nil)
	if err != nil {
		return nil, err
	}
	if inm != "" {
		req.Header.Set("If-None-Match", inm)
	}
	return c.c.Do(req)
}

func (c *httpClient) do(path, inm string) (int, int64, error) {
	resp, err := c.roundTrip(path, inm)
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	n, err := io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, n, err
}

func (c *httpClient) get(path, inm string) (int, string, []byte, error) {
	resp, err := c.roundTrip(path, inm)
	if err != nil {
		return 0, "", nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header.Get("Etag"), body, err
}

// Run executes one load run: probe phase (ETag discovery + determinism
// checks), schedule generation, the timed phase, and the report.
func Run(cfg Config) (*Report, error) {
	if (cfg.Handler == nil) == (cfg.BaseURL == "") {
		return nil, fmt.Errorf("load: exactly one of Handler or BaseURL must be set")
	}
	if len(cfg.Days) == 0 {
		return nil, fmt.Errorf("load: at least one archived day is required")
	}
	if cfg.Family == "" {
		cfg.Family = "ipv4"
	}
	if cfg.Mix.total() == 0 {
		cfg.Mix = DefaultMix
	}
	if len(cfg.Prefixes) == 0 {
		// Without prefixes the prefix-keyed ops have no targets; their
		// weight folds into day fetches.
		cfg.Mix.Day += cfg.Mix.Timeline + cfg.Mix.Stability
		cfg.Mix.Timeline, cfg.Mix.Stability = 0, 0
	}
	if cfg.Workers <= 0 {
		cfg.Workers = DefaultWorkers
	}
	if cfg.PageSize <= 0 {
		cfg.PageSize = DefaultPageSize
	}
	if cfg.Revalidate < 0 || cfg.Revalidate > 1 {
		return nil, fmt.Errorf("load: revalidate fraction %v outside [0,1]", cfg.Revalidate)
	}
	var clock rate.WallClock
	total := cfg.Requests
	if total <= 0 {
		if cfg.Rate > 0 && cfg.Duration > 0 {
			total = int(cfg.Rate * cfg.Duration.Seconds())
		} else {
			total = DefaultRequests
		}
	}

	newClient := func() client {
		if cfg.Handler != nil {
			return &handlerClient{h: cfg.Handler}
		}
		return &httpClient{base: strings.TrimRight(cfg.BaseURL, "/"), c: &http.Client{Timeout: 30 * time.Second}}
	}

	pr, err := probe(newClient(), cfg)
	if err != nil {
		return nil, err
	}
	schedule := buildSchedule(cfg, total, pr)

	reg := obs.New()
	hists := make(map[string]*obs.Histogram)
	for _, kind := range []string{OpDay, OpTimeline, OpEvents, OpStability, OpAggregates} {
		hists[kind] = reg.Histogram("laces_loadgen_request_seconds",
			"Load-generator request latency, by op.", latencyBounds, obs.L("op", kind))
	}
	var tallies [5]opTally

	var pacer *rate.Pacer
	if cfg.Rate > 0 {
		p, err := rate.NewPacer(clock.Now(), cfg.Rate, 0)
		if err != nil {
			return nil, err
		}
		pacer = p
	}
	ctx := context.Background()
	var deadline time.Time
	if cfg.Duration > 0 {
		deadline = clock.Now().Add(cfg.Duration)
	}

	var ms0 runtime.MemStats
	inProcess := cfg.Handler != nil
	if inProcess {
		runtime.ReadMemStats(&ms0)
	}
	start := clock.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newClient()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(schedule) {
					return
				}
				if !deadline.IsZero() && clock.Now().After(deadline) {
					return
				}
				if pacer != nil {
					if err := clock.Sleep(ctx, pacer.SendTime(i, 0).Sub(clock.Now())); err != nil {
						return
					}
				}
				o := &schedule[i]
				t0 := clock.Now()
				status, _, err := c.do(o.path, o.inm)
				hists[o.kind].Observe(clock.Now().Sub(t0).Seconds())
				ti := opIndex(o.kind)
				tallies[ti].requests.Add(1)
				switch {
				case err != nil || status >= 400:
					tallies[ti].errors.Add(1)
				case status == http.StatusNotModified:
					tallies[ti].notModified.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	wall := clock.Now().Sub(start)
	allocPerOp := 0.0
	if inProcess {
		var ms1 runtime.MemStats
		runtime.ReadMemStats(&ms1)
		var done int64
		for i := range tallies {
			done += tallies[i].requests.Load()
		}
		if done > 0 {
			allocPerOp = float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(done)
		}
	}
	return buildReport(cfg, total, wall, allocPerOp, pr, hists, &tallies), nil
}

// opIndex maps an op kind to its tally slot.
func opIndex(kind string) int {
	switch kind {
	case OpDay:
		return 0
	case OpTimeline:
		return 1
	case OpEvents:
		return 2
	case OpStability:
		return 3
	default:
		return 4
	}
}

type opTally struct {
	requests    atomic.Int64
	errors      atomic.Int64
	notModified atomic.Int64
}

// probeResult carries what the warm-up phase discovered.
type probeResult struct {
	dayEtags map[int]string
	idxEtag  string
	detOK    bool
	detNote  string
}

// probe warms the server, collects the validators conditional requests
// revalidate against, and verifies the determinism contract: stable
// ETags (and a 304 on immediate revalidation) per archived day, and a
// byte-identical paginated events walk when run twice.
func probe(c client, cfg Config) (*probeResult, error) {
	pr := &probeResult{dayEtags: make(map[int]string), detOK: true}
	days := cfg.Days
	if len(days) > 64 {
		days = days[:64] // bound the probe; the schedule still uses every day
	}
	for _, d := range days {
		path := fmt.Sprintf("/v1/census?day=%d&family=%s", d, cfg.Family)
		st, etag, _, err := c.get(path, "")
		if err != nil {
			return nil, fmt.Errorf("load: probe %s: %w", path, err)
		}
		if st != http.StatusOK {
			return nil, fmt.Errorf("load: probe %s: status %d", path, st)
		}
		if etag == "" {
			pr.detOK = false
			pr.detNote = fmt.Sprintf("day %d served without an ETag", d)
			continue
		}
		pr.dayEtags[d] = etag
		st2, etag2, _, err := c.get(path, etag)
		if err != nil {
			return nil, err
		}
		if st2 != http.StatusNotModified || etag2 != etag {
			pr.detOK = false
			pr.detNote = fmt.Sprintf("day %d: revalidation answered %d with ETag %q (want 304 with %q)", d, st2, etag2, etag)
		}
	}
	if cfg.Mix.Events > 0 || cfg.Mix.Aggregates > 0 || cfg.Mix.Timeline > 0 || cfg.Mix.Stability > 0 {
		h1, etag, n1, err := eventsWalk(c, cfg)
		if err != nil {
			return nil, err
		}
		pr.idxEtag = etag
		h2, _, n2, err := eventsWalk(c, cfg)
		if err != nil {
			return nil, err
		}
		if h1 != h2 || n1 != n2 {
			pr.detOK = false
			pr.detNote = fmt.Sprintf("paginated events walk not reproducible (%d pages %016x vs %d pages %016x)", n1, h1, n2, h2)
		}
	}
	return pr, nil
}

// eventsWalk pages through the full event list and digests the bytes.
func eventsWalk(c client, cfg Config) (uint64, string, int, error) {
	h := fnv.New64a()
	pages := 0
	etag := ""
	path := fmt.Sprintf("/v1/events?family=%s&limit=%d", cfg.Family, cfg.PageSize)
	for {
		st, tag, body, err := c.get(path, "")
		if err != nil {
			return 0, "", 0, fmt.Errorf("load: events walk: %w", err)
		}
		if st != http.StatusOK {
			return 0, "", 0, fmt.Errorf("load: events walk: status %d on %s", st, path)
		}
		if etag == "" {
			etag = tag
		}
		h.Write(body)
		pages++
		var page struct {
			NextPageToken string `json:"next_page_token"`
		}
		if err := json.Unmarshal(body, &page); err != nil {
			return 0, "", 0, fmt.Errorf("load: events walk: %w", err)
		}
		if page.NextPageToken == "" {
			return h.Sum64(), etag, pages, nil
		}
		path = "/v1/events?page_token=" + page.NextPageToken
	}
}

// buildSchedule pregenerates the whole request sequence from one seeded
// stream: deterministic for a given config, independent of worker count
// and timing.
func buildSchedule(cfg Config, total int, pr *probeResult) []op {
	rng := rand.New(rand.NewSource(cfg.Seed))
	mix := cfg.Mix
	cum := [5]int{mix.Day, 0, 0, 0, 0}
	cum[1] = cum[0] + mix.Timeline
	cum[2] = cum[1] + mix.Events
	cum[3] = cum[2] + mix.Stability
	cum[4] = cum[3] + mix.Aggregates
	schedule := make([]op, total)
	for i := range schedule {
		r := rng.Intn(cum[4])
		reval := rng.Float64() < cfg.Revalidate
		var o op
		switch {
		case r < cum[0]:
			day := cfg.Days[rng.Intn(len(cfg.Days))]
			o = op{kind: OpDay, path: fmt.Sprintf("/v1/census?day=%d&family=%s", day, cfg.Family)}
			if reval {
				o.inm = pr.dayEtags[day]
			}
		case r < cum[1]:
			p := cfg.Prefixes[rng.Intn(len(cfg.Prefixes))]
			o = op{kind: OpTimeline, path: fmt.Sprintf("/v1/timeline/%s?family=%s", p, cfg.Family)}
			if reval {
				o.inm = pr.idxEtag
			}
		case r < cum[2]:
			a := cfg.Days[rng.Intn(len(cfg.Days))]
			b := cfg.Days[rng.Intn(len(cfg.Days))]
			if a > b {
				a, b = b, a
			}
			o = op{kind: OpEvents, path: fmt.Sprintf("/v1/events?family=%s&from=%d&to=%d&limit=%d", cfg.Family, a, b, cfg.PageSize)}
			if reval {
				o.inm = pr.idxEtag
			}
		case r < cum[3]:
			p := cfg.Prefixes[rng.Intn(len(cfg.Prefixes))]
			o = op{kind: OpStability, path: fmt.Sprintf("/v1/stability?family=%s&prefix=%s", cfg.Family, url.QueryEscape(p))}
			if reval {
				o.inm = pr.idxEtag
			}
		default:
			o = op{kind: OpAggregates, path: "/v1/aggregates?family=" + cfg.Family}
			if reval {
				o.inm = pr.idxEtag
			}
		}
		schedule[i] = o
	}
	return schedule
}
