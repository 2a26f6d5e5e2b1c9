package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"runtime"

	"github.com/laces-project/laces/internal/api"
	"github.com/laces-project/laces/internal/archive"
	"github.com/laces-project/laces/internal/netsim"
	"github.com/laces-project/laces/internal/platform"
	"github.com/laces-project/laces/internal/query"
)

// The request classes of serve_mix. A pass holds an exact quota of each, so
// passes are equal work; the quotas place the median request among the
// index-served timelines and the 95th percentile among the document-served
// event and range queries, neither on a class boundary.
var classes = []struct {
	name  string
	quota int // of 500
}{
	{"timeline", 160},
	{"stability", 40},
	{"aggregates", 20},
	{"aggregates_304", 20},
	{"day_hot", 60},
	{"day_hot_304", 60},
	{"day_cold", 60},
	{"events", 40},
	{"range", 40},
}

const (
	clsTimeline = iota
	clsStability
	clsAggregates
	clsAggregates304
	clsDayHot
	clsDayHot304
	clsDayCold
	clsEvents
	clsRange
)

const (
	hotDays     = 4  // × 2 families = the 8-entry decoded-day LRU
	eventWindow = 30 // days per /v1/events query
	rangeWindow = 7  // days per /v1/range query
)

// request is one scheduled request and what it must answer.
type request struct {
	class  int
	req    *http.Request
	want   int    // status
	key    string // identifies the response body: equal keys, equal bodies
	family string
	prefix string // timeline, stability
	from   int    // events, range
	to     int
}

// discard is the ResponseWriter of the in-process client: it keeps the status
// and a running length and CRC-32C of the body, and drops the bytes.
type discard struct {
	hdr    http.Header
	status int
	n      int64
	crc    uint32
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func (d *discard) Header() http.Header { return d.hdr }

func (d *discard) WriteHeader(code int) {
	if d.status == 0 {
		d.status = code
	}
}

func (d *discard) Write(b []byte) (int, error) {
	d.WriteHeader(http.StatusOK)
	d.crc = crc32.Update(d.crc, castagnoli, b)
	d.n += int64(len(b))
	return len(b), nil
}

func (d *discard) reset() {
	clear(d.hdr)
	d.status, d.n, d.crc = 0, 0, 0
}

// body identifies a response body without keeping it.
type body struct {
	n   int64
	crc uint32
}

// serveBench is the serving tier under test: the packed and indexed fixture
// behind an api.Server, driven through its handler by one closed-loop client.
type serveBench struct {
	f       *fixture
	dir     string
	arch    *archive.Archive
	ix      *query.Index
	handler http.Handler
	rng     *rand.Rand
	w       discard

	prefixes map[string][]string // per family
	dayTag   map[string]string   // ETag per hot "family/day"
	aggTag   string              // ETag of every index-keyed response

	bodies map[string]body // first body seen per key

	// Tallies over the timed passes.
	records  []byte      // status, length and CRC of every response, in order
	outBytes int64       // response body bytes
	samples  [][]float64 // latency in ms per class
	status   map[int]int
}

func newServeBench(o options, tr *tracer) (*serveBench, error) {
	f, err := newFixture(o, tr)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp("", "laces-bench-serve-")
	if err != nil {
		return nil, err
	}
	b := &serveBench{
		f: f, dir: dir,
		rng:      rand.New(rand.NewSource(int64(o.seed))),
		w:        discard{hdr: make(http.Header)},
		prefixes: make(map[string][]string),
		dayTag:   make(map[string]string),
		bodies:   make(map[string]body),
	}
	b.resetTallies()
	if err := b.open(); err != nil {
		b.close()
		return nil, err
	}
	return b, nil
}

func (b *serveBench) open() error {
	if err := b.f.pack(b.dir); err != nil {
		return err
	}
	if _, err := query.BuildDir(b.dir); err != nil {
		return err
	}
	var err error
	if b.arch, err = archive.Open(b.dir); err != nil {
		return err
	}
	if b.ix, err = query.OpenDir(b.dir); err != nil {
		return err
	}
	w := b.f.world
	dep, err := platform.Tangled(w, netsim.PolicyUnmodified)
	if err != nil {
		return err
	}
	srv, err := api.NewServer(w, dep,
		func(day int, v6 bool) ([]netsim.VP, error) { return platform.Ark(w, day, v6) },
		func() int { return b.f.days - 1 })
	if err != nil {
		return err
	}
	srv.Archive, srv.Query = b.arch, b.ix
	b.handler = srv.Handler()

	// ETag discovery: one plain GET of everything the schedule revalidates.
	for _, fam := range families {
		b.prefixes[fam] = b.ix.Prefixes(fam)
		if len(b.prefixes[fam]) == 0 {
			return fmt.Errorf("no %s prefixes indexed", fam)
		}
		for day := b.f.days - hotDays; day < b.f.days; day++ {
			tag, err := b.discover(dayURL(fam, day))
			if err != nil {
				return err
			}
			b.dayTag[fmt.Sprintf("%s/%d", fam, day)] = tag
		}
	}
	b.aggTag, err = b.discover("/v1/aggregates?family=ipv4")
	return err
}

func (b *serveBench) resetTallies() {
	b.records, b.outBytes = nil, 0
	b.samples = make([][]float64, len(classes))
	b.status = make(map[int]int)
}

func (b *serveBench) close() {
	if b.ix != nil {
		b.ix.Close()
	}
	os.RemoveAll(b.dir)
}

func dayURL(fam string, day int) string { return fmt.Sprintf("/v1/census?day=%d&family=%s", day, fam) }

func (b *serveBench) discover(target string) (string, error) {
	req, err := http.NewRequest(http.MethodGet, target, nil)
	if err != nil {
		return "", err
	}
	b.w.reset()
	b.handler.ServeHTTP(&b.w, req)
	tag := b.w.hdr["Etag"]
	if b.w.status != http.StatusOK || len(tag) != 1 {
		return "", fmt.Errorf("GET %s: status %d, ETag %q", target, b.w.status, tag)
	}
	return tag[0], nil
}

// schedule draws one pass of n requests: each class's share of n, half per
// family, order shuffled. Which prefix an index-served request names comes
// straight from the seeded rng. A document-served request costs by where its
// day sits in the archive's delta chain (0.3 to 23 ms for one class), so a
// pass of free draws is a different amount of work each time; its classes
// instead spread their draws evenly over the parameter range from a seeded
// offset (spread), and every pass of every seed holds the same mix of cheap
// and dear days.
func (b *serveBench) schedule(n int) ([]request, error) {
	var pass []request
	for cls, c := range classes {
		quota := c.quota * n / 500
		for fi, fam := range families {
			count := (quota + 1 - fi) / 2
			var params []int
			switch cls {
			case clsTimeline, clsStability:
				params = make([]int, count)
				for i := range params {
					params[i] = b.rng.Intn(len(b.prefixes[fam]))
				}
			case clsAggregates, clsAggregates304:
				params = make([]int, count)
			case clsDayHot, clsDayHot304:
				params = b.spread(count, hotDays)
			case clsDayCold:
				params = b.spread(count, b.f.days-hotDays)
			case clsEvents:
				params = b.spread(count, max(1, b.f.days-eventWindow+1))
			case clsRange:
				params = b.spread(count, max(1, b.f.days-rangeWindow+1))
			}
			for _, p := range params {
				r, err := b.draw(cls, fam, p)
				if err != nil {
					return nil, err
				}
				pass = append(pass, r)
			}
		}
	}
	if len(pass) != n {
		return nil, fmt.Errorf("a pass of %d requests does not split by the class quotas", n)
	}
	b.rng.Shuffle(len(pass), func(i, j int) { pass[i], pass[j] = pass[j], pass[i] })
	return pass, nil
}

// spread returns n values of [0, size) at equal distances, from a seeded
// offset.
func (b *serveBench) spread(n, size int) []int {
	u := b.rng.Float64()
	out := make([]int, n)
	for i := range out {
		out[i] = min(int((float64(i)+u)*float64(size)/float64(n)), size-1)
	}
	return out
}

// draw builds the request of class cls on family fam whose parameter — prefix
// index, hot or cold day, first day of the window — is p.
func (b *serveBench) draw(cls int, fam string, p int) (request, error) {
	r := request{class: cls, want: http.StatusOK, family: fam}
	target, tag := "", ""
	window := func(days int) {
		r.from = p
		r.to = min(r.from+days, b.f.days) - 1
	}
	switch cls {
	case clsTimeline, clsStability:
		r.prefix = b.prefixes[fam][p]
		target = fmt.Sprintf("/v1/timeline/%s?family=%s", r.prefix, fam)
		if cls == clsStability {
			target = fmt.Sprintf("/v1/stability?family=%s&prefix=%s", fam, url.QueryEscape(r.prefix))
		}
	case clsAggregates, clsAggregates304:
		target = "/v1/aggregates?family=" + fam
		if cls == clsAggregates304 {
			tag = b.aggTag
		}
	case clsDayHot, clsDayHot304:
		day := b.f.days - hotDays + p
		target = dayURL(fam, day)
		if cls == clsDayHot304 {
			tag = b.dayTag[fmt.Sprintf("%s/%d", fam, day)]
		}
	case clsDayCold:
		target = dayURL(fam, p)
	case clsEvents:
		window(eventWindow)
		target = fmt.Sprintf("/v1/events?family=%s&from=%d&to=%d&limit=100", fam, r.from, r.to)
	case clsRange:
		window(rangeWindow)
		target = fmt.Sprintf("/v1/range?family=%s&from=%d&to=%d", fam, r.from, r.to)
	}
	req, err := http.NewRequest(http.MethodGet, target, nil)
	if err != nil {
		return r, err
	}
	r.req, r.key = req, target
	if tag != "" {
		req.Header.Set("If-None-Match", tag)
		r.want, r.key = http.StatusNotModified, target+" 304"
	}
	return r, nil
}

// runPass sends one pass and returns its wall time in seconds, the request
// latencies in ms and how many requests failed.
func (b *serveBench) runPass(tr *tracer, pass []request) (wall float64, latMS []float64, failed int) {
	latMS = make([]float64, 0, len(pass))
	t0 := now()
	for i := range pass {
		r := &pass[i]
		b.w.reset()
		s := tr.begin("api." + classes[r.class].name)
		t := now()
		b.handler.ServeHTTP(&b.w, r.req)
		ms := millis(since(t))
		tr.end(s)

		latMS = append(latMS, ms)
		b.samples[r.class] = append(b.samples[r.class], ms)
		b.status[b.w.status]++
		got := body{b.w.n, b.w.crc}
		b.outBytes += got.n
		b.records = fmt.Appendf(b.records, "%d %d %08x\n", b.w.status, got.n, got.crc)
		first, seen := b.bodies[r.key]
		if !seen {
			b.bodies[r.key] = got
		}
		if b.w.status != r.want || (seen && got != first) {
			failed++
		}
	}
	return seconds(since(t0)), latMS, failed
}

// runServe is the read side of the same archive and index: the dashboard mix
// of "Day in the Life of RIPE Atlas", with a hot set the size of the
// decoded-day LRU and a cold set fourteen times it.
func runServe(o options, tr *tracer) (*result, error) {
	b, err := newServeBench(o, tr)
	if err != nil {
		return nil, err
	}
	defer b.close()
	passes, perPass := o.reps(8), 500
	if o.smoke {
		perPass = 50
	}
	sched := make([][]request, passes+1) // one untimed pass first
	for i := range sched {
		if sched[i], err = b.schedule(perPass); err != nil {
			return nil, err
		}
	}
	res := &result{Unit: "request", Reps: passes, Metrics: make(map[string]float64)}
	if _, _, failed := b.runPass(nil, sched[0]); failed > 0 {
		res.fail("%d requests of the untimed pass failed", failed)
	}
	b.resetTallies()
	before := b.counters()
	res.Metrics["setup_s"] = seconds(since(procStart))

	var wallS, p50s, p95s []float64
	for i, pass := range sched[1:] {
		tr.setRep(i + 1)
		s := tr.begin("rep")
		wall, latMS, failed := b.runPass(tr, pass)
		tr.end(s)
		res.Ops += len(pass)
		res.Failed += failed
		wallS = append(wallS, wall)
		p50s = append(p50s, median(latMS))
		p95s = append(p95s, percentile(latMS, 0.95))
	}
	tr.setRep(0)
	after := b.counters()

	sum := sha256.Sum256(b.records)
	res.OutSHA256 = hex.EncodeToString(sum[:])
	res.RepS = wallS
	res.Metrics["work_per_s"] = float64(perPass) / median(wallS)
	res.Metrics["out_bytes_per_unit"] = float64(b.outBytes) / float64(res.Ops)
	res.Metrics["p50_ms"] = median(p50s)
	res.Metrics["p95_ms"] = median(p95s)
	if !o.traced {
		return res, nil
	}

	m := res.Metrics
	m["longitudinal.generate_s"] = b.f.generateS
	for cls, c := range classes {
		m["api."+c.name+"_p50_ms"] = median(b.samples[cls])
	}
	m["api.not_modified_share"] = float64(b.status[http.StatusNotModified]) / float64(res.Ops)
	m["api.alloc_kb_per_req"] = float64(after.alloc-before.alloc) / 1024 / float64(res.Ops)
	m["archive.decodes"] = float64(after.decodes - before.decodes)
	m["archive.lru_hit_share"] = share(after.lruHits-before.lruHits, after.lruMisses-before.lruMisses)
	m["query.lookups"] = float64(after.lookups - before.lookups)
	m["query.cache_hit_share"] = share(after.tlHits-before.tlHits, after.lookups-before.lookups-(after.tlHits-before.tlHits))
	m["query.decode_fallbacks"] = float64(after.fallbacks - before.fallbacks)
	m["query.events_scanned"] = float64(after.scanned - before.scanned)
	m["query.events_pruned"] = float64(after.pruned - before.pruned)
	m["trace_overhead_share"] = tr.overheadShare(wallS)
	m["trace_coverage_share"] = tr.coverage("rep")
	b.queryLayer(res, sched[1])
	archiveReadLayer(res, b.f, b.dir)
	return res, nil
}

// counters is a reading of every count the serve layers keep.
type counters struct {
	alloc                       uint64
	decodes, lruHits, lruMisses int64
	lookups, tlHits, fallbacks  int64
	scanned, pruned             int64
}

func (b *serveBench) counters() counters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c := counters{alloc: ms.TotalAlloc, decodes: b.arch.Decodes()}
	c.lruHits, c.lruMisses = b.arch.CacheStats()
	c.lookups, c.tlHits, c.fallbacks = b.ix.Stats()
	c.scanned, c.pruned = b.ix.EventScanStats()
	return c
}

func share(hits, misses int64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// queryLayer repeats a pass's index queries as direct Index calls: what the
// api classes cost above these is HTTP and JSON.
func (b *serveBench) queryLayer(res *result, pass []request) {
	// A handle of its own, so that the decoded-timeline LRU starts as empty
	// as the pass found it rather than filled by the pass.
	ix, err := query.OpenDir(b.dir)
	if err != nil {
		res.fail("query.OpenDir: %v", err)
		return
	}
	defer ix.Close()
	var timelineUS, stabilityUS, eventsMS []float64
	for i := range pass {
		r := &pass[i]
		var err error
		t0 := now()
		switch r.class {
		case clsTimeline:
			_, err = ix.Timeline(r.family, r.prefix)
			timelineUS = append(timelineUS, millis(since(t0))*1e3)
		case clsStability:
			_, err = ix.Stability(r.family, r.prefix)
			stabilityUS = append(stabilityUS, millis(since(t0))*1e3)
		case clsEvents:
			_, err = ix.Events(r.family, nil, r.from, r.to, query.EventOptions{})
			eventsMS = append(eventsMS, millis(since(t0)))
		}
		if err != nil {
			res.fail("direct %s query: %v", classes[r.class].name, err)
		}
	}
	res.Metrics["query.timeline_us"] = median(timelineUS)
	res.Metrics["query.stability_us"] = median(stabilityUS)
	res.Metrics["query.events_ms"] = median(eventsMS)
	res.Metrics["query.aggregates_us"] = perCall(1000, func(int) {
		if _, err := ix.Aggregates(); err != nil {
			res.fail("direct aggregates query: %v", err)
		}
	}) / 1e3
}
