package laces_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"

	"github.com/laces-project/laces/internal/api"
	"github.com/laces-project/laces/internal/archive"
	"github.com/laces-project/laces/internal/budget"
	"github.com/laces-project/laces/internal/core"
	"github.com/laces-project/laces/internal/netsim"
	"github.com/laces-project/laces/internal/obs"
	"github.com/laces-project/laces/internal/platform"
	"github.com/laces-project/laces/internal/query"
)

var (
	updateLedger = flag.Bool("update", false, "rewrite testdata/ledger.golden's identity and count rows from this run")
	lowerLedger  = flag.String("lower", "", "with -update, lower each allocs/ or bytes/ ceiling whose name matches this regexp to the headroom over this run's count")
)

const ledgerGolden = "testdata/ledger.golden"

// ledgerSeries are the registry series a ledger step records when it
// moves them, by name.
var ledgerSeries = []string{
	"laces_api_day_cache_total",
	"laces_archive_decodes_total",
	"laces_budget_admitted_total",
	"laces_budget_denied_total",
	"laces_hitlist_builds_total",
	"laces_netsim_walk_derivations_total",
	"laces_query_event_rows_total",
	"laces_query_lookups_total",
	"laces_stage_denied_total",
	"laces_stage_probes_total",
}

// allocPrefix starts the name of every allocation row, and bytesPrefix
// that of every allocated-bytes row. Their values are ceilings: a run
// passes with at most that many allocations, or bytes allocated.
const (
	allocPrefix = "allocs/"
	bytesPrefix = "bytes/"
)

// isCeiling reports whether the row name holds a ceiling.
func isCeiling(name string) bool {
	return strings.HasPrefix(name, allocPrefix) || strings.HasPrefix(name, bytesPrefix)
}

// TestLedger runs one fixed piece of work end to end and compares what
// it produced, row by row, with testdata/ledger.golden:
//
//   - a lazy TestConfig world, Tangled and Ark, at Parallelism 2;
//   - both families over days 265–273, across the day-270 hitlist
//     refresh;
//   - one governed day on a second pipeline with a small daily budget;
//   - the days appended at SnapshotEvery 7 (265 and 272 are snapshots),
//     the two day-273 appends, both deltas, as steps;
//   - query.BuildDir over days 265–272, then the extension to 273;
//   - Server.Reload onto the extended index and a fixed request mix
//     through Handler, each GET served twice at once: the repeat counts
//     only for its steady allocation and allocated-bytes rows.
//
// A row is an identity (the SHA-256 of a census document, day-file,
// index file or response body), a count (a registry series a step moved,
// or a value a call returned) or a ceiling on allocations or on bytes
// allocated. Counts come from the telemetry the system emits anyway: one
// registry attached through api.Server.Instrument. Ceiling rows are
// checked only without -race. -update rewrites the golden's identity and
// count rows and adds a ceiling for a ceiling row the golden lacks; it
// lowers a ceiling only when -lower matches its name, and never raises
// one: a run over a ceiling fails with -update too, and only a hand edit
// raises it.
//
// Two rows say where the golden was recorded. On another platform the
// test skips: the compiler may fuse multiply-adds there and move census
// bytes. With another Go release the ceilings, which are the
// toolchain's as much as the code's, go unchecked.
func TestLedger(t *testing.T) {
	golden, err := os.ReadFile(ledgerGolden)
	if err != nil && !(*updateLedger && os.IsNotExist(err)) {
		t.Fatalf("%v (go test -run '^TestLedger$' . -update writes it)", err)
	}
	want, err := parseLedger(golden)
	if err != nil {
		t.Fatalf("%s: %v", ledgerGolden, err)
	}
	here, release := runtime.GOOS+"/"+runtime.GOARCH, goRelease()
	recordedOn, recordedWith := want["platform"], want["go"]
	delete(want, "platform")
	delete(want, "go")
	switch {
	case *updateLedger && raceEnabled:
		t.Fatal("-update records ceilings; run it without -race")
	case *updateLedger:
	case recordedOn == "" || recordedWith == "":
		t.Fatalf("%s has no platform or go row; -update writes them", ledgerGolden)
	case recordedOn != here:
		t.Skipf("the ledger is recorded on %s and this is %s: the compiler may fuse multiply-adds here and move census bytes", recordedOn, here)
	}
	checkAllocs := !raceEnabled && recordedWith == release
	if !checkAllocs && !*updateLedger {
		t.Logf("ceilings go unchecked: recorded with %s, this is %s (race detector: %v)", recordedWith, release, raceEnabled)
	}

	lower, err := regexp.Compile(*lowerLedger)
	if err != nil || *lowerLedger != "" && !*updateLedger {
		t.Fatalf("-lower %q: a regexp of ceilings to lower, with -update (%v)", *lowerLedger, err)
	}
	got := runLedger(t)
	if *updateLedger {
		if *lowerLedger == "" {
			lower = nil
		}
		rows := updatedLedger(want, got, lower)
		over := checkLedger(rows, got, true) // only a count over a ceiling -update kept
		rows["platform"], rows["go"] = here, release
		if err := os.WriteFile(ledgerGolden, formatLedger(rows), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d rows to %s", len(rows), ledgerGolden)
		for _, p := range over {
			t.Error(p)
		}
		return
	}
	for _, p := range checkLedger(want, got, checkAllocs) {
		t.Error(p)
	}
	if testing.Verbose() {
		for _, name := range slices.Sorted(maps.Keys(got)) {
			if isCeiling(name) {
				t.Logf("%s %s, ceiling %s", name, got[name], want[name])
			}
		}
	}
}

// goRelease names the running Go release without its patch level.
func goRelease() string {
	v := strings.SplitN(runtime.Version(), ".", 3)
	return strings.Join(v[:min(len(v), 2)], ".")
}

// runLedger runs the ledger's fixture and returns its rows.
func runLedger(t *testing.T) map[string]string {
	cfg := netsim.TestConfig()
	cfg.LazyTargets = true
	w, err := netsim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dep, err := platform.Tangled(w, netsim.PolicyUnmodified)
	if err != nil {
		t.Fatal(err)
	}
	gcd := func(day int, v6 bool) ([]netsim.VP, error) { return platform.Ark(w, day, v6) }
	const first, last = 265, 273
	srv, err := api.NewServer(w, dep, gcd, func() int { return last })
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.New()
	srv.Instrument(reg) // the one attachment: the world and the server's bridges
	l := &ledger{t: t, reg: reg, rows: map[string]string{}}

	// The census: both families, day by day, each day but the last
	// appended as it is published.
	dir := t.TempDir()
	aw, err := archive.Create(dir, archive.Options{SnapshotEvery: 7})
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := core.NewPipeline(w, core.Config{Deployment: dep, GCDVPs: gcd, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	var held []*core.Document
	for day := first; day <= last; day++ {
		for _, v6 := range []bool{false, true} {
			doc := l.census(fmt.Sprintf("census/%s/%d", family(v6), day), pipe, day, v6)
			if day == last {
				held = append(held, doc)
			} else if err := aw.Append(day, doc); err != nil {
				t.Fatal(err)
			}
		}
	}

	// One governed day: a fresh pipeline under a daily cap well below
	// what the day demands.
	gov, err := core.NewPipeline(w, core.Config{
		Deployment: dep, GCDVPs: gcd, Parallelism: 2,
		Budget: budget.Budget{DailyProbes: 20_000},
	})
	if err != nil {
		t.Fatal(err)
	}
	l.census(fmt.Sprintf("governed/ipv4/%d", last), gov, last, false)

	// The index over days first..last-1, and the first serving
	// generation over it.
	l.build("index/build", dir)
	if srv.Archive, err = archive.Open(dir); err != nil {
		t.Fatal(err)
	}
	if srv.Query, err = query.OpenDir(dir); err != nil {
		t.Fatal(err)
	}
	defer srv.Query.Close()
	h := srv.Handler()
	l.request(h, "serve/00-before-reload", httptest.NewRequest("GET", "/v1/census?day=266", nil))

	// The last day appended, the index extended by it, and the server
	// reloaded onto both.
	for _, doc := range held {
		l.step(fmt.Sprintf("archive/append/%s/%d", doc.Family, last), func() {
			if err := aw.Append(last, doc); err != nil {
				t.Fatal(err)
			}
		})
	}
	appends, stored, full := aw.AppendStats()
	l.add("archive/appends", appends)
	l.add("archive/stored_bytes", stored)
	l.add("archive/full_bytes", full)
	if err := aw.Close(); err != nil {
		t.Fatal(err)
	}
	l.files("archive", dir, func(name string) bool { return !strings.HasPrefix(name, query.IndexFileName) })
	l.build("index/extend", dir)
	a, err := archive.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := query.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	srv.Reload(a, ix)

	// The request mix, on the prefix the last IPv4 day lists last among
	// its GCD-confirmed rows: a lookup by address that walked the targets
	// instead of searching them would show in its derivations.
	var prefix string
	for _, e := range held[0].Entries {
		if e.GCDAnycast {
			prefix = e.Prefix
		}
	}
	if prefix == "" {
		t.Fatal("the last IPv4 day confirms no prefix")
	}
	// The mix runs on one P. A request takes its buffers from pools,
	// which are per P, so on one P its repeat finds the buffers it gave
	// back, and the steady rows count what a request costs and not which
	// P it ran on.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	etag := ""
	// A window of a family whose event list is memoized (11-events-ipv4-…)
	// is answered without a row scanned, so it has no event-rows row.
	for _, rq := range []struct{ name, target string }{
		{"01-healthz", "/v1/healthz"},
		{"02-days-ipv4", "/v1/days?family=ipv4"},
		{"03-census-ipv4-265", "/v1/census?day=265"},
		{"04-census-ipv4-273", "/v1/census?day=273"},
		{"05-census-ipv4-273-revalidate", "/v1/census?day=273"},
		{"06-census-ipv6-270", "/v1/census?day=270&family=ipv6"},
		{"07-range-ipv4-270-273", "/v1/range?from=270&to=273"},
		{"08-prefix-273", "/v1/prefix/" + prefix + "?day=273"},
		{"09-timeline", "/v1/timeline/" + prefix},
		{"10-stability", "/v1/stability?prefix=" + prefix},
		{"11-events-ipv4", "/v1/events"},
		{"11-events-ipv4-268-271", "/v1/events?from=268&to=271"},
		{"12-events-ipv6-272-273", "/v1/events?family=ipv6&from=272&to=273"},
		{"13-aggregates", "/v1/aggregates"},
		{"14-responsibility-ipv4-273", "/v1/responsibility?day=273"},
	} {
		get := func() *http.Request {
			r := httptest.NewRequest("GET", rq.target, nil)
			if strings.HasSuffix(rq.name, "-revalidate") {
				r.Header.Set("If-None-Match", etag)
			}
			return r
		}
		name := "serve/" + rq.name
		rec := l.request(h, name, get())
		l.steady(h, name, get())
		etag = rec.Header().Get("Etag")
	}
	measure := httptest.NewRequest("POST", "/v1/measure", strings.NewReader(`{"prefix":"`+prefix+`"}`))
	l.request(h, "serve/15-measure", measure)
	return l.rows
}

// ledger collects one run's rows.
type ledger struct {
	t    *testing.T
	reg  *obs.Registry
	rows map[string]string
}

func (l *ledger) add(name string, value any) {
	l.t.Helper()
	if _, dup := l.rows[name]; dup {
		l.t.Fatalf("ledger row %s recorded twice", name)
	}
	l.rows[name] = fmt.Sprint(value)
}

func (l *ledger) hash(name string, b []byte) {
	sum := sha256.Sum256(b)
	l.add(name+"/sha256", hex.EncodeToString(sum[:]))
}

// step runs fn and records under name the allocations it made and how
// far it moved each ledger series.
func (l *ledger) step(name string, fn func()) {
	l.t.Helper()
	before := l.series()
	n, _ := allocated(fn)
	l.add(allocPrefix+name, n)
	for k, v := range l.series() {
		if d := v - before[k]; d != 0 {
			l.add(name+"/"+k, int64(d))
		}
	}
}

// steady serves r, a repeat of step name's request, through h and
// records the allocations it made and the bytes they hold as name's
// steady rows: what the request costs once nothing is left to warm. No
// count row sees the repeat.
func (l *ledger) steady(h http.Handler, name string, r *http.Request) {
	l.t.Helper()
	rec := httptest.NewRecorder()
	n, size := allocated(func() { h.ServeHTTP(rec, r) })
	l.add(allocPrefix+name+"/steady", n)
	l.add(bytesPrefix+name+"/steady", size)
}

// allocated returns the heap allocations fn makes and the bytes they
// hold, from the same two runtime.MemStats reads.
func allocated(fn func()) (n, size uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	n, size = ms.Mallocs, ms.TotalAlloc
	fn()
	runtime.ReadMemStats(&ms)
	return ms.Mallocs - n, ms.TotalAlloc - size
}

// series reads the ledger series, keyed as the exposition names them.
func (l *ledger) series() map[string]float64 {
	out := map[string]float64{}
	for _, m := range l.reg.Snapshot().Metrics {
		if !slices.Contains(ledgerSeries, m.Name) {
			continue
		}
		key := m.Name
		if len(m.Labels) > 0 {
			var ls []string
			for _, lb := range m.Labels {
				ls = append(ls, fmt.Sprintf("%s=%q", lb.Name, lb.Value))
			}
			key += "{" + strings.Join(ls, ",") + "}"
		}
		out[key] = m.Value
	}
	return out
}

// census runs one census day on p as a step and records its document's
// identity.
func (l *ledger) census(name string, p *core.Pipeline, day int, v6 bool) *core.Document {
	l.t.Helper()
	var c *core.DailyCensus
	l.step(name, func() {
		var err error
		if c, err = p.RunDaily(day, v6, core.DayOptions{}); err != nil {
			l.t.Fatal(err)
		}
	})
	doc := c.Document()
	var buf bytes.Buffer
	if err := doc.WriteJSON(&buf); err != nil {
		l.t.Fatal(err)
	}
	l.hash(name, buf.Bytes())
	return doc
}

// build brings dir's timeline index up to date as a step and records
// what the build reports and the files it wrote.
func (l *ledger) build(name, dir string) {
	l.t.Helper()
	var res *query.BuildResult
	l.step(name, func() {
		var err error
		if res, err = query.BuildDir(dir); err != nil {
			l.t.Fatal(err)
		}
	})
	l.add(name+"/days", res.Days)
	l.add(name+"/prefixes", res.Prefixes)
	l.add(name+"/bytes", res.Bytes)
	l.add(name+"/source_bytes", res.SourceBytes)
	l.add(name+"/resumed", res.Resumed)
	l.add(name+"/from_scratch", strconv.Quote(res.FromScratch))
	l.add(name+"/days_added", res.DaysAdded)
	l.add(name+"/days_decoded", res.DaysDecoded)
	l.files(name, dir, func(name string) bool { return strings.HasPrefix(name, query.IndexFileName) })
}

// files records the identity of each file in dir that keep selects, and
// their number and total size.
func (l *ledger) files(name, dir string, keep func(string) bool) {
	l.t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		l.t.Fatal(err)
	}
	var n, size int
	for _, e := range ents {
		if !keep(e.Name()) {
			continue
		}
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			l.t.Fatal(err)
		}
		l.hash(name+"/"+e.Name(), b)
		n++
		size += len(b)
	}
	l.add(name+"/files", n)
	l.add(name+"/file_bytes", size)
}

// request serves r through h as a step and records the response's
// status and body identity; a measurement's body carries its wall time,
// so for it the probes it spent stand in for the body.
func (l *ledger) request(h http.Handler, name string, r *http.Request) *httptest.ResponseRecorder {
	l.t.Helper()
	rec := httptest.NewRecorder()
	l.step(name, func() { h.ServeHTTP(rec, r) })
	l.add(name+"/status", rec.Code)
	if r.URL.Path != "/v1/measure" {
		l.hash(name, rec.Body.Bytes())
		return rec
	}
	var m struct {
		ProbesSpent *int64 `json:"probes_spent"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil || m.ProbesSpent == nil {
		l.t.Fatalf("%s: no probes_spent in %q (%v)", name, rec.Body.Bytes(), err)
	}
	l.add(name+"/probes_spent", *m.ProbesSpent)
	return rec
}

func family(v6 bool) string {
	if v6 {
		return "ipv6"
	}
	return "ipv4"
}

// parseLedger reads a golden: one "name value" row a line, sorted by
// name, each name once; lines starting with # are comments.
func parseLedger(b []byte) (map[string]string, error) {
	rows := map[string]string{}
	prev := ""
	for i, line := range strings.Split(string(b), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, value, _ := strings.Cut(line, " ")
		switch {
		case value == "":
			return nil, fmt.Errorf("line %d: row %s has no value", i+1, name)
		case name == prev:
			return nil, fmt.Errorf("line %d: row %s appears twice", i+1, name)
		case name < prev:
			return nil, fmt.Errorf("line %d: row %s is out of order after %s", i+1, name, prev)
		}
		rows[name], prev = value, name
	}
	return rows, nil
}

// formatLedger writes rows as a golden, sorted by name.
func formatLedger(rows map[string]string) []byte {
	var b bytes.Buffer
	b.WriteString("# TestLedger (ledger_test.go) writes this file with -update; allocs/ rows are ceilings.\n")
	for _, name := range slices.Sorted(maps.Keys(rows)) {
		fmt.Fprintf(&b, "%s %s\n", name, rows[name])
	}
	return b.Bytes()
}

// checkLedger compares a run's rows with the golden's and returns one
// problem per row that differs, each naming its row. A ceiling row is
// compared as a ceiling, and only when ceilings is set.
func checkLedger(golden, got map[string]string, ceilings bool) []string {
	var problems []string
	for name, want := range golden {
		v, ok := got[name]
		switch {
		case !ok:
			problems = append(problems, fmt.Sprintf("%s: in the golden, but the run does not produce it", name))
		case isCeiling(name):
			if !ceilings {
				continue
			}
			n, err1 := strconv.ParseUint(v, 10, 64)
			ceiling, err2 := strconv.ParseUint(want, 10, 64)
			if err1 != nil || err2 != nil || n > ceiling {
				problems = append(problems, fmt.Sprintf("%s: %s, ceiling %s (only a hand edit raises it)", name, v, want))
			}
		case v != want:
			problems = append(problems, fmt.Sprintf("%s: %s, golden %s", name, v, want))
		}
	}
	for name, v := range got {
		if _, ok := golden[name]; !ok {
			problems = append(problems, fmt.Sprintf("%s: the run produces %s, but the golden has no such row", name, v))
		}
	}
	slices.Sort(problems)
	return problems
}

// updatedLedger is the golden -update writes: the run's identity and
// count rows, and for each ceiling row a ceiling. A row the golden lacks
// gets the headroom over the run's count; any other keeps the golden's
// ceiling, lowered to that headroom when lower (nil: none) matches its
// name and the headroom is the lower of the two. No ceiling is raised,
// so a count over its ceiling stays a failure.
func updatedLedger(golden, got map[string]string, lower *regexp.Regexp) map[string]string {
	out := map[string]string{}
	for name, v := range got {
		out[name] = v
		if !isCeiling(name) {
			continue
		}
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			continue
		}
		c, err := strconv.ParseUint(golden[name], 10, 64)
		switch {
		case err != nil:
			c = allocHeadroom(n)
		case lower != nil && lower.MatchString(name):
			c = min(c, allocHeadroom(n))
		}
		out[name] = strconv.FormatUint(c, 10)
	}
	return out
}

// allocHeadroom is the ceiling recorded over n allocations, or n bytes
// allocated: a quarter more, plus 16 for a small count, rounded up to two
// significant digits. Parallel census days and pooled encoders vary by a
// few.
func allocHeadroom(n uint64) uint64 {
	c := n + n/4 + 16
	step := uint64(1)
	for c/step >= 100 {
		step *= 10
	}
	return (c + step - 1) / step * step
}

// TestLedgerChecks: each way a golden or a run can disagree with the
// ledger's rules fails and names its row, and what -update writes is
// sorted and passes at once.
func TestLedgerChecks(t *testing.T) {
	for _, tc := range []struct{ name, golden, row string }{
		{"unsorted", "census/b 1\ncensus/a 2\n", "census/a"},
		{"duplicate", "census/a 1\ncensus/a 1\n", "census/a"},
		{"no value", "census/a 1\ncensus/b\n", "census/b"},
		{"empty value", "census/a \n", "census/a"},
	} {
		if _, err := parseLedger([]byte(tc.golden)); err == nil || !strings.Contains(err.Error(), tc.row) {
			t.Errorf("%s golden: error %v, want one naming %s", tc.name, err, tc.row)
		}
	}

	golden := map[string]string{"allocs/step": "100", "census/a": "1", "census/b": "2"}
	for _, tc := range []struct {
		name   string
		got    map[string]string
		allocs bool
		row    string // "": no problem
	}{
		{"same", map[string]string{"allocs/step": "100", "census/a": "1", "census/b": "2"}, true, ""},
		{"under the ceiling", map[string]string{"allocs/step": "7", "census/a": "1", "census/b": "2"}, true, ""},
		{"over the ceiling", map[string]string{"allocs/step": "101", "census/a": "1", "census/b": "2"}, true, "allocs/step"},
		{"over the ceiling, unchecked", map[string]string{"allocs/step": "101", "census/a": "1", "census/b": "2"}, false, ""},
		{"moved", map[string]string{"allocs/step": "100", "census/a": "1", "census/b": "3"}, true, "census/b"},
		{"golden row not produced", map[string]string{"allocs/step": "100", "census/a": "1"}, true, "census/b"},
		{"produced row not in the golden", map[string]string{"allocs/step": "100", "census/a": "1", "census/b": "2", "census/c": "3"}, true, "census/c"},
	} {
		problems := checkLedger(golden, tc.got, tc.allocs)
		switch {
		case tc.row == "" && len(problems) > 0:
			t.Errorf("%s: %v, want no problem", tc.name, problems)
		case tc.row != "" && (len(problems) != 1 || !strings.HasPrefix(problems[0], tc.row+":")):
			t.Errorf("%s: %v, want one problem naming %s", tc.name, problems, tc.row)
		}
	}

	// -update -lower='lowered|unlowerable': identity and count rows
	// follow the run, a new allocation row gets headroom, a ceiling is
	// lowered only where -lower matches and the headroom is lower, and
	// none is raised.
	got := map[string]string{"census/b": "3", "allocs/kept": "10", "allocs/over": "150", "allocs/lowered": "10",
		"allocs/unlowerable": "90", "allocs/new": "40", "census/a": "1"}
	old := map[string]string{"census/b": "2", "census/gone": "4", "allocs/kept": "100", "allocs/over": "100",
		"allocs/lowered": "100", "allocs/unlowerable": "100"}
	b := formatLedger(updatedLedger(old, got, regexp.MustCompile("lowered|unlowerable")))
	rows, err := parseLedger(b)
	if err != nil {
		t.Fatalf("-update wrote a golden that does not parse: %v\n%s", err, b)
	}
	want := map[string]string{"census/a": "1", "census/b": "3", "allocs/kept": "100", "allocs/over": "100",
		"allocs/lowered": "28", "allocs/unlowerable": "100", "allocs/new": "66"}
	if !maps.Equal(rows, want) {
		t.Errorf("-update wrote %v, want %v", rows, want)
	}
	if problems := checkLedger(rows, got, true); len(problems) != 1 || !strings.HasPrefix(problems[0], "allocs/over:") {
		t.Errorf("a run right after -update: %v, want the one row over its ceiling", problems)
	}
	if rows := updatedLedger(old, got, nil); rows["allocs/lowered"] != "100" || rows["allocs/new"] != "66" {
		t.Errorf("-update without -lower set lowered 10 → %s, new 40 → %s; want 100, 66", rows["allocs/lowered"], rows["allocs/new"])
	}

	// A bytes/ row is a ceiling as an allocs/ row is.
	if problems := checkLedger(map[string]string{"bytes/step": "1000"}, map[string]string{"bytes/step": "1001"}, true); len(problems) != 1 || !strings.HasPrefix(problems[0], "bytes/step:") {
		t.Errorf("a bytes/ row over its ceiling: %v, want one problem naming it", problems)
	}
	if rows := updatedLedger(map[string]string{"bytes/kept": "900"}, map[string]string{"bytes/kept": "10", "bytes/new": "4000"}, nil); rows["bytes/kept"] != "900" || rows["bytes/new"] != "5100" {
		t.Errorf("-update set bytes/kept 10 → %s, bytes/new 4000 → %s; want 900, 5100", rows["bytes/kept"], rows["bytes/new"])
	}
}
