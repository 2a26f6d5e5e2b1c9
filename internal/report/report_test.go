package report

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"github.com/laces-project/laces/internal/core"
	"github.com/laces-project/laces/internal/netsim"
	"github.com/laces-project/laces/internal/platform"
	"github.com/laces-project/laces/internal/query"
)

var (
	docsOnce sync.Once
	docA     *core.Document // day 100
	docB     *core.Document // day 107
	docsErr  error
)

// censusDocs produces two real census documents a week apart on the test
// world, so diffs exercise genuine day-over-day churn.
func censusDocs(t *testing.T) (*core.Document, *core.Document) {
	t.Helper()
	docsOnce.Do(func() {
		w, err := netsim.New(netsim.TestConfig())
		if err != nil {
			docsErr = err
			return
		}
		dep, err := platform.Tangled(w, netsim.PolicyUnmodified)
		if err != nil {
			docsErr = err
			return
		}
		pipe, err := core.NewPipeline(w, core.Config{
			Deployment: dep,
			GCDVPs: func(day int, v6 bool) ([]netsim.VP, error) {
				return platform.Ark(w, day, v6)
			},
		})
		if err != nil {
			docsErr = err
			return
		}
		a, err := pipe.RunDaily(100, false, core.DayOptions{})
		if err != nil {
			docsErr = err
			return
		}
		b, err := pipe.RunDaily(107, false, core.DayOptions{})
		if err != nil {
			docsErr = err
			return
		}
		docA, docB = a.Document(), b.Document()
	})
	if docsErr != nil {
		t.Fatal(docsErr)
	}
	return docA, docB
}

func TestDiffSelfIsQuiet(t *testing.T) {
	a, _ := censusDocs(t)
	d := Diff(a, a)
	if len(d.Deltas) != 0 {
		t.Fatalf("self-diff reported %d changes: %+v", len(d.Deltas), d.Deltas[0])
	}
	if d.GBefore != d.GAfter || d.MBefore != d.MAfter {
		t.Fatal("self-diff headline counts differ")
	}
}

func TestDiffWeekApartShowsChurn(t *testing.T) {
	a, b := censusDocs(t)
	d := Diff(a, b)
	// The rotating FP pool and temporary anycast guarantee movement over
	// a week (§5.1.6: the anycast-based set has high variability).
	if d.Counts[Appeared] == 0 && d.Counts[Withdrawn] == 0 {
		t.Fatal("a week of census churn produced no appeared/withdrawn prefixes")
	}
	// Every delta's prefix must exist on the relevant side.
	aIdx := make(map[string]bool)
	for _, e := range a.Entries {
		aIdx[e.Prefix] = true
	}
	bIdx := make(map[string]bool)
	for _, e := range b.Entries {
		bIdx[e.Prefix] = true
	}
	for _, delta := range d.Deltas {
		switch delta.Kind {
		case Appeared:
			if aIdx[delta.Prefix] || !bIdx[delta.Prefix] {
				t.Fatalf("appeared prefix %s membership wrong", delta.Prefix)
			}
		case Withdrawn:
			if !aIdx[delta.Prefix] || bIdx[delta.Prefix] {
				t.Fatalf("withdrawn prefix %s membership wrong", delta.Prefix)
			}
		default:
			if !aIdx[delta.Prefix] || !bIdx[delta.Prefix] {
				t.Fatalf("%v prefix %s must be on both sides", delta.Kind, delta.Prefix)
			}
		}
	}
}

func TestDiffDirectionality(t *testing.T) {
	a, b := censusDocs(t)
	fwd := Diff(a, b)
	rev := Diff(b, a)
	if fwd.Counts[Appeared] != rev.Counts[Withdrawn] || fwd.Counts[Withdrawn] != rev.Counts[Appeared] {
		t.Fatalf("appeared/withdrawn not symmetric: fwd=%v rev=%v", fwd.Counts, rev.Counts)
	}
	if fwd.Counts[Confirmed] != rev.Counts[Unconfirmed] {
		t.Fatalf("confirmed/unconfirmed not symmetric: fwd=%v rev=%v", fwd.Counts, rev.Counts)
	}
}

func TestDiffRender(t *testing.T) {
	a, b := censusDocs(t)
	var buf bytes.Buffer
	if err := Diff(a, b).Render(&buf, 3); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "census diff") || !strings.Contains(out, "G ") {
		t.Fatalf("render missing headline:\n%s", out)
	}
}

func TestDiffSyntheticTransitions(t *testing.T) {
	old := &core.Document{Date: "2024-06-01", GCount: 2, MCount: 1, Entries: []core.DocumentEntry{
		{Prefix: "192.0.2.0/24", OriginASN: 1, ACProtocols: []string{"ICMP"}, GCDAnycast: true, GCDSites: 4},
		{Prefix: "198.51.100.0/24", OriginASN: 2, ACProtocols: []string{"ICMP"}},
		{Prefix: "203.0.113.0/24", OriginASN: 3, GCDAnycast: true, GCDSites: 10},
	}}
	new := &core.Document{Date: "2024-06-02", GCount: 2, MCount: 1, Entries: []core.DocumentEntry{
		{Prefix: "192.0.2.0/24", OriginASN: 1, ACProtocols: []string{"ICMP"}, GCDAnycast: false},                // 𝒢 → ℳ
		{Prefix: "198.51.100.0/24", OriginASN: 2, ACProtocols: []string{"ICMP"}, GCDAnycast: true, GCDSites: 3}, // ℳ → 𝒢
		{Prefix: "203.0.113.0/24", OriginASN: 3, GCDAnycast: true, GCDSites: 22},                                // growth
		{Prefix: "192.0.2.128/25", OriginASN: 9, ACProtocols: []string{"TCP"}},                                  // appeared
	}}
	d := Diff(old, new)
	want := map[Change]int{Appeared: 1, Confirmed: 1, Unconfirmed: 1, SitesChanged: 1}
	for k, n := range want {
		if d.Counts[k] != n {
			t.Errorf("%v = %d, want %d", k, d.Counts[k], n)
		}
	}
	if d.Counts[Withdrawn] != 0 {
		t.Errorf("unexpected withdrawals: %d", d.Counts[Withdrawn])
	}
}

func TestDiffFlagTransitions(t *testing.T) {
	old := &core.Document{Date: "a", Entries: []core.DocumentEntry{
		{Prefix: "192.0.2.0/24", ACProtocols: []string{"ICMP"}},
	}}
	new := &core.Document{Date: "b", Entries: []core.DocumentEntry{
		{Prefix: "192.0.2.0/24", ACProtocols: []string{"ICMP"}, GlobalBGP: true},
	}}
	d := Diff(old, new)
	if d.Counts[FlagsChanged] != 1 {
		t.Fatalf("flag transition not detected: %v", d.Counts)
	}
	if !strings.Contains(d.Deltas[0].Note, "global-BGP") {
		t.Fatalf("note %q does not mention global-BGP", d.Deltas[0].Note)
	}
}

func TestDashboardRenders(t *testing.T) {
	a, b := censusDocs(t)
	var buf bytes.Buffer
	if err := Dashboard(&buf, []*core.Document{b, a}); err != nil { // order-insensitive
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"LACeS census dashboard", "detections per snapshot",
		"confidence (receiving VPs)", "largest origin ASes", "churn"} {
		if !strings.Contains(out, want) {
			t.Fatalf("dashboard missing %q:\n%s", want, out)
		}
	}
	// The latest snapshot must be the header's date (sorted internally).
	if !strings.Contains(out, b.Date) {
		t.Fatal("dashboard header missing latest date")
	}
}

func TestDashboardEmpty(t *testing.T) {
	if err := Dashboard(&bytes.Buffer{}, nil); err == nil {
		t.Fatal("empty dashboard should error")
	}
	if err := NewDashboardBuilder().Render(&bytes.Buffer{}); err == nil {
		t.Fatal("empty builder should error")
	}
}

// TestDashboardBuilderMatchesBatch pins the streaming port: feeding the
// builder day by day renders exactly what the materialized Dashboard
// renders.
func TestDashboardBuilderMatchesBatch(t *testing.T) {
	a, b := censusDocs(t)
	var batch bytes.Buffer
	if err := Dashboard(&batch, []*core.Document{a, b}); err != nil {
		t.Fatal(err)
	}
	builder := NewDashboardBuilder()
	builder.Add(a)
	builder.Add(b)
	var streamed bytes.Buffer
	if err := builder.Render(&streamed); err != nil {
		t.Fatal(err)
	}
	if batch.String() != streamed.String() {
		t.Fatalf("streamed dashboard diverges from batch:\n--- batch\n%s\n--- streamed\n%s",
			batch.String(), streamed.String())
	}
	if len(builder.rows) != 2 {
		t.Fatalf("builder counted %d snapshots", len(builder.rows))
	}
}

// TestDashboardShowsProbeBudget pins the published R3 cost surface.
func TestDashboardShowsProbeBudget(t *testing.T) {
	a, b := censusDocs(t)
	if a.ProbesAnycastStage <= 0 || a.ProbesGCDStage <= 0 {
		t.Fatalf("census document lacks probe accounting: %+v", a)
	}
	var buf bytes.Buffer
	if err := Dashboard(&buf, []*core.Document{a, b}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "probing cost (R3)") {
		t.Fatalf("dashboard does not surface the probe budget:\n%s", buf.String())
	}
}

// TestDiffOrderingNumeric pins the satellite fix on the diff tool's
// ordering: within a change kind, deltas sort numerically by prefix.
func TestDiffOrderingNumeric(t *testing.T) {
	old := &core.Document{Date: "a", Family: "ipv4"}
	new := &core.Document{Date: "b", Family: "ipv4", Entries: []core.DocumentEntry{
		{Prefix: "2.0.0.0/24", ACProtocols: []string{"ICMP"}},
		{Prefix: "10.0.0.0/24", ACProtocols: []string{"ICMP"}},
		{Prefix: "100.0.0.0/24", ACProtocols: []string{"ICMP"}},
	}}
	d := Diff(old, new)
	if len(d.Deltas) != 3 {
		t.Fatalf("want 3 appeared, got %d", len(d.Deltas))
	}
	want := []string{"2.0.0.0/24", "10.0.0.0/24", "100.0.0.0/24"}
	for i, delta := range d.Deltas {
		if delta.Prefix != want[i] {
			t.Fatalf("delta %d = %s, want %s (numeric order)", i, delta.Prefix, want[i])
		}
	}
}

// TestDiffSymmetryProperty checks Appeared/Withdrawn and
// Confirmed/Unconfirmed duality on randomized documents.
func TestDiffSymmetryProperty(t *testing.T) {
	gen := func(seed int64) *core.Document {
		rng := rand.New(rand.NewSource(seed))
		d := &core.Document{Date: fmt.Sprintf("seed-%d", seed)}
		n := 5 + rng.Intn(40)
		for i := 0; i < n; i++ {
			e := core.DocumentEntry{
				Prefix:    fmt.Sprintf("10.%d.%d.0/24", rng.Intn(8), rng.Intn(8)),
				OriginASN: uint32(rng.Intn(5) + 1),
				GCDSites:  rng.Intn(20),
			}
			if rng.Intn(2) == 0 {
				e.ACProtocols = []string{"ICMP"}
			}
			e.GCDAnycast = rng.Intn(2) == 0
			e.PartialAnycast = rng.Intn(8) == 0
			e.GlobalBGP = rng.Intn(8) == 0
			// Prefixes must be unique within a document.
			dup := false
			for _, prev := range d.Entries {
				if prev.Prefix == e.Prefix {
					dup = true
					break
				}
			}
			if !dup {
				d.Entries = append(d.Entries, e)
			}
		}
		return d
	}
	f := func(sa, sb int64) bool {
		a, b := gen(sa), gen(sb)
		fwd, rev := Diff(a, b), Diff(b, a)
		return fwd.Counts[Appeared] == rev.Counts[Withdrawn] &&
			fwd.Counts[Withdrawn] == rev.Counts[Appeared] &&
			fwd.Counts[Confirmed] == rev.Counts[Unconfirmed] &&
			fwd.Counts[Unconfirmed] == rev.Counts[Confirmed] &&
			fwd.Counts[SitesChanged] == rev.Counts[SitesChanged] &&
			fwd.Counts[FlagsChanged] == rev.Counts[FlagsChanged]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestChurnAndEvents renders the index-backed longitudinal section and
// checks the load-bearing lines are present and bounded.
func TestChurnAndEvents(t *testing.T) {
	series := []query.SeriesPoint{
		{Day: 0, Entries: 100, GCDConfirmed: 60, AnycastOnly: 40},
		{Day: 1, Entries: 101, GCDConfirmed: 61, AnycastOnly: 40, Added: 3, Removed: 2, ChurnRate: 0.0495},
		{Day: 2, Entries: 99, GCDConfirmed: 60, AnycastOnly: 39, Added: 1, Removed: 3, ChurnRate: 0.0404},
	}
	events := []query.Event{
		{Kind: query.EventOnset, Family: "ipv4", Prefix: "2.0.0.0/24", Day: 1},
		{Kind: query.EventSiteChurn, Family: "ipv4", Prefix: "10.0.0.0/24", Day: 2, PrevDay: 1, PrevSites: 3, Sites: 5},
	}
	var buf bytes.Buffer
	if err := ChurnAndEvents(&buf, series, events, 2, 10); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"churn per day",
		"events: 2 total",
		"onset 1",
		"site-churn 1",
		"sites 3 → 5",
		"day    2",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("section missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "day    0") {
		t.Fatalf("maxDays=2 should have dropped day 0:\n%s", out)
	}
}

// TestDashboardGovernanceSection pins the responsible-probing lines: a
// stream with responsibility blocks renders the governance summary, an
// ungoverned stream does not.
func TestDashboardGovernanceSection(t *testing.T) {
	a, b := censusDocs(t)
	var plain bytes.Buffer
	if err := Dashboard(&plain, []*core.Document{a, b}); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(plain.String(), "governance:") {
		t.Fatal("ungoverned dashboard shows a governance section")
	}

	governed := a.DeepCopy()
	governed.Responsibility = &core.Responsibility{
		BudgetDailyProbes: 1000,
		ProbesDemanded:    900,
		ProbesSpent:       700,
		ProbesSkipped:     200,
		OptOutTargets:     3,
		OptOutProbes:      48,
		BudgetTargets:     9,
		BudgetRemaining:   300,
		RateSteps:         3,
		RateEffective:     1250,
	}
	var buf bytes.Buffer
	if err := Dashboard(&buf, []*core.Document{governed, b.DeepCopy()}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"governance: 1 of 2 snapshots governed",
		"opt-out 3 decisions / 48 probes",
		"abuse-complaint rate feedback on 1 snapshots (deepest step 1/8 rate)",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("dashboard missing %q:\n%s", want, out)
		}
	}
	// The latest document (b) is ungoverned, so no latest-day budget line.
	if strings.Contains(out, "latest day budget remaining") {
		t.Fatal("latest-day line shown for ungoverned latest document")
	}
}
