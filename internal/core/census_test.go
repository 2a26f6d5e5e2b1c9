package core

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"github.com/laces-project/laces/internal/chaos"
	"github.com/laces-project/laces/internal/netsim"
	"github.com/laces-project/laces/internal/packet"
	"github.com/laces-project/laces/internal/platform"
)

// siteOutage is the day's options for a census run with the given
// deployment sites disconnected.
func siteOutage(workers ...int) DayOptions {
	return DayOptions{Chaos: &chaos.Scenario{Name: "site-outage", Impairments: []chaos.Impairment{
		{Kind: chaos.SiteOutage, Scope: chaos.Scope{Workers: workers}},
	}}}
}

var testWorld = mustWorld()

func mustWorld() *netsim.World {
	w, err := netsim.New(netsim.TestConfig())
	if err != nil {
		panic(err)
	}
	return w
}

func newPipeline(t testing.TB) *Pipeline {
	t.Helper()
	d, err := platform.Tangled(testWorld, netsim.PolicyUnmodified)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPipeline(testWorld, Config{
		Deployment: d,
		GCDVPs: func(day int, v6 bool) ([]netsim.VP, error) {
			return platform.Ark(testWorld, day, v6)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestNewPipelineValidation(t *testing.T) {
	if _, err := NewPipeline(testWorld, Config{}); err == nil {
		t.Fatal("config without deployment should fail")
	}
	d, _ := platform.Tangled(testWorld, netsim.PolicyUnmodified)
	if _, err := NewPipeline(testWorld, Config{Deployment: d}); err == nil {
		t.Fatal("config without GCD VPs should fail")
	}
}

func TestDailyCensusShape(t *testing.T) {
	p := newPipeline(t)
	c, err := p.RunDaily(100, false, DayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	g, m := c.G(), c.M()
	if len(g) == 0 || len(m) == 0 {
		t.Fatalf("census degenerate: |G|=%d |M|=%d", len(g), len(m))
	}
	// The paper's headline split: more than a third of candidates remain
	// unconfirmed (58.5% in Table 1).
	cands := len(c.Candidates())
	if frac := float64(len(m)) / float64(cands); frac < 0.25 || frac > 0.85 {
		t.Fatalf("M share of candidates = %.2f, want ~0.5", frac)
	}
	// G and M are disjoint.
	gs := map[int]bool{}
	for _, id := range g {
		gs[id] = true
	}
	for _, id := range m {
		if gs[id] {
			t.Fatal("G and M overlap")
		}
	}
	// Probing cost: GCD stage probes only candidates — two orders of
	// magnitude cheaper than the anycast stage per target universe (§4.3).
	if c.ProbesGCDStage >= c.ProbesAnycastStage {
		t.Fatalf("GCD stage cost %d should be far below anycast stage %d",
			c.ProbesGCDStage, c.ProbesAnycastStage)
	}
}

func TestCensusAccuracyAgainstGroundTruth(t *testing.T) {
	p := newPipeline(t)
	day := 100
	c, err := p.RunDaily(day, false, DayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	truth := testWorld.GroundTruthAnycast(false, day)

	// R1: 𝒢 must be precise — GCD cannot confirm a unicast target in this
	// simulator (stretch ≥ 1), so every 𝒢 member is true anycast.
	for _, id := range c.G() {
		if !truth[id] {
			t.Fatalf("GCD-confirmed target %d is not anycast in ground truth", id)
		}
	}
	// Recall of 𝒢 over ICMP/TCP-responsive anycast should be high.
	missed := 0
	total := 0
	gs := map[int]bool{}
	for _, id := range c.G() {
		gs[id] = true
	}
	for id := range truth {
		tg := testWorld.TargetAt(false, id)
		if !tg.Responsive[packet.ICMP] && !tg.Responsive[packet.TCP] {
			continue // GCD cannot measure DNS-only targets (§5.3.1)
		}
		total++
		if !gs[id] {
			missed++
		}
	}
	if frac := float64(missed) / float64(total); frac > 0.2 {
		t.Fatalf("G misses %.0f%% of measurable anycast", frac*100)
	}
}

func TestMDominatedByGlobalUnicast(t *testing.T) {
	// §5.1.3: >70% of ℳ on any given day originates from the
	// Microsoft-style global-BGP AS.
	p := newPipeline(t)
	c, err := p.RunDaily(50, false, DayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ms := 0
	m := c.M()
	for _, id := range m {
		if testWorld.TargetAt(false, id).Kind == netsim.GlobalUnicast {
			ms++
		}
	}
	if frac := float64(ms) / float64(len(m)); frac < 0.4 {
		t.Fatalf("global-unicast share of M = %.2f, want dominant", frac)
	}
}

func TestFeedbackLoopCoversFNs(t *testing.T) {
	p := newPipeline(t)
	day := 120

	// Find the anycast-based FNs of a plain daily run.
	c1, err := p.RunDaily(day, false, DayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	truth := testWorld.GroundTruthAnycast(false, day)
	inG1 := map[int]bool{}
	for _, id := range c1.G() {
		inG1[id] = true
	}
	var fns []int
	for id := range truth {
		tg := testWorld.TargetAt(false, id)
		if tg.Responsive[packet.ICMP] && !inG1[id] {
			fns = append(fns, id)
		}
	}
	if len(fns) == 0 {
		t.Skip("no FNs to cover on this day")
	}
	// Seed them (as a GCD_LS sweep would) and re-run the next day.
	p.SeedFeedback(false, fns)
	c2, err := p.RunDaily(day+1, false, DayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	inG2 := map[int]bool{}
	for _, id := range c2.G() {
		inG2[id] = true
	}
	covered := 0
	for _, id := range fns {
		e, ok := c2.Entries[id]
		if !ok {
			t.Fatalf("fed-back target %d absent from census", id)
		}
		if !e.FromFeedback && !e.IsCandidate() {
			t.Fatalf("target %d neither candidate nor feedback-marked", id)
		}
		if inG2[id] {
			covered++
		}
	}
	if covered == 0 {
		t.Fatal("feedback loop confirmed none of the seeded FNs")
	}
}

func TestDailyGAccumulatesIntoFeedback(t *testing.T) {
	p := newPipeline(t)
	if len(p.feedback[famIdx(false)]) != 0 {
		t.Fatal("fresh pipeline has feedback")
	}
	c, err := p.RunDaily(10, false, DayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.feedback[famIdx(false)]) != len(c.G()) {
		t.Fatalf("feedback %d != |G| %d after first day", len(p.feedback[famIdx(false)]), len(c.G()))
	}
}

func TestGCDLSAndTable1Comparison(t *testing.T) {
	vps, err := platform.Ark(testWorld, 250, false)
	if err != nil {
		t.Fatal(err)
	}
	ls := RunGCDLS(testWorld, vps, false, 250)
	if len(ls.Anycast) == 0 {
		t.Fatal("GCD_LS found nothing")
	}
	truth := testWorld.GroundTruthAnycast(false, 250)
	for id := range ls.Anycast {
		if !truth[id] {
			t.Fatalf("GCD_LS confirmed non-anycast target %d", id)
		}
	}
	// Table 1: compare an anycast-based run against GCD_LS.
	p := newPipeline(t)
	c, err := p.RunDaily(250, false, DayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	acSet := map[int]bool{}
	for _, id := range c.Candidates() {
		acSet[id] = true
	}
	cmp := CompareACsToGCDLS(acSet, ls)
	if cmp.Intersection == 0 {
		t.Fatal("no agreement between ACs and GCD_LS")
	}
	// Paper: FNR ~6%; tolerate up to 20% at test scale.
	if cmp.FNRate > 0.2 {
		t.Fatalf("FNR = %.1f%%, too high (Table 1 expects single digits)", cmp.FNRate*100)
	}
	// Paper: 58.5% of ACs unconfirmed by GCD_LS.
	if frac := float64(cmp.NotGCDLS) / float64(cmp.ACs); frac < 0.2 || frac > 0.85 {
		t.Fatalf("¬GCDLS share = %.2f, want ~0.5-0.6", frac)
	}
	if s := cmp.String(); !strings.Contains(s, "FNs=") {
		t.Fatalf("comparison string malformed: %s", s)
	}
	// GCD_LS probes nearly the whole hitlist from every VP — the cost
	// that forbids running it daily (at paper scale: 1.3 B probes, days
	// at a responsible rate).
	if ls.ProbesSent < int64(ls.Hitlist)*int64(ls.VPs)*9/10 {
		t.Fatalf("GCD_LS sent %d probes for %d targets × %d VPs", ls.ProbesSent, ls.Hitlist, ls.VPs)
	}
}

func TestDNSOutageAlert(t *testing.T) {
	p := newPipeline(t)
	c, err := p.RunDaily(200, false, DayOptions{Chaos: &chaos.Scenario{Name: "dns-outage", Impairments: []chaos.Impairment{
		{Kind: chaos.Blackhole, Scope: chaos.Scope{Protocols: []packet.Protocol{packet.DNS}}},
	}}})
	if err != nil {
		t.Fatal(err)
	}
	if !hasAlert(c, AlertNoResults) {
		t.Fatal("DNS outage did not trigger the canary alert")
	}
	if got := c.filter(func(e *Entry) bool { return e.ACProtocols[packet.DNS] }); len(got) != 0 {
		t.Fatalf("DNS results leaked through the outage: %d", len(got))
	}
}

func TestWorkerLossAlertAndRecovery(t *testing.T) {
	p := newPipeline(t)
	c, err := p.RunDaily(201, false, siteOutage(1, 7, 13, 19, 25, 31))
	if err != nil {
		t.Fatal(err)
	}
	if !hasAlert(c, AlertFewWorkers) {
		t.Fatal("missing workers did not trigger alert")
	}
	if c.Workers != 26 {
		t.Fatalf("workers = %d, want 26", c.Workers)
	}
}

func TestBaselineDeviationAlert(t *testing.T) {
	p := newPipeline(t)
	for day := 30; day < 35; day++ {
		if _, err := p.RunDaily(day, false, DayOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	// A day with most workers missing collapses candidate counts — and
	// with them the 𝒢 count (the feedback loop still measures fed-back
	// prefixes, so the drop is softened but visible).
	var missing []int
	for i := 0; i < 28; i++ {
		missing = append(missing, i)
	}
	c, err := p.RunDaily(35, false, siteOutage(missing...))
	if err != nil {
		t.Fatal(err)
	}
	if !hasAlert(c, AlertFewWorkers) {
		t.Fatal("expected worker alert")
	}
	_ = c
}

func TestCensusJSONRoundTrip(t *testing.T) {
	p := newPipeline(t)
	c, err := p.RunDaily(60, false, DayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := c.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	doc, err := ParseDocument(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Date != "2024-05-20" {
		t.Fatalf("census date = %s", doc.Date)
	}
	if doc.GCount != len(c.G()) || doc.MCount != len(c.M()) {
		t.Fatalf("counts drifted through JSON: %d/%d vs %d/%d", doc.GCount, doc.MCount, len(c.G()), len(c.M()))
	}
	if len(doc.Entries) < doc.GCount {
		t.Fatal("fewer prefixes than confirmed entries")
	}
}

func TestCensusCSV(t *testing.T) {
	p := newPipeline(t)
	c, err := p.RunDaily(61, false, DayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := c.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) < 2 {
		t.Fatal("CSV has no data rows")
	}
	if !strings.HasPrefix(lines[0], "prefix,origin_asn") {
		t.Fatalf("CSV header: %s", lines[0])
	}
}

func TestIPv6Census(t *testing.T) {
	p := newPipeline(t)
	c, err := p.RunDaily(100, true, DayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.G()) == 0 {
		t.Fatal("no IPv6 anycast confirmed")
	}
	for _, id := range c.G() {
		if !testWorld.TargetAt(true, id).IsAnycastAt(100) {
			// Backing anycast can false-positive through filtering VPs
			// (§6) — that is the expected exception.
			if testWorld.TargetAt(true, id).Kind != netsim.BackingAnycast {
				t.Fatalf("v6 G member %d not anycast (kind %v)", id, testWorld.TargetAt(true, id).Kind)
			}
		}
	}
}

func TestScreenGlobalBGPFlags(t *testing.T) {
	d, err := platform.Tangled(testWorld, netsim.PolicyUnmodified)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPipeline(testWorld, Config{
		Deployment: d,
		GCDVPs: func(day int, v6 bool) ([]netsim.VP, error) {
			return platform.Ark(testWorld, day, v6)
		},
		ConfirmGlobalBGP: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	c, err := p.RunDaily(40, false, DayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if c.ProbesTracerouteStage == 0 {
		t.Fatal("screening stage sent no probes")
	}
	flagged := 0
	for id, e := range c.Entries {
		if !e.GlobalBGP {
			continue
		}
		flagged++
		if !e.InM() {
			t.Fatalf("GlobalBGP flag on a non-M entry %d", id)
		}
		if kind := testWorld.TargetAt(false, id).Kind; kind != netsim.GlobalUnicast {
			t.Fatalf("GlobalBGP flag on a %v target %d — screening is misfiring", kind, id)
		}
	}
	if flagged == 0 {
		t.Fatal("no global-BGP prefixes flagged — the §5.1.3 stage is inert")
	}
	// The flag must survive publication.
	var buf bytes.Buffer
	if err := c.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	doc, err := ParseDocument(&buf)
	if err != nil {
		t.Fatal(err)
	}
	pubFlagged := 0
	for _, e := range doc.Entries {
		if e.GlobalBGP {
			pubFlagged++
		}
	}
	if pubFlagged != flagged {
		t.Fatalf("published %d global-BGP flags, census has %d", pubFlagged, flagged)
	}
}

func TestDocumentRoundTrip(t *testing.T) {
	p := newPipeline(t)
	c, err := p.RunDaily(73, false, DayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	doc := c.Document()
	var buf bytes.Buffer
	if err := c.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseDocument(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if parsed.Date != doc.Date || parsed.Family != doc.Family ||
		parsed.GCount != doc.GCount || parsed.MCount != doc.MCount ||
		len(parsed.Entries) != len(doc.Entries) {
		t.Fatalf("round trip mismatch: %+v vs %+v", parsed, doc)
	}
	for i := range doc.Entries {
		if !reflect.DeepEqual(doc.Entries[i], parsed.Entries[i]) {
			t.Fatalf("entry %d mismatch:\n%+v\n%+v", i, doc.Entries[i], parsed.Entries[i])
		}
	}
	// G/M classification helpers on published entries agree with counts.
	g, m := 0, 0
	for i := range parsed.Entries {
		if parsed.Entries[i].InG() {
			g++
		}
		if parsed.Entries[i].InM() {
			m++
		}
	}
	if g != parsed.GCount {
		t.Fatalf("document InG count %d != header %d", g, parsed.GCount)
	}
	if m > parsed.MCount {
		// Feedback-only unconfirmed entries are published without AC
		// protocols and are in neither set; InM can only undercount.
		t.Fatalf("document InM count %d exceeds header %d", m, parsed.MCount)
	}
}

func TestSpreadVPs(t *testing.T) {
	mk := func(n int) []netsim.VP {
		out := make([]netsim.VP, n)
		for i := range out {
			out[i].Name = string(rune('a' + i))
		}
		return out
	}
	if got := spreadVPs(mk(5), 12); len(got) != 5 {
		t.Fatalf("small pool should pass through, got %d", len(got))
	}
	got := spreadVPs(mk(26), 4)
	if len(got) != 4 {
		t.Fatalf("want 4 VPs, got %d", len(got))
	}
	seen := map[string]bool{}
	for _, vp := range got {
		if seen[vp.Name] {
			t.Fatalf("duplicate VP %q in spread", vp.Name)
		}
		seen[vp.Name] = true
	}
	if got[0].Name != "a" {
		t.Fatalf("spread should start at the pool head, got %q", got[0].Name)
	}
	if spreadVPs(nil, 4) != nil {
		t.Fatal("nil pool should stay nil")
	}
}
