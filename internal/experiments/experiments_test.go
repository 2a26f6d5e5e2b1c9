package experiments

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"github.com/laces-project/laces/internal/netsim"
)

// The shape tests run on a test-scale environment; each asserts the
// paper's qualitative result for its table or figure.
var (
	envOnce sync.Once
	testEnv *Env
)

func env(t testing.TB) *Env {
	t.Helper()
	envOnce.Do(func() {
		e, err := NewEnv(netsim.TestConfig())
		if err != nil {
			t.Fatal(err)
		}
		testEnv = e
	})
	return testEnv
}

func TestTable1Shape(t *testing.T) {
	rows, err := env(t).Table1()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("want 2 rows, got %d", len(rows))
	}
	for _, r := range rows {
		if r.Intersection == 0 {
			t.Fatalf("%s: no AC∩GCDLS agreement", r.Protocol)
		}
		// Paper: FNR 5.9-6.0%; accept generous test-scale noise but the
		// anycast-based stage must catch the vast majority.
		if r.FNRate > 0.2 {
			t.Errorf("%s: FNR %.1f%% too high", r.Protocol, 100*r.FNRate)
		}
	}
	// IPv4: a large unconfirmed share (Table 1: 58.5%), driven by the
	// global-unicast ℳ population.
	if share := float64(rows[0].NotGCDLS) / float64(rows[0].ACs); share < 0.3 {
		t.Errorf("v4 ¬GCDLS share = %.2f, want the paper's large-ℳ shape", share)
	}
	var buf bytes.Buffer
	if err := RenderTable1(&buf, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "ICMPv6") {
		t.Fatal("render missing rows")
	}
}

func TestTable2Shape(t *testing.T) {
	rows, err := env(t).Table2()
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].Bucket != "2" || rows[len(rows)-1].Bucket != "26-32" {
		t.Fatal("bucket layout wrong")
	}
	// Paper: the 2-receiver bucket is the largest and overwhelmingly ℳ
	// (4% confirmed); high buckets are overwhelmingly 𝒢 (≥99%).
	two := rows[0]
	if two.Candidates == 0 || two.OverlapPct > 40 {
		t.Fatalf("2-receiver bucket: %+v — should be mostly unconfirmed", two)
	}
	top := rows[len(rows)-1]
	if top.Candidates == 0 || top.OverlapPct < 90 {
		t.Fatalf("26-32 bucket: %+v — should be almost fully confirmed", top)
	}
	var buf bytes.Buffer
	if err := RenderTable2(&buf, rows); err != nil {
		t.Fatal(err)
	}
}

func TestTable3Shape(t *testing.T) {
	rows, err := env(t).Table3()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		// §5.4: our 32-site deployment finds more candidates than the
		// 12-site ccTLD platform, with substantial intersection.
		if r.Ours <= r.CcTLD {
			t.Errorf("%s: ours=%d should exceed ccTLD=%d", r.Protocol, r.Ours, r.CcTLD)
		}
		if r.Intersection == 0 || r.Intersection > r.CcTLD {
			t.Errorf("%s: intersection %d out of range", r.Protocol, r.Intersection)
		}
		if float64(r.Intersection) < 0.5*float64(r.CcTLD) {
			t.Errorf("%s: intersection %d too small vs ccTLD %d", r.Protocol, r.Intersection, r.CcTLD)
		}
	}
	var buf bytes.Buffer
	if err := RenderTable3(&buf, rows); err != nil {
		t.Fatal(err)
	}
}

func TestTable4Shape(t *testing.T) {
	rows, err := env(t).Table4()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("want 7 deployments + GCD_LS, got %d", len(rows))
	}
	byName := map[string]Table4Row{}
	for _, r := range rows {
		byName[r.Deployment] = r
	}
	// Cost grows with VP count; GCD_LS costs the most by far.
	if !(byName["EU-NA"].Cost < byName["TANGLED (Vultr)"].Cost &&
		byName["TANGLED (Vultr)"].Cost < byName["Vultr+Melbicom"].Cost &&
		byName["Vultr+Melbicom"].Cost < byName["GCD_LS (full)"].Cost) {
		t.Fatalf("cost ordering broken: %+v", rows)
	}
	// Fewer VPs → more missed GCD_LS prefixes (EU-NA misses the most).
	if byName["EU-NA"].MissedLS <= byName["TANGLED (Vultr)"].MissedLS {
		t.Errorf("EU-NA should miss more than TANGLED: %d vs %d",
			byName["EU-NA"].MissedLS, byName["TANGLED (Vultr)"].MissedLS)
	}
	// Even two VPs catch the vast majority (paper: 84%).
	euna := byName["EU-NA"]
	if euna.MissedPct > 35 {
		t.Errorf("EU-NA missed %.0f%% — paper expects most anycast visible from 2 VPs", euna.MissedPct)
	}
	var buf bytes.Buffer
	if err := RenderTable4(&buf, rows); err != nil {
		t.Fatal(err)
	}
}

func TestTable5Shape(t *testing.T) {
	rows, err := env(t).Table5()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 5 {
		t.Fatalf("only %d operator rows", len(rows))
	}
	names := map[string]Table5Row{}
	for _, r := range rows {
		names[r.Name] = r
	}
	// Google leads IPv4; Cloudflare Spectrum leads IPv6 (Table 5).
	g, okG := names["Google Cloud"]
	cs, okS := names["Cloudflare Spectrum"]
	if !okG || !okS {
		t.Fatalf("hypergiants missing from top ASes: %+v", rows)
	}
	if g.V4 == 0 || cs.V6 == 0 {
		t.Fatalf("hypergiant counts empty: google=%+v spectrum=%+v", g, cs)
	}
	for _, r := range rows {
		if r.V4 > g.V4 {
			t.Errorf("%s has more v4 anycast than Google-like: %d > %d", r.Name, r.V4, g.V4)
		}
		if r.V6 > cs.V6 {
			t.Errorf("%s has more v6 anycast than Spectrum-like: %d > %d", r.Name, r.V6, cs.V6)
		}
	}
	var buf bytes.Buffer
	if err := RenderTable5(&buf, rows); err != nil {
		t.Fatal(err)
	}
}

func TestTable6Shape(t *testing.T) {
	rows, err := env(t).Table6()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 2 {
		t.Fatalf("size table rows: %d", len(rows))
	}
	tot := rows[0]
	tot.Occurrence = 0
	for _, r := range rows {
		tot.Occurrence += r.Occurrence
		tot.Anycast += r.Anycast
		tot.Unicast += r.Unicast
	}
	// The BGPTools whole-prefix assumption drags in unicast /24s.
	if tot.Unicast == 0 {
		t.Fatal("no unicast slots inside BGPTools prefixes — Table 6's point lost")
	}
	var buf bytes.Buffer
	if err := RenderTable6(&buf, rows); err != nil {
		t.Fatal(err)
	}
}

func TestFig5Shape(t *testing.T) {
	series, err := env(t).Fig5()
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 4 {
		t.Fatalf("want 4 series, got %d", len(series))
	}
	// FP ordering: 13m > 1m >= 1s >= 0s (Fig 5).
	if !(series[0].TotalFPs > series[1].TotalFPs &&
		series[1].TotalFPs >= series[2].TotalFPs &&
		series[2].TotalFPs >= series[3].TotalFPs) {
		t.Fatalf("FP ordering broken: %d %d %d %d",
			series[0].TotalFPs, series[1].TotalFPs, series[2].TotalFPs, series[3].TotalFPs)
	}
	// FPs concentrate at 2 receiving VPs in every series.
	for _, s := range series {
		max := 0
		for n, c := range s.FPsByReceivers {
			if c > s.FPsByReceivers[max] {
				max = n
			}
			_ = c
		}
		if max != 2 {
			t.Errorf("%s: FP mode at %d receivers, want 2", s.Label, max)
		}
	}
	var buf bytes.Buffer
	if err := RenderFig5(&buf, series); err != nil {
		t.Fatal(err)
	}
}

func TestFig6Shape(t *testing.T) {
	r, err := env(t).Fig6()
	if err != nil {
		t.Fatal(err)
	}
	if r.Ark.Len() == 0 || r.Atlas.Len() == 0 {
		t.Fatal("empty CDFs")
	}
	// App B: Atlas (more VPs) achieves higher maximum enumeration.
	if r.AtlasVPs <= r.ArkVPs {
		t.Fatalf("Atlas pool (%d) should exceed Ark (%d)", r.AtlasVPs, r.ArkVPs)
	}
	if r.Atlas.Max() < r.Ark.Max() {
		t.Errorf("Atlas max enumeration %d below Ark %d", r.Atlas.Max(), r.Ark.Max())
	}
	// Hypergiant markers exist and dominate the tail.
	if len(r.Hypergiant) == 0 {
		t.Fatal("no hypergiant markers")
	}
	if r.Hypergiant["Cloudflare"] < r.Hypergiant["Google Cloud"] {
		t.Errorf("Cloudflare-like (%d) should out-enumerate Google-like (%d)",
			r.Hypergiant["Cloudflare"], r.Hypergiant["Google Cloud"])
	}
	var buf bytes.Buffer
	if err := RenderFig6(&buf, r); err != nil {
		t.Fatal(err)
	}
}

func TestProtocolVennShape(t *testing.T) {
	for _, v6 := range []bool{false, true} {
		r, err := env(t).ProtocolVenn(v6)
		if err != nil {
			t.Fatal(err)
		}
		fam := "v4"
		if v6 {
			fam = "v6"
		}
		icmp, tcp, dns := r.Totals["ICMP"+fam], r.Totals["TCP"+fam], r.Totals["DNS"+fam]
		if !(icmp > tcp && tcp > dns && dns > 0) {
			t.Fatalf("%s protocol totals out of order: %d/%d/%d", fam, icmp, tcp, dns)
		}
		// Largest exclusive bucket: ICMP-only for IPv4 (Fig 13: 19,095 =
		// 57.7%); ICMP∩TCP for IPv6 (Fig 14's 7,643 bucket — the v6
		// hitlists derive from TCP services, §5.3.2).
		wantTop := "ICMP" + fam
		if v6 {
			wantTop = "ICMP" + fam + "∩TCP" + fam
		}
		if r.Rows[0].Label() != wantTop {
			t.Errorf("%s: largest bucket is %s, want %s", fam, r.Rows[0].Label(), wantTop)
		}
		var buf bytes.Buffer
		if err := RenderProtocolVenn(&buf, r); err != nil {
			t.Fatal(err)
		}
	}
}

func TestFig8Shape(t *testing.T) {
	r, err := env(t).Fig8()
	if err != nil {
		t.Fatal(err)
	}
	// §5.6: Transits-only finds the most ACs but the fewest GCD-confirmed.
	if r.Totals["Transits-only"] <= r.Totals["Unmodified"] {
		t.Errorf("Transits-only ACs %d should exceed Unmodified %d",
			r.Totals["Transits-only"], r.Totals["Unmodified"])
	}
	if r.GCDConfirmed["Transits-only"] > r.GCDConfirmed["IXPs-only"] {
		t.Errorf("Transits-only confirmed %d should not exceed IXPs-only %d",
			r.GCDConfirmed["Transits-only"], r.GCDConfirmed["IXPs-only"])
	}
	// The three-way intersection is the largest bucket (Fig 8: 17,813).
	if len(r.Rows) == 0 || len(r.Rows[0].Members) != 3 {
		t.Fatalf("largest bucket should be the triple intersection: %+v", r.Rows[0])
	}
	var buf bytes.Buffer
	if err := RenderFig8(&buf, r); err != nil {
		t.Fatal(err)
	}
}

func TestFig11Shape(t *testing.T) {
	rows, err := env(t).Fig11()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 4 {
		t.Fatal("too few thinning steps")
	}
	first, last := rows[0], rows[len(rows)-1]
	if first.SpacingKm != 1000 || last.SpacingKm != 100 {
		t.Fatal("spacing sweep endpoints wrong")
	}
	// App B: cost rises much faster than enumeration as spacing shrinks.
	if last.VPs <= first.VPs {
		t.Fatal("denser spacing should add VPs")
	}
	if last.Enumeration < first.Enumeration {
		t.Fatal("denser spacing should not lose sites")
	}
	if last.CostPct <= last.EnumPct {
		t.Errorf("cost increase (%.0f%%) should exceed enumeration increase (%.0f%%)",
			last.CostPct, last.EnumPct)
	}
	var buf bytes.Buffer
	if err := RenderFig11(&buf, rows); err != nil {
		t.Fatal(err)
	}
}

func TestFig12Shape(t *testing.T) {
	r, err := env(t).Fig12()
	if err != nil {
		t.Fatal(err)
	}
	if r.Stats.Probed == 0 || r.Stats.Unsupported == 0 {
		t.Fatalf("census stats degenerate: %+v", r.Stats)
	}
	if len(r.Rows) < 2 {
		t.Fatalf("too few record buckets: %d", len(r.Rows))
	}
	// Enumeration correlates: buckets with more CHAOS records have higher
	// anycast-based enumeration on average (compare first vs last).
	first, last := r.Rows[0], r.Rows[len(r.Rows)-1]
	if last.ChaosRecords <= first.ChaosRecords {
		t.Fatal("rows not ordered by record count")
	}
	if last.AvgAnycast <= first.AvgAnycast {
		t.Errorf("enumeration does not grow with CHAOS records: %.1f vs %.1f",
			first.AvgAnycast, last.AvgAnycast)
	}
	var buf bytes.Buffer
	if err := RenderFig12(&buf, r); err != nil {
		t.Fatal(err)
	}
}

func TestPartialAnycastSweepShape(t *testing.T) {
	r, err := env(t).PartialAnycastSweep()
	if err != nil {
		t.Fatal(err)
	}
	if r.AnycastPrefixes == 0 || r.Partial == 0 {
		t.Fatalf("sweep degenerate: %+v", r)
	}
	// §5.7: partial anycast is a small share (8%) of anycast prefixes.
	if r.PartialPct > 30 {
		t.Errorf("partial share %.0f%% too high", r.PartialPct)
	}
	var buf bytes.Buffer
	if err := RenderSweep(&buf, r); err != nil {
		t.Fatal(err)
	}
}

func TestGroundTruthShape(t *testing.T) {
	rows, err := env(t).GroundTruth(false)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]ValidationRow{}
	for i, r := range rows {
		byName[r.Operator] = r
		// Largest first, ties by name: the order must not depend on map
		// iteration, or the same seed prints a different table each run.
		if i > 0 {
			p := rows[i-1]
			if p.Prefixes < r.Prefixes || (p.Prefixes == r.Prefixes && p.Operator >= r.Operator) {
				t.Errorf("rows out of order: %s (%d) before %s (%d)", p.Operator, p.Prefixes, r.Operator, r.Prefixes)
			}
		}
	}
	// §6: Cloudflare fully accurate for IPv4 (no FPs, no FNs).
	cf := byName["Cloudflare"]
	if cf.Prefixes == 0 || cf.Missed > 0 || cf.FPs > 0 {
		t.Errorf("Cloudflare-like validation not clean: %+v", cf)
	}
	// Quad9 and root-like DNS operators detected.
	if byName["Quad9"].InG == 0 {
		t.Errorf("Quad9-like not GCD-confirmed: %+v", byName["Quad9"])
	}
	// G-Root is DNS-only: never GCD-measurable, detectable via ℳ at best.
	groot := byName["G-Root"]
	if groot.InG > 0 {
		t.Errorf("G-Root cannot be GCD-confirmed (ICMP/TCP-unresponsive): %+v", groot)
	}
	var buf bytes.Buffer
	if err := RenderValidation(&buf, rows, false); err != nil {
		t.Fatal(err)
	}
}

func TestHistoryFiguresShape(t *testing.T) {
	if testing.Short() {
		t.Skip("longitudinal history in -short mode")
	}
	e := env(t)
	h, err := e.Fig9()
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Summaries(false)) == 0 {
		t.Fatal("no longitudinal summaries")
	}
	r, err := e.Fig10()
	if err != nil {
		t.Fatal(err)
	}
	if r.Union == 0 || r.AllDays == 0 {
		t.Fatalf("persistence degenerate: %+v", r)
	}
	var buf bytes.Buffer
	if err := RenderFig9(&buf, h); err != nil {
		t.Fatal(err)
	}
	if err := RenderFig10(&buf, r); err != nil {
		t.Fatal(err)
	}
}

// TestCatalog pins the experiment index: names and aliases are unique
// (they share the -only namespace), every row can run, and RunAll renders
// exactly the non-longitudinal rows, each once, in catalog order.
func TestCatalog(t *testing.T) {
	seen := map[string]bool{}
	for _, x := range Catalog {
		if x.Title == "" || x.Run == nil {
			t.Errorf("catalog row %q lacks a title or a Run", x.Name)
		}
		for _, name := range append([]string{x.Name}, x.Aliases...) {
			if name == "" || name != strings.ToLower(name) || seen[name] {
				t.Errorf("catalog name %q is empty, not lower-case or taken", name)
			}
			seen[name] = true
		}
	}
	if testing.Short() {
		t.Skip("full driver sweep in -short mode")
	}
	var want bytes.Buffer
	for _, x := range Catalog {
		if x.Longitudinal {
			continue
		}
		before := want.Len()
		if err := x.Run(env(t), &want); err != nil {
			t.Fatalf("%s: %v", x.Name, err)
		}
		if want.Len() == before {
			t.Errorf("%s rendered nothing", x.Name)
		}
		want.WriteString("\n")
	}
	var got bytes.Buffer
	if err := env(t).RunAll(&got, true); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Errorf("RunAll(w, true) is not the non-longitudinal catalog rows in order:\n%s", got.String())
	}
	for _, title := range []string{
		"Table 1", "Table 2", "Table 3", "Table 4", "Table 5", "Table 6",
		"Fig 5", "Fig 6", "Fig 7/13", "Fig 14", "Fig 8", "Fig 11", "Fig 12",
		"GCD_IPv4 sweep", "ground-truth validation",
		"traceroute decomposition of M", "site enumeration",
	} {
		if !strings.Contains(got.String(), title) {
			t.Errorf("RunAll output missing %q", title)
		}
	}
}

// TestCatalogLazyWorld pins that the catalog rows which sweep or index
// the target universe render byte-identically on a lazy world: they
// reach targets only through the streaming accessors, which work in both
// modes.
func TestCatalogLazyWorld(t *testing.T) {
	cfg := netsim.TestConfig()
	cfg.LazyTargets = true
	lazy, err := NewEnv(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]bool{"fig6": true, "fig11": true, "fig12": true, "sweep": true, "enum": true}
	for _, x := range Catalog {
		if !rows[x.Name] {
			continue
		}
		delete(rows, x.Name)
		var want, got bytes.Buffer
		if err := x.Run(env(t), &want); err != nil {
			t.Fatalf("%s on the eager world: %v", x.Name, err)
		}
		if err := x.Run(lazy, &got); err != nil {
			t.Fatalf("%s on the lazy world: %v", x.Name, err)
		}
		if got.String() != want.String() {
			t.Errorf("%s differs on the lazy world:\n%s\nwant:\n%s", x.Name, got.String(), want.String())
		}
	}
	if len(rows) != 0 {
		t.Fatalf("catalog rows %v not found", rows)
	}
}

func TestMDecompositionShape(t *testing.T) {
	r, err := env(t).MDecomposition()
	if err != nil {
		t.Fatal(err)
	}
	if r.MTotal == 0 {
		t.Fatal("empty M set")
	}
	if len(r.TopOrigins) == 0 {
		t.Fatal("no origin decomposition")
	}
	// §5.1.3: the Microsoft-style global-BGP AS dominates ℳ...
	top := r.TopOrigins[0]
	if top.Origin != 8075 {
		t.Errorf("top M origin = AS%d (%s), want the global-BGP AS 8075", top.Origin, top.Name)
	}
	// ...and traceroute confirms the bulk of its prefixes as globally
	// announced unicast (multi-PoP ingress, single server).
	if top.GlobalBGP < top.M/2 {
		t.Errorf("only %d/%d of the top origin's M prefixes confirmed global-BGP", top.GlobalBGP, top.M)
	}
	if r.GlobalBGP == 0 || r.GlobalBGP > r.MTotal {
		t.Errorf("global-BGP total %d out of range (M=%d)", r.GlobalBGP, r.MTotal)
	}
	if r.TracerouteProbes == 0 {
		t.Error("traceroute stage reported no probing cost")
	}
	var buf bytes.Buffer
	if err := RenderMDecomposition(&buf, r); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "8075") {
		t.Fatal("render missing the global-BGP AS")
	}
}

func TestEnumComparisonShape(t *testing.T) {
	rows, err := env(t).EnumComparison()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 8 {
		t.Fatalf("only %d operators compared", len(rows))
	}
	var tracerouteWins, gcdZeroTracerouteFinds bool
	for _, r := range rows {
		// Both methods are lower bounds on the truth.
		if r.GCDSites > r.TrueSites {
			t.Errorf("%s: GCD %d exceeds truth %d", r.Operator, r.GCDSites, r.TrueSites)
		}
		if r.TracerouteSites > r.TrueSites {
			t.Errorf("%s: traceroute %d exceeds truth %d", r.Operator, r.TracerouteSites, r.TrueSites)
		}
		if r.TracerouteSites > r.GCDSites {
			tracerouteWins = true
		}
		if r.GCDSites == 0 && r.TracerouteSites >= 2 {
			gcdZeroTracerouteFinds = true
		}
	}
	// §5.2/§6: router fingerprints separate sites GCD merges — at least
	// one regional deployment must be invisible to GCD yet enumerated by
	// traceroute, and traceroute must win somewhere.
	if !tracerouteWins {
		t.Error("traceroute never beat GCD enumeration")
	}
	if !gcdZeroTracerouteFinds {
		t.Error("no GCD-invisible deployment enumerated by traceroute (the ccTLD case)")
	}
	var buf bytes.Buffer
	if err := RenderEnumComparison(&buf, rows); err != nil {
		t.Fatal(err)
	}
}
