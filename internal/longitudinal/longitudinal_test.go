package longitudinal

import (
	"testing"

	"github.com/laces-project/laces/internal/chaos"
	"github.com/laces-project/laces/internal/netsim"
	"github.com/laces-project/laces/internal/packet"
)

var testWorld = mustWorld()

func mustWorld() *netsim.World {
	w, err := netsim.New(netsim.TestConfig())
	if err != nil {
		panic(err)
	}
	return w
}

// shortHistory runs a compressed census (every 30th day over the full
// timeline) shared by the tests.
var shortHistory = mustHistory()

func mustHistory() *History {
	h, err := Run(testWorld, Config{Days: 534, Stride: 30, Events: DefaultEvents()})
	if err != nil {
		panic(err)
	}
	return h
}

func TestRunProducesBothFamilies(t *testing.T) {
	h := shortHistory
	if len(h.SummariesV4) != len(h.Days) || len(h.SummariesV6) != len(h.Days) {
		t.Fatalf("summaries %d/%d for %d days", len(h.SummariesV4), len(h.SummariesV6), len(h.Days))
	}
	if len(h.Days) != 18 { // ceil(534/30)
		t.Fatalf("ran %d days, want 18", len(h.Days))
	}
	for _, s := range h.SummariesV4 {
		if s.GTotal == 0 {
			t.Fatalf("day %d: no GCD-confirmed prefixes", s.Day)
		}
		if s.AC[packet.ICMP] == 0 {
			t.Fatalf("day %d: no ICMP candidates", s.Day)
		}
	}
}

func TestDNSOutageVisible(t *testing.T) {
	h := shortHistory
	for _, s := range h.SummariesV4 {
		inOutage := DefaultEvents().DNSOutage.Contains(s.Day)
		if inOutage && s.AC[packet.DNS] != 0 {
			t.Fatalf("day %d inside DNS outage has %d DNS ACs", s.Day, s.AC[packet.DNS])
		}
		if !inOutage && s.AC[packet.DNS] == 0 {
			t.Fatalf("day %d outside outage has no DNS ACs", s.Day)
		}
	}
}

func TestWorkerLossOnlyBeforeFix(t *testing.T) {
	ev := DefaultEvents()
	sawLoss := false
	for day := 0; day < 534; day++ {
		missing := missingWorkers(ev, day, 32)
		if len(missing) > 0 {
			sawLoss = true
			if day >= ev.WorkerLossFixDay {
				t.Fatalf("worker loss at day %d after the reconnect fix", day)
			}
		}
	}
	if !sawLoss {
		t.Fatal("no worker-loss events generated")
	}
}

func TestGCDLSRunsRecorded(t *testing.T) {
	h := shortHistory
	if len(h.GCDLS) < 4 { // >= 2 sweeps × 2 families at stride 30
		t.Fatalf("recorded %d GCD_LS runs", len(h.GCDLS))
	}
	for _, run := range h.GCDLS {
		if run.Anycast == 0 {
			t.Fatalf("GCD_LS at day %d found nothing", run.Day)
		}
	}
}

func TestPersistenceShape(t *testing.T) {
	h := shortHistory
	union, everyDay := h.UnionAnycast(false)
	if union == 0 || everyDay == 0 {
		t.Fatalf("degenerate persistence: union=%d everyDay=%d", union, everyDay)
	}
	if everyDay >= union {
		t.Fatal("no transient prefixes at all — temporary anycast missing")
	}
	// §5.1.6: the all-days core is a minority of the union (5% of the
	// anycast-based union at paper scale) but the GCD core is the
	// majority of the GCD union (58%).
	gUnion, gEvery := h.UnionG(false)
	if gUnion == 0 {
		t.Fatal("no GCD union")
	}
	coreShare := float64(everyDay) / float64(union)
	gShare := float64(gEvery) / float64(gUnion)
	if gShare <= coreShare {
		t.Fatalf("GCD set (%0.2f stable) should be more stable than the combined set (%0.2f)", gShare, coreShare)
	}
	cdf := h.PersistenceCDF(false)
	if cdf.Len() != union {
		t.Fatal("CDF size mismatch")
	}
	if cdf.Max() != len(h.SummariesV4) {
		t.Fatalf("max persistence %d, want %d runs", cdf.Max(), len(h.SummariesV4))
	}
}

func TestSeriesAccessors(t *testing.T) {
	h := shortHistory
	for i := 1; i < len(h.SummariesV4); i++ {
		if h.SummariesV4[i].Day <= h.SummariesV4[i-1].Day {
			t.Fatal("series days not increasing")
		}
	}
	for i, s := range h.SummariesV4 {
		if s.GCD[packet.ICMP] == 0 {
			t.Fatalf("no ICMP GCD confirmations on run %d", i)
		}
	}
}

func TestV6EventSpikes(t *testing.T) {
	// The China Unicom instability window (days 10–40) must lift v6
	// ICMP AC counts relative to quiet neighbouring runs.
	h := shortHistory
	var inWindow, after int
	for _, s := range h.SummariesV6 {
		if s.Day == 30 {
			inWindow = s.AC[packet.ICMP]
		}
		if s.Day == 60 {
			after = s.AC[packet.ICMP]
		}
	}
	if inWindow == 0 || after == 0 {
		t.Skip("stride missed the event window")
	}
	if inWindow <= after {
		t.Fatalf("no AC spike during the instability window: in=%d after=%d", inWindow, after)
	}
}

func TestV6GrowthVisible(t *testing.T) {
	h := shortHistory
	first := h.SummariesV6[0]
	last := h.SummariesV6[len(h.SummariesV6)-1]
	if last.Hitlist <= first.Hitlist {
		t.Fatalf("v6 hitlist did not grow: %d → %d", first.Hitlist, last.Hitlist)
	}
	if last.GTotal <= first.GTotal {
		t.Fatalf("v6 GCD-confirmed did not grow: %d → %d", first.GTotal, last.GTotal)
	}
}

func TestAstoundBirthVisible(t *testing.T) {
	// Astound /48s become genuinely anycast at day 470; the GCD-confirmed
	// count at day 510 must include them.
	h := shortHistory
	cnt := 0
	for id, n := range h.DaysDetected(true) {
		if testWorld.TargetAt(true, id).Origin == 46690 && n > 0 {
			cnt++
		}
	}
	if cnt == 0 {
		t.Fatal("no Astound prefixes ever detected")
	}
}

func TestStrideDefaults(t *testing.T) {
	h, err := Run(testWorld, Config{Days: 3, Stride: 1,
		Events: Events{GCDLSDays: []int{0}, WorkerLossFixDay: -1, WorkerLossPeriod: -1}})
	if err != nil {
		t.Fatal(err)
	}
	if len(h.SummariesV4) != 3 || len(h.SummariesV6) != 3 {
		t.Fatalf("stride-1 run of 3 days produced %d/%d summaries", len(h.SummariesV4), len(h.SummariesV6))
	}
}

func TestNoEventsExplicit(t *testing.T) {
	h, err := Run(testWorld, Config{Days: 2, Stride: 1, Events: Events{None: true}})
	if err != nil {
		t.Fatal(err)
	}
	if len(h.SummariesV4) != 2 || len(h.SummariesV6) != 2 {
		t.Fatalf("produced %d/%d summaries, want 2 per family", len(h.SummariesV4), len(h.SummariesV6))
	}
	for _, s := range append(h.SummariesV4, h.SummariesV6...) {
		if s.Workers != 32 {
			t.Fatalf("day %d lost workers without events", s.Day)
		}
		if s.AC[packet.DNS] == 0 {
			t.Fatalf("day %d has no DNS candidates under NoEvents", s.Day)
		}
	}
	if len(h.GCDLS) != 0 {
		t.Fatal("NoEvents ran GCD_LS sweeps")
	}
	// The ambiguous zero value still substitutes the default calendar.
	if !(Events{}).isZero() || (Events{None: true}).isZero() || (DefaultEvents()).isZero() {
		t.Fatal("isZero misclassifies calendars")
	}
}

func TestEventsScenarioBundle(t *testing.T) {
	ev := DefaultEvents()
	sc := ev.Scenario(32)
	if sc.Name != "paper-incidents" || len(sc.Impairments) == 0 {
		t.Fatalf("scenario bundle degenerate: %q with %d impairments", sc.Name, len(sc.Impairments))
	}
	// The DNS outage is a protocol-scoped blackhole over the same window.
	dns := sc.Impairments[0]
	if dns.Kind != chaos.Blackhole || dns.Scope.Days != ev.DNSOutage ||
		len(dns.Scope.Protocols) != 1 || dns.Scope.Protocols[0] != packet.DNS {
		t.Fatalf("DNS outage compiled to %+v", dns)
	}
	// Every worker-loss day appears as a one-day site outage matching the
	// legacy selection, and no outage exists after the reconnect fix.
	outages := make(map[int][]int)
	for _, imp := range sc.Impairments[1:] {
		day := imp.Scope.Days.To
		if imp.Kind != chaos.SiteOutage || !imp.Scope.Days.Contains(day) || imp.Scope.Days.Contains(day+1) {
			t.Fatalf("unexpected impairment %+v", imp)
		}
		if day >= ev.WorkerLossFixDay {
			t.Fatalf("site outage at day %d after the fix", day)
		}
		outages[day] = imp.Scope.Workers
	}
	for day := 0; day < 534; day++ {
		legacy := missingWorkers(ev, day, 32)
		got := outages[day]
		if len(legacy) != len(got) {
			t.Fatalf("day %d: bundle lost %v, legacy lost %v", day, got, legacy)
		}
		for _, wk := range got {
			if !legacy[wk] {
				t.Fatalf("day %d: bundle site %d not in legacy set %v", day, wk, legacy)
			}
		}
	}
	if nothing := (Events{None: true}).Scenario(32); len(nothing.Impairments) != 0 {
		t.Fatal("NoEvents produced impairments")
	}
}

func TestArkParticipationModel(t *testing.T) {
	badDays := 0
	for day := 0; day < 534; day++ {
		r := arkParticipation(day)
		if r2 := arkParticipation(day); r2 != r {
			t.Fatalf("day %d: participation not deterministic (%f vs %f)", day, r, r2)
		}
		switch {
		case day%23 == 17:
			badDays++
			if r < 0.55 || r > 0.80 {
				t.Fatalf("bad day %d: participation %.2f outside [0.55, 0.80]", day, r)
			}
		default:
			if r < 0.92 || r > 0.98 {
				t.Fatalf("day %d: participation %.2f outside [0.92, 0.98]", day, r)
			}
		}
	}
	if badDays == 0 {
		t.Fatal("no platform-wide bad days in 534 days")
	}
}
