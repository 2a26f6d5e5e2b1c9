package gcdmeas

import (
	"testing"

	"github.com/laces-project/laces/internal/budget"
	"github.com/laces-project/laces/internal/netsim"
	"github.com/laces-project/laces/internal/obs"
	"github.com/laces-project/laces/internal/packet"
	"github.com/laces-project/laces/internal/platform"
)

var testWorld = mustWorld()

func mustWorld() *netsim.World {
	w, err := netsim.New(netsim.TestConfig())
	if err != nil {
		panic(err)
	}
	return w
}

func arkCampaign(t testing.TB, day int, v6 bool) Campaign {
	t.Helper()
	vps, err := platform.Ark(testWorld, day, v6)
	if err != nil {
		t.Fatal(err)
	}
	return Campaign{VPs: vps, Proto: packet.ICMP, At: netsim.DayTime(day), Attempts: 1}
}

// sampleIDs returns n target IDs of each anycast/unicast class responsive
// to ICMP.
func sampleIDs(n int) (anycast, unicast []int) {
	for i := range testWorld.NumTargets(false) {
		tg := testWorld.TargetAt(false, i)
		if !tg.Responsive[packet.ICMP] {
			continue
		}
		switch {
		case tg.IsAnycastAt(10) && len(tg.Sites) >= 5 && len(anycast) < n:
			anycast = append(anycast, tg.ID)
		case tg.Kind == netsim.Unicast && len(tg.TempWindows) == 0 && len(unicast) < n:
			unicast = append(unicast, tg.ID)
		}
		if len(anycast) >= n && len(unicast) >= n {
			break
		}
	}
	return
}

func TestRunSeparatesAnycastFromUnicast(t *testing.T) {
	anycast, unicast := sampleIDs(60)
	camp := arkCampaign(t, 10, false)
	rep := Run(testWorld, append(append([]int{}, anycast...), unicast...), false, camp)

	confirmed := rep.Anycast()
	missedAnycast := 0
	for _, id := range anycast {
		if !confirmed[id] {
			missedAnycast++
		}
	}
	// GCD is highly accurate for globally distributed anycast (>= 5
	// sites); a couple of merges are tolerable.
	if missedAnycast > len(anycast)/5 {
		t.Fatalf("GCD missed %d of %d wide anycast targets", missedAnycast, len(anycast))
	}
	for _, id := range unicast {
		if confirmed[id] {
			t.Fatalf("GCD confirmed unicast target %d as anycast — impossible by construction", id)
		}
	}
}

func TestGlobalUnicastNotGCDConfirmed(t *testing.T) {
	// §5.1.3: Microsoft-style prefixes are ACs of the anycast-based stage
	// but must remain unicast under GCD.
	var ids []int
	for i := range testWorld.NumTargets(false) {
		tg := testWorld.TargetAt(false, i)
		if tg.Kind == netsim.GlobalUnicast && tg.Responsive[packet.ICMP] {
			ids = append(ids, tg.ID)
		}
	}
	if len(ids) == 0 {
		t.Fatal("no global-unicast targets")
	}
	rep := Run(testWorld, ids, false, arkCampaign(t, 10, false))
	for id, o := range rep.Outcomes {
		if o.Result.Anycast {
			t.Fatalf("global-unicast target %d GCD-confirmed", id)
		}
	}
}

func TestProbeAccounting(t *testing.T) {
	anycast, _ := sampleIDs(10)
	camp := arkCampaign(t, 10, false)
	camp.Attempts = 3
	rep := Run(testWorld, anycast, false, camp)
	maxProbes := int64(len(anycast) * len(camp.VPs) * 3)
	if rep.ProbesSent == 0 || rep.ProbesSent > maxProbes {
		t.Fatalf("probes sent = %d, want (0, %d]", rep.ProbesSent, maxProbes)
	}
}

func TestUnresponsiveTargetsSkipped(t *testing.T) {
	var dnsOnly []int
	for i := range testWorld.NumTargets(false) {
		tg := testWorld.TargetAt(false, i)
		if !tg.Responsive[packet.ICMP] && tg.Responsive[packet.DNS] {
			dnsOnly = append(dnsOnly, tg.ID)
		}
	}
	if len(dnsOnly) == 0 {
		t.Skip("no DNS-only targets")
	}
	rep := Run(testWorld, dnsOnly, false, arkCampaign(t, 10, false))
	if len(rep.Outcomes) != 0 {
		t.Fatalf("ICMP campaign produced outcomes for ICMP-unresponsive targets: %d", len(rep.Outcomes))
	}
}

// TestInvalidIDsIgnored: out-of-range IDs are not demand. Both campaigns
// skip them — ungoverned and under a gate, which must neither see nor
// charge them — and still count them in the stage total, so they must
// tick the progress counter or the live line stalls below 100 %.
func TestInvalidIDsIgnored(t *testing.T) {
	ids := []int{-1, 0, 1 << 30}
	for _, gated := range []bool{false, true} {
		c := arkCampaign(t, 10, false)
		var want int64 // what the gate is charged: target 0's one probe per VP
		if gated {
			c.Gate = budget.NewLedger(budget.Budget{DailyProbes: 1 << 40}, nil).Gate(10)
			want = int64(len(c.VPs))
		}
		check := func(name string, got map[int]bool, usage budget.Usage) {
			t.Helper()
			for id := range got {
				if id != 0 {
					t.Fatalf("%s gated=%v: invalid ID %d should be skipped", name, gated, id)
				}
			}
			if usage.Demanded != want || usage.Spent != want {
				t.Fatalf("%s gated=%v: usage %+v, want %d demanded and spent (target 0 only)", name, gated, usage, want)
			}
			if p := c.Obs.Progress(); p.Done != p.Total || p.Total != 3 {
				t.Fatalf("%s gated=%v: progress %d/%d after the stage, want 3/3", name, gated, p.Done, p.Total)
			}
		}

		c.Obs = obs.New()
		rep := Run(testWorld, ids, false, c)
		got := map[int]bool{}
		for id := range rep.Outcomes {
			got[id] = true
		}
		check("Run", got, rep.Usage)

		// The sweep probes only the representative here (no offsets), so
		// its demand per target is one address × VPs as well.
		c.Obs = obs.New()
		outcomes, _, usage := SweepAddrs(testWorld, ids, false, nil, c)
		got = map[int]bool{}
		for _, o := range outcomes {
			got[o.TargetID] = true
		}
		check("SweepAddrs", got, usage)
	}
}

func TestEnumerationGrowsWithVPs(t *testing.T) {
	// Fig 6/§7: more VPs enumerate more sites for hypergiants.
	var cf int
	cfIdx := testWorld.OperatorByName("Cloudflare")
	asn := testWorld.Operators[cfIdx].ASN
	for i := range testWorld.NumTargets(false) {
		tg := testWorld.TargetAt(false, i)
		if tg.Origin == asn && tg.Responsive[packet.ICMP] {
			cf = tg.ID
			break
		}
	}
	early := Run(testWorld, []int{cf}, false, arkCampaign(t, 0, false))
	late := Run(testWorld, []int{cf}, false, arkCampaign(t, 540, false))
	ne := early.Outcomes[cf].Result.NumSites()
	nl := late.Outcomes[cf].Result.NumSites()
	if nl <= ne {
		t.Fatalf("enumeration did not grow with Ark: %d (160 VPs) vs %d (250 VPs)", ne, nl)
	}
}

func TestBackingAnycastFPWithFilteringVPs(t *testing.T) {
	// §6: Fastly's backing-anycast /48s are misclassified when filtering
	// VPs are present, and correct after excluding them.
	var ids []int
	for i := range testWorld.NumTargets(true) {
		tg := testWorld.TargetAt(true, i)
		if tg.Kind == netsim.BackingAnycast && tg.Responsive[packet.ICMP] {
			ids = append(ids, tg.ID)
		}
	}
	if len(ids) == 0 {
		t.Skip("no backing-anycast v6 targets")
	}
	camp := arkCampaign(t, 400, true)
	withFilters := Run(testWorld, ids, true, camp)
	fpWith := len(withFilters.Anycast())

	var clean []netsim.VP
	for _, vp := range camp.VPs {
		if !vp.FiltersSpecifics {
			clean = append(clean, vp)
		}
	}
	camp.VPs = clean
	without := Run(testWorld, ids, true, camp)
	if fpNow := len(without.Anycast()); fpNow != 0 {
		t.Fatalf("after removing filtering VPs, %d backing-anycast FPs remain", fpNow)
	}
	if fpWith == 0 {
		t.Fatal("filtering VPs produced no FPs; the §6 mechanism is not exercised")
	}
}

func TestAddrSweepFindsPartialAnycast(t *testing.T) {
	var partials, unicasts []int
	for i := range testWorld.NumTargets(false) {
		tg := testWorld.TargetAt(false, i)
		switch {
		case tg.Kind == netsim.PartialAnycast && tg.Responsive[packet.ICMP]:
			partials = append(partials, tg.ID)
		case tg.Kind == netsim.Unicast && len(tg.TempWindows) == 0 && tg.Responsive[packet.ICMP] && len(unicasts) < 50:
			unicasts = append(unicasts, tg.ID)
		}
	}
	if len(partials) == 0 {
		t.Skip("no partial anycast in test world")
	}
	// The paper used 13 VPs for GCD_IPv4 (§5.7).
	camp := arkCampaign(t, 230, false)
	camp.VPs = camp.VPs[:13]
	outcomes, probes, _ := SweepAddrs(testWorld, append(append([]int{}, partials...), unicasts...), false, DefaultSweepOffsets(), camp)
	if probes == 0 {
		t.Fatal("no probes sent")
	}
	found := map[int]bool{}
	for _, o := range outcomes {
		if o.Partial() {
			found[o.TargetID] = true
		}
	}
	for _, id := range partials {
		if !found[id] {
			t.Errorf("partial-anycast prefix %d not found by sweep", id)
		}
	}
	for _, id := range unicasts {
		if found[id] {
			t.Errorf("plain unicast prefix %d flagged partial", id)
		}
	}
}

func BenchmarkGCDRunAnycastCandidates(b *testing.B) {
	anycast, unicast := sampleIDs(100)
	ids := append(append([]int{}, anycast...), unicast...)
	vps, _ := platform.Ark(testWorld, 200, false)
	camp := Campaign{VPs: vps, Proto: packet.ICMP, At: netsim.DayTime(200)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Run(testWorld, ids, false, camp)
	}
}
