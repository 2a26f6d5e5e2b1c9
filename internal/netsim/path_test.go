package netsim

import (
	"strings"
	"testing"

	"github.com/laces-project/laces/internal/packet"
)

func pathAt(t *testing.T, tg *Target, day int) []Hop {
	t.Helper()
	vp, err := testWorld.NewVP("path-vp", "Amsterdam")
	if err != nil {
		t.Fatal(err)
	}
	return testWorld.TracePath(vp, tg, DayTime(day))
}

func findKind(t *testing.T, kind TargetKind) *Target {
	t.Helper()
	for i := range testWorld.NumTargets(false) {
		tg := testWorld.TargetAt(false, i)
		if tg.Kind == kind && tg.Responsive[packet.ICMP] && len(tg.TempWindows) == 0 {
			return tg
		}
	}
	t.Fatalf("no %v target in test world", kind)
	return nil
}

func TestForwardPathStructure(t *testing.T) {
	tg := findKind(t, Unicast)
	hops := pathAt(t, tg, 5)
	if len(hops) < 3 {
		t.Fatalf("path too short: %d hops", len(hops))
	}
	if !strings.HasPrefix(hops[0].Label, "gw.") {
		t.Fatalf("first hop %q is not the source gateway", hops[0].Label)
	}
	last := hops[len(hops)-1]
	if !last.Dest {
		t.Fatal("path does not terminate at the target")
	}
	if last.CityIdx != tg.CityIdx {
		t.Fatalf("unicast path ends at city %d, target lives at %d", last.CityIdx, tg.CityIdx)
	}
	for i, h := range hops {
		if i > 0 && h.RTT <= hops[i-1].RTT {
			t.Fatalf("hop %d RTT %v not greater than hop %d RTT %v", i, h.RTT, i-1, hops[i-1].RTT)
		}
	}
	for _, h := range hops[:len(hops)-1] {
		if h.PoP {
			t.Fatal("unicast path contains an operator PoP hop")
		}
	}
}

func TestForwardPathGlobalUnicastIngress(t *testing.T) {
	tg := findKind(t, GlobalUnicast)
	hops := pathAt(t, tg, 5)
	var pop *Hop
	for i := range hops {
		if hops[i].PoP {
			pop = &hops[i]
		}
	}
	if pop == nil {
		t.Fatal("global-unicast path has no ingress PoP hop")
	}
	if pop.Owner != tg.Origin {
		t.Fatalf("PoP owner = %d, want origin %d", pop.Owner, tg.Origin)
	}
	if !hops[len(hops)-1].Dest || hops[len(hops)-1].CityIdx != tg.CityIdx {
		t.Fatal("global-unicast path must terminate at the single server")
	}
}

// TestGlobalUnicastIngressFanout is the §5.1.3 confirmation: traceroutes
// from dispersed sources ingress the operator network at distinct PoPs
// while always terminating at the same server.
func TestGlobalUnicastIngressFanout(t *testing.T) {
	at := DayTime(5)
	sources := []string{"Amsterdam", "Tokyo", "Los Angeles", "Sao Paulo", "Sydney", "Johannesburg"}
	found := false
	for i := range testWorld.NumTargets(false) {
		tg := testWorld.TargetAt(false, i)
		if tg.Kind != GlobalUnicast || !tg.Responsive[packet.ICMP] {
			continue
		}
		ingress := make(map[int]bool)
		servers := make(map[int]bool)
		for _, s := range sources {
			vp, err := testWorld.NewVP("fan-"+s, s)
			if err != nil {
				t.Fatal(err)
			}
			hops := testWorld.TracePath(vp, tg, at)
			for _, h := range hops {
				if h.PoP {
					ingress[h.CityIdx] = true
				}
				if h.Dest {
					servers[h.CityIdx] = true
				}
			}
		}
		if len(servers) != 1 {
			t.Fatalf("target %d: %d distinct servers, want exactly 1", tg.ID, len(servers))
		}
		if len(ingress) >= 2 {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("no global-unicast target shows multi-PoP ingress — the §5.1.3 signature is missing")
	}
}

func TestForwardPathAnycastEndsAtCatchmentSite(t *testing.T) {
	tg := findKind(t, Anycast)
	vp, err := testWorld.NewVP("path-vp-2", "Tokyo")
	if err != nil {
		t.Fatal(err)
	}
	at := DayTime(5)
	hops := testWorld.TracePath(vp, tg, at)
	want := tg.Sites[testWorld.targetSite(tg, vp.CityIdx)].CityIdx
	last := hops[len(hops)-1]
	if !last.Dest || last.CityIdx != want {
		t.Fatalf("anycast trace ends at city %d, catchment site is %d", last.CityIdx, want)
	}
	// The latency probe and the trace must agree on the responding site.
	_, site, ok := testWorld.ProbeUnicast(vp, tg, packet.ICMP, at, 0)
	if ok && tg.Sites[site].CityIdx != last.CityIdx {
		t.Fatalf("ProbeUnicast answers from city %d but TracePath ends at %d",
			tg.Sites[site].CityIdx, last.CityIdx)
	}
}

func TestForwardPathDeterministic(t *testing.T) {
	tg := findKind(t, Anycast)
	a := pathAt(t, tg, 9)
	b := pathAt(t, tg, 9)
	if len(a) != len(b) {
		t.Fatalf("path lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("hop %d differs between identical invocations:\n%+v\n%+v", i, a[i], b[i])
		}
	}
}

func TestForwardPathRTTPhysicallySound(t *testing.T) {
	vp, err := testWorld.NewVP("path-sound", "Frankfurt")
	if err != nil {
		t.Fatal(err)
	}
	at := DayTime(12)
	checked := 0
	for i := range testWorld.NumTargets(false) {
		if checked >= 300 {
			break
		}
		tg := testWorld.TargetAt(false, i)
		if !tg.Responsive[packet.ICMP] {
			continue
		}
		checked++
		for _, h := range testWorld.TracePath(vp, tg, at) {
			straight := testWorld.distKm(vp.CityIdx, h.CityIdx)
			if maxKm := h.RTT.Seconds() / 2 * 200000; maxKm < straight {
				t.Fatalf("target %d hop %q: RTT %v implies max %.0f km but router is %.0f km away",
					tg.ID, h.Label, h.RTT, maxKm, straight)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no targets traced")
	}
}

func TestTracePathBackingAnycastFilteringVP(t *testing.T) {
	var tg *Target
	for i := range testWorld.NumTargets(true) {
		cand := testWorld.TargetAt(true, i)
		if cand.Kind == BackingAnycast && cand.Responsive[packet.ICMP] {
			tg = cand
			break
		}
	}
	if tg == nil {
		t.Skip("no backing-anycast target in test world")
	}
	plain, err := testWorld.NewVP("back-plain", "Amsterdam")
	if err != nil {
		t.Fatal(err)
	}
	filtering := plain
	filtering.FiltersSpecifics = true
	at := DayTime(5)
	pHops := testWorld.TracePath(plain, tg, at)
	fHops := testWorld.TracePath(filtering, tg, at)
	pEnd := pHops[len(pHops)-1]
	fEnd := fHops[len(fHops)-1]
	if pEnd.CityIdx != tg.CityIdx {
		t.Fatalf("non-filtering VP should reach the covered server at %d, got %d", tg.CityIdx, pEnd.CityIdx)
	}
	wantSite := tg.Sites[testWorld.targetSite(tg, filtering.CityIdx)].CityIdx
	if fEnd.CityIdx != wantSite {
		t.Fatalf("filtering VP should be caught by backing PoP %d, got %d", wantSite, fEnd.CityIdx)
	}
}

func TestForwardPathTransitHopsBounded(t *testing.T) {
	vp, err := testWorld.NewVP("path-bound", "Singapore")
	if err != nil {
		t.Fatal(err)
	}
	at := DayTime(3)
	for i := 0; i < 200 && i < testWorld.NumTargets(false); i++ {
		tg := testWorld.TargetAt(false, i)
		hops := testWorld.TracePath(vp, tg, at)
		if len(hops) > 2+maxTransitHops+3 {
			t.Fatalf("target %d: %d hops, too long", tg.ID, len(hops))
		}
	}
}
