package traceroute

import (
	"sync"
	"testing"

	"github.com/laces-project/laces/internal/netsim"
	"github.com/laces-project/laces/internal/packet"
)

var (
	worldOnce sync.Once
	world     *netsim.World
)

func testWorld(t testing.TB) *netsim.World {
	t.Helper()
	worldOnce.Do(func() {
		w, err := netsim.New(netsim.TestConfig())
		if err != nil {
			t.Fatal(err)
		}
		world = w
	})
	return world
}

func vpAt(t testing.TB, w *netsim.World, name, city string) netsim.VP {
	t.Helper()
	vp, err := w.NewVP(name, city, 0)
	if err != nil {
		t.Fatal(err)
	}
	return vp
}

func firstTarget(t testing.TB, w *netsim.World, keep func(*netsim.Target) bool) *netsim.Target {
	t.Helper()
	for i := range w.NumTargets(false) {
		tg := w.TargetAt(false, i)
		if keep(tg) {
			return tg
		}
	}
	t.Fatal("no matching target")
	return nil
}

func TestRunReachesUnicastTarget(t *testing.T) {
	w := testWorld(t)
	vp := vpAt(t, w, "tr-ams", "Amsterdam")
	tg := firstTarget(t, w, func(tg *netsim.Target) bool {
		return tg.Kind == netsim.Unicast && tg.Responsive[packet.ICMP] && len(tg.TempWindows) == 0
	})
	p, err := Run(w, vp, tg, Options{At: netsim.DayTime(4), Measurement: 7})
	if err != nil {
		t.Fatal(err)
	}
	if !p.Reached {
		t.Fatal("trace did not reach a responsive unicast target")
	}
	last := p.Hops[len(p.Hops)-1]
	if !last.Dest || last.Router != tg.Addr.String() {
		t.Fatalf("terminal hop %+v is not the target", last)
	}
	if p.ProbesSent != int64(len(p.Hops)) {
		t.Fatalf("ProbesSent=%d for %d hops", p.ProbesSent, len(p.Hops))
	}
	// TTLs must be sequential from 1.
	for i, h := range p.Hops {
		if h.TTL != i+1 {
			t.Fatalf("hop %d has TTL %d", i, h.TTL)
		}
	}
	// Replied RTTs never decrease (each reply transits every earlier
	// router).
	var prev int64 = -1
	for _, h := range p.Hops {
		if h.Router == "" {
			continue
		}
		if n := h.RTT.Nanoseconds(); n <= prev {
			t.Fatalf("RTT inversion at TTL %d", h.TTL)
		} else {
			prev = n
		}
	}
}

func TestRunIdentityMismatchCaught(t *testing.T) {
	// The engine validates quoted identities; a mismatch would be a bug,
	// so Run must never report one on a healthy world. (The invariant is
	// enforced inside Run; this test just exercises a broad sweep.)
	w := testWorld(t)
	vp := vpAt(t, w, "tr-syd", "Sydney")
	n := 0
	for i := range w.NumTargets(false) {
		if n >= 120 {
			break
		}
		tg := w.TargetAt(false, i)
		if !tg.Responsive[packet.ICMP] {
			continue
		}
		n++
		if _, err := Run(w, vp, tg, Options{At: netsim.DayTime(6), Measurement: uint16(i)}); err != nil {
			t.Fatalf("target %d: %v", tg.ID, err)
		}
	}
}

func TestRunUnresponsiveTargetEndsSilent(t *testing.T) {
	w := testWorld(t)
	vp := vpAt(t, w, "tr-nyc", "New York")
	tg := firstTarget(t, w, func(tg *netsim.Target) bool {
		return !tg.Responsive[packet.ICMP]
	})
	p, err := Run(w, vp, tg, Options{At: netsim.DayTime(4)})
	if err != nil {
		t.Fatal(err)
	}
	if p.Reached {
		t.Fatal("trace claims to reach an ICMP-unresponsive target")
	}
	if last := p.Hops[len(p.Hops)-1]; last.Router != "" && last.Dest {
		t.Fatalf("unresponsive target produced a terminal reply: %+v", last)
	}
}

func TestMeasureGlobalBGPSignature(t *testing.T) {
	w := testWorld(t)
	vps := []netsim.VP{
		vpAt(t, w, "fan-1", "Amsterdam"), vpAt(t, w, "fan-2", "Tokyo"),
		vpAt(t, w, "fan-3", "Los Angeles"), vpAt(t, w, "fan-4", "Sao Paulo"),
		vpAt(t, w, "fan-5", "Sydney"), vpAt(t, w, "fan-6", "Johannesburg"),
		vpAt(t, w, "fan-7", "Frankfurt"), vpAt(t, w, "fan-8", "Singapore"),
	}
	opts := Options{At: netsim.DayTime(5)}

	confirmed := 0
	checked := 0
	for i := range w.NumTargets(false) {
		tg := w.TargetAt(false, i)
		if tg.Kind != netsim.GlobalUnicast || !tg.Responsive[packet.ICMP] {
			continue
		}
		checked++
		if checked > 40 {
			break
		}
		f, err := Measure(w, vps, tg, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(f.ServerCities) > 1 {
			t.Fatalf("global-unicast target %d shows %d server cities", tg.ID, len(f.ServerCities))
		}
		if f.GlobalBGP() {
			confirmed++
		}
	}
	if checked == 0 {
		t.Fatal("no global-unicast targets")
	}
	if confirmed < checked/2 {
		t.Fatalf("only %d/%d global-unicast targets confirmed by traceroute; §5.1.3 signature too weak", confirmed, checked)
	}
}

func TestUnicastNeverConfirmsGlobalBGP(t *testing.T) {
	w := testWorld(t)
	vps := []netsim.VP{
		vpAt(t, w, "neg-1", "Amsterdam"), vpAt(t, w, "neg-2", "Tokyo"),
		vpAt(t, w, "neg-3", "Los Angeles"), vpAt(t, w, "neg-4", "Sydney"),
	}
	opts := Options{At: netsim.DayTime(5)}
	checked := 0
	for i := range w.NumTargets(false) {
		tg := w.TargetAt(false, i)
		if tg.Kind != netsim.Unicast || !tg.Responsive[packet.ICMP] || len(tg.TempWindows) > 0 {
			continue
		}
		checked++
		if checked > 60 {
			break
		}
		f, err := Measure(w, vps, tg, opts)
		if err != nil {
			t.Fatal(err)
		}
		if f.GlobalBGP() {
			t.Fatalf("plain unicast target %d confirmed as global BGP: %+v", tg.ID, f)
		}
	}
	if checked == 0 {
		t.Fatal("no unicast targets")
	}
}

func TestEnumerateSitesTracksTruthForAnycast(t *testing.T) {
	w := testWorld(t)
	// A well-spread VP set: one per continent plus extras.
	names := []string{"Amsterdam", "Frankfurt", "London", "New York", "Los Angeles",
		"Chicago", "Tokyo", "Singapore", "Mumbai", "Sao Paulo", "Sydney",
		"Johannesburg", "Stockholm", "Madrid", "Toronto", "Seoul"}
	var vps []netsim.VP
	for i, n := range names {
		vps = append(vps, vpAt(t, w, "enum-"+string(rune('a'+i)), n))
	}
	opts := Options{At: netsim.DayTime(5)}
	tested := 0
	for i := range w.NumTargets(false) {
		tg := w.TargetAt(false, i)
		if tg.Kind != netsim.Anycast || !tg.Responsive[packet.ICMP] ||
			len(tg.Sites) < 3 || len(tg.Sites) > 8 || len(tg.TempWindows) > 0 {
			continue
		}
		tested++
		if tested > 15 {
			break
		}
		n, err := EnumerateSites(w, vps, tg, opts)
		if err != nil {
			t.Fatal(err)
		}
		if n < 1 || n > len(tg.Sites) {
			t.Fatalf("target %d: enumerated %d sites, truth has %d — enumeration must be a lower bound",
				tg.ID, n, len(tg.Sites))
		}
	}
	if tested == 0 {
		t.Fatal("no mid-size anycast targets")
	}
}

func TestConfirmGlobalBGPScreensCandidates(t *testing.T) {
	w := testWorld(t)
	vps := []netsim.VP{
		vpAt(t, w, "scr-1", "Amsterdam"), vpAt(t, w, "scr-2", "Tokyo"),
		vpAt(t, w, "scr-3", "Los Angeles"), vpAt(t, w, "scr-4", "Sao Paulo"),
		vpAt(t, w, "scr-5", "Sydney"), vpAt(t, w, "scr-6", "Johannesburg"),
	}
	var cands []*netsim.Target
	for i := range w.NumTargets(false) {
		tg := w.TargetAt(false, i)
		if tg.Kind == netsim.GlobalUnicast || (tg.Kind == netsim.Unicast && len(tg.TempWindows) == 0) {
			cands = append(cands, tg)
		}
		if len(cands) >= 50 {
			break
		}
	}
	ids, probes, err := ConfirmGlobalBGP(w, vps, cands, netsim.DayTime(5))
	if err != nil {
		t.Fatal(err)
	}
	if probes == 0 {
		t.Fatal("no probes accounted")
	}
	byID := make(map[int]*netsim.Target)
	for _, tg := range cands {
		byID[tg.ID] = tg
	}
	for _, id := range ids {
		if byID[id].Kind != netsim.GlobalUnicast {
			t.Fatalf("confirmed %v target %d as global BGP", byID[id].Kind, id)
		}
	}
}

func TestRunIPv6Target(t *testing.T) {
	w := testWorld(t)
	vp := vpAt(t, w, "tr-v6", "Frankfurt")
	var tg *netsim.Target
	for i := range w.NumTargets(true) {
		cand := w.TargetAt(true, i)
		if cand.Responsive[packet.ICMP] && cand.Kind == netsim.Anycast && len(cand.TempWindows) == 0 {
			tg = cand
			break
		}
	}
	if tg == nil {
		t.Fatal("no v6 anycast target")
	}
	p, err := Run(w, vp, tg, Options{At: netsim.DayTime(4), Measurement: 11})
	if err != nil {
		t.Fatal(err)
	}
	if !p.Reached {
		t.Fatal("v6 trace did not reach the target")
	}
	last := p.Hops[len(p.Hops)-1]
	if !last.Dest {
		t.Fatalf("terminal hop not Dest: %+v", last)
	}
	// The ICMPv6 encode path ran for every TTL; identity validation inside
	// Run would have failed loudly on any checksum or quote corruption.
	if p.ProbesSent < 3 {
		t.Fatalf("suspiciously short v6 trace: %d probes", p.ProbesSent)
	}
}
