package netsim

import (
	"testing"
	"testing/quick"
	"time"

	"github.com/laces-project/laces/internal/cities"
	"github.com/laces-project/laces/internal/packet"
)

// testWorld is shared across tests: generation is deterministic, and the
// world is immutable, so building it once keeps the suite fast.
var testWorld = mustWorld()

func mustWorld() *World {
	w, err := New(TestConfig())
	if err != nil {
		panic(err)
	}
	return w
}

func tangled(t testing.TB, w *World, policy RoutingPolicy) *Deployment {
	t.Helper()
	d, err := w.NewDeployment("TANGLED", cities.VultrMetros(), policy)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// receiversOf runs a synchronized 32-worker probe round against tg and
// returns the set of receiving worker indices.
func receiversOf(w *World, d *Deployment, tg *Target, proto packet.Protocol, at time.Time, gap time.Duration) map[int]bool {
	recv := make(map[int]bool)
	for wk := 0; wk < d.NumSites(); wk++ {
		ctx := ProbeCtx{
			At:   at.Add(time.Duration(wk) * gap),
			Flow: FlowKey{Proto: proto, StaticFlow: 1, VaryingPayload: uint64(wk + 1)},
			Gap:  gap,
			Seq:  uint64(tg.ID),
		}
		if del, ok := w.ProbeAnycast(d, wk, tg, ctx); ok {
			recv[del.WorkerIdx] = true
		}
	}
	return recv
}

func TestGenerationDeterministic(t *testing.T) {
	w2, err := New(TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	if w2.NumTargets(false) != testWorld.NumTargets(false) || w2.NumTargets(true) != testWorld.NumTargets(true) {
		t.Fatal("target counts differ across runs with the same seed")
	}
	for i := range w2.NumTargets(false) {
		a, b := w2.TargetAt(false, i), testWorld.TargetAt(false, i)
		if a.Prefix != b.Prefix || a.Kind != b.Kind || a.Origin != b.Origin || a.Addr != b.Addr {
			t.Fatalf("target %d differs: %+v vs %+v", i, a, b)
		}
	}
}

func TestGenerationDifferentSeeds(t *testing.T) {
	cfg := TestConfig()
	cfg.Seed++
	w2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	for i := range w2.NumTargets(false) {
		if w2.TargetAt(false, i).Addr == testWorld.TargetAt(false, i).Addr {
			same++
		}
	}
	if same == w2.NumTargets(false) {
		t.Fatal("different seeds produced identical address plans")
	}
}

func TestTargetCountsMatchConfig(t *testing.T) {
	cfg := TestConfig()
	if testWorld.NumTargets(false) != cfg.V4Targets {
		t.Fatalf("V4 targets = %d, want %d", testWorld.NumTargets(false), cfg.V4Targets)
	}
	if testWorld.NumTargets(true) != cfg.V6Targets {
		t.Fatalf("V6 targets = %d, want %d", testWorld.NumTargets(true), cfg.V6Targets)
	}
}

func TestPrefixesUniqueAndContainRepresentative(t *testing.T) {
	for _, v6 := range []bool{false, true} {
		seen := make(map[string]bool)
		for i := range testWorld.NumTargets(v6) {
			tg := testWorld.TargetAt(v6, i)
			key := tg.Prefix.String()
			if seen[key] {
				t.Fatalf("duplicate prefix %s", key)
			}
			seen[key] = true
			if !tg.Prefix.Contains(tg.Addr) {
				t.Fatalf("target %d: prefix %s does not contain representative %s", i, tg.Prefix, tg.Addr)
			}
			wantBits := 24
			if v6 {
				wantBits = 48
			}
			if tg.Prefix.Bits() != wantBits {
				t.Fatalf("target %d: prefix %s has %d bits, want %d", i, tg.Prefix, tg.Prefix.Bits(), wantBits)
			}
		}
	}
}

// TestBGPPrefixesCoverTheirTargets is the announcement oracle, run on
// eager and lazy worlds: the BGPPrefixAt target runs tile [0, NumTargets)
// in ascending order, and every target in a run points back at its
// announcement, lies inside its prefix and shares its origin.
func TestBGPPrefixesCoverTheirTargets(t *testing.T) {
	for _, seed := range equivalenceSeeds {
		for _, lazy := range []bool{false, true} {
			cfg := TestConfig()
			cfg.Seed, cfg.LazyTargets = seed, lazy
			w, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, v6 := range []bool{false, true} {
				wk, next := w.Walker(v6), 0
				for bi := range w.NumBGPPrefixes(v6) {
					bp := w.BGPPrefixAt(v6, bi)
					if len(bp.Targets) == 0 {
						t.Fatalf("seed %#x lazy=%v: BGP prefix %s has no targets", seed, lazy, bp.Prefix)
					}
					for _, id := range bp.Targets {
						if id != next {
							t.Fatalf("seed %#x lazy=%v v6=%v: announcement %d holds target %d, want %d", seed, lazy, v6, bi, id, next)
						}
						next++
						tg := wk.At(id)
						if tg.BGPPrefix != bi {
							t.Fatalf("seed %#x lazy=%v: target %d back-reference %d, want %d", seed, lazy, id, tg.BGPPrefix, bi)
						}
						if !bp.Prefix.Contains(tg.Addr) {
							t.Fatalf("seed %#x lazy=%v: BGP prefix %s does not contain target %s", seed, lazy, bp.Prefix, tg.Addr)
						}
						if tg.Origin != bp.Origin {
							t.Fatalf("seed %#x lazy=%v: target %d origin %d but announcement origin %d", seed, lazy, id, tg.Origin, bp.Origin)
						}
					}
				}
				if n := w.NumTargets(v6); next != n {
					t.Fatalf("seed %#x lazy=%v v6=%v: announcements cover %d of %d targets", seed, lazy, v6, next, n)
				}
			}
		}
	}
}

func TestOperatorLandscape(t *testing.T) {
	for _, name := range []string{"Google Cloud", "Cloudflare", "Microsoft", "G-Root", "ccTLD-nz"} {
		if testWorld.OperatorByName(name) < 0 {
			t.Errorf("operator %s missing from world", name)
		}
	}
	gi := testWorld.OperatorByName("G-Root")
	groot := testWorld.Operators[gi]
	found := false
	for i := range testWorld.NumTargets(false) {
		tg := testWorld.TargetAt(false, i)
		if tg.Origin != groot.ASN {
			continue
		}
		found = true
		if tg.Responsive[packet.ICMP] || tg.Responsive[packet.TCP] {
			t.Error("G-Root must be unresponsive to ICMP and TCP (§6)")
		}
		if !tg.Responsive[packet.DNS] {
			t.Error("G-Root must respond to DNS")
		}
	}
	if !found {
		t.Fatal("no G-Root targets generated")
	}
	nz := testWorld.Operators[testWorld.OperatorByName("ccTLD-nz")]
	for _, s := range nz.Sites {
		if s.City.Country != "NZ" {
			t.Errorf("ccTLD-nz site outside NZ: %s", s.City)
		}
	}
}

func TestEveryTargetRespondsToSomething(t *testing.T) {
	for _, v6 := range []bool{false, true} {
		for i := range testWorld.NumTargets(v6) {
			tg := testWorld.TargetAt(v6, i)
			if !tg.Responsive[packet.ICMP] && !tg.Responsive[packet.TCP] && !tg.Responsive[packet.DNS] {
				t.Fatalf("target %d (v6=%v) responds to nothing — cannot be on a hitlist", i, v6)
			}
		}
	}
}

func TestTemporaryAnycastWindows(t *testing.T) {
	ii := testWorld.OperatorByName("Incapsula")
	if ii < 0 {
		t.Fatal("Incapsula operator missing")
	}
	asn := testWorld.Operators[ii].ASN
	temp, static := 0, 0
	for i := range testWorld.NumTargets(false) {
		tg := testWorld.TargetAt(false, i)
		if tg.Origin != asn {
			continue
		}
		if len(tg.TempWindows) == 0 {
			static++
			continue
		}
		temp++
		w0 := tg.TempWindows[0]
		if !tg.IsAnycastAt(w0.From) {
			t.Error("temp target should be anycast inside its window")
		}
		if tg.IsAnycastAt(w0.From-1) && (len(tg.TempWindows) < 2) {
			// Day before the first window must be unicast unless another
			// window covers it (windows are sorted).
			t.Error("temp target should be unicast before its first window")
		}
	}
	if temp == 0 {
		t.Fatal("no temporary-anycast targets generated for Incapsula")
	}
	_ = static
}

func TestAnycastBornDay(t *testing.T) {
	var born *Target
	for i := range testWorld.NumTargets(false) {
		tg := testWorld.TargetAt(false, i)
		if tg.Kind == Anycast && tg.AnycastBornDay > 0 {
			born = tg
			break
		}
	}
	if born == nil {
		t.Skip("no growing deployment in test world")
	}
	if born.IsAnycastAt(born.AnycastBornDay - 1) {
		t.Error("target anycast before its born day")
	}
	if !born.IsAnycastAt(born.AnycastBornDay) {
		t.Error("target not anycast on its born day")
	}
}

func TestUnicastSingleReceiver(t *testing.T) {
	d := tangled(t, testWorld, PolicyUnmodified)
	at := DayTime(3)
	checked := 0
	for i := range testWorld.NumTargets(false) {
		tg := testWorld.TargetAt(false, i)
		if tg.Kind != Unicast || !tg.Responsive[packet.ICMP] || len(tg.TempWindows) > 0 {
			continue
		}
		if a, ok := testWorld.ASByNumber(tg.Origin); !ok || a.TieSplit || a.Wobbly || a.Drifty {
			continue
		}
		if testWorld.transientDisturbed(tg, DayOf(at)) {
			continue // a per-day disturbance legitimately splits replies
		}
		recv := receiversOf(testWorld, d, tg, packet.ICMP, at, time.Second)
		if len(recv) != 1 {
			t.Fatalf("clean unicast target %d received at %d VPs", i, len(recv))
		}
		checked++
		if checked >= 300 {
			break
		}
	}
	if checked < 100 {
		t.Fatalf("only %d clean unicast targets checked", checked)
	}
}

func TestTieSplitTwoReceivers(t *testing.T) {
	d := tangled(t, testWorld, PolicyUnmodified)
	at := DayTime(3)
	splits := 0
	for i := range testWorld.NumTargets(false) {
		tg := testWorld.TargetAt(false, i)
		a, ok := testWorld.ASByNumber(tg.Origin)
		if !ok || !a.TieSplit || tg.Kind != Unicast || !tg.Responsive[packet.ICMP] {
			continue
		}
		recv := receiversOf(testWorld, d, tg, packet.ICMP, at, time.Second)
		if len(recv) < 2 {
			t.Errorf("tie-split target %d received at %d VPs, want >= 2", i, len(recv))
		}
		if len(recv) > a.TieWidth {
			t.Errorf("tie-split target %d received at %d VPs, width %d", i, len(recv), a.TieWidth)
		}
		splits++
	}
	if splits == 0 {
		t.Fatal("no tie-split targets in test world")
	}
}

func TestGlobalUnicastFewReceivers(t *testing.T) {
	d := tangled(t, testWorld, PolicyUnmodified)
	at := DayTime(3)
	multi, n := 0, 0
	everMulti := make(map[int]bool)
	for i := range testWorld.NumTargets(false) {
		tg := testWorld.TargetAt(false, i)
		if tg.Kind != GlobalUnicast || !tg.Responsive[packet.ICMP] {
			continue
		}
		recv := receiversOf(testWorld, d, tg, packet.ICMP, at, time.Second)
		if len(recv) > 4 {
			t.Errorf("global-unicast target %d received at %d VPs, want <= 4 (paper: 2-3)", i, len(recv))
		}
		if len(recv) >= 2 {
			multi++
		}
		n++
	}
	if n == 0 {
		t.Fatal("no global-unicast targets")
	}
	// On any single day internal traffic engineering hides a share of the
	// prefixes (Cfg.GlobalUnicastTEFrac), but the clear majority must show
	// the multi-VP ℳ pattern.
	lo := 0.9 * (1 - testWorld.Cfg.GlobalUnicastTEFrac)
	if float64(multi) < lo*float64(n) {
		t.Fatalf("only %d/%d global-unicast targets reach 2+ VPs; the ℳ mechanism is broken", multi, n)
	}
	// Across a handful of days nearly every prefix surfaces at 2+ VPs at
	// least once — the rotation that keeps Fig 10's all-days core small.
	for day := 3; day < 24; day += 4 {
		at := DayTime(day)
		for i := range testWorld.NumTargets(false) {
			tg := testWorld.TargetAt(false, i)
			if tg.Kind != GlobalUnicast || !tg.Responsive[packet.ICMP] || everMulti[i] {
				continue
			}
			if len(receiversOf(testWorld, d, tg, packet.ICMP, at, time.Second)) >= 2 {
				everMulti[i] = true
			}
		}
	}
	// A small structural residue has all its egress edges inside one
	// VP's catchment and never surfaces (an FN of the mechanism itself).
	if len(everMulti) < int(0.85*float64(n)) {
		t.Fatalf("only %d/%d global-unicast targets ever reach 2+ VPs across days; egress rotation broken", len(everMulti), n)
	}
}

func TestHypergiantManyReceivers(t *testing.T) {
	d := tangled(t, testWorld, PolicyUnmodified)
	at := DayTime(3)
	cf := testWorld.Operators[testWorld.OperatorByName("Cloudflare")]
	best := 0
	for i := range testWorld.NumTargets(false) {
		tg := testWorld.TargetAt(false, i)
		if tg.Origin != cf.ASN || !tg.Responsive[packet.ICMP] {
			continue
		}
		if n := len(receiversOf(testWorld, d, tg, packet.ICMP, at, time.Second)); n > best {
			best = n
		}
	}
	if best < 24 {
		t.Fatalf("largest Cloudflare receiver set = %d, want >= 24 of 32 (Table 2's top bucket)", best)
	}
}

func TestFPsGrowWithProbeInterval(t *testing.T) {
	d := tangled(t, testWorld, PolicyUnmodified)
	at := DayTime(4)
	fpsAt := func(gap time.Duration) int {
		fp := 0
		for i := range testWorld.NumTargets(false) {
			tg := testWorld.TargetAt(false, i)
			if tg.IsAnycastAt(4) || !tg.Responsive[packet.ICMP] {
				continue
			}
			if len(receiversOf(testWorld, d, tg, packet.ICMP, at, gap)) >= 2 {
				fp++
			}
		}
		return fp
	}
	fp0 := fpsAt(0)
	fp1s := fpsAt(time.Second)
	fp1m := fpsAt(time.Minute)
	fp13m := fpsAt(13 * time.Minute)
	t.Logf("FPs: 0s=%d 1s=%d 1m=%d 13m=%d", fp0, fp1s, fp1m, fp13m)
	if fp1s < fp0 {
		t.Errorf("FPs at 1s (%d) below 0s (%d)", fp1s, fp0)
	}
	if fp1m < fp1s {
		t.Errorf("FPs at 1m (%d) below 1s (%d)", fp1m, fp1s)
	}
	if float64(fp13m) < 1.5*float64(fp1m) {
		t.Errorf("FPs at 13m (%d) not well above 1m (%d) — Fig 5 shape lost", fp13m, fp1m)
	}
}

func TestStaticProbesMatchVaryingProbes(t *testing.T) {
	// §5.1.4: sending byte-identical probes from all workers (no payload
	// variation) must yield (nearly) the same candidate set.
	d := tangled(t, testWorld, PolicyUnmodified)
	at := DayTime(5)
	diff, n := 0, 0
	for i := range testWorld.NumTargets(false) {
		tg := testWorld.TargetAt(false, i)
		if !tg.Responsive[packet.ICMP] {
			continue
		}
		varying := receiversOf(testWorld, d, tg, packet.ICMP, at, time.Second)
		static := make(map[int]bool)
		for wk := 0; wk < d.NumSites(); wk++ {
			ctx := ProbeCtx{
				At:   at.Add(time.Duration(wk) * time.Second),
				Flow: FlowKey{Proto: packet.ICMP, StaticFlow: 1, VaryingPayload: 0},
				Gap:  time.Second,
				Seq:  uint64(tg.ID),
			}
			if del, ok := testWorld.ProbeAnycast(d, wk, tg, ctx); ok {
				static[del.WorkerIdx] = true
			}
		}
		if (len(varying) >= 2) != (len(static) >= 2) {
			diff++
		}
		n++
	}
	if float64(diff) > 0.002*float64(n) {
		t.Fatalf("static vs varying probes disagree on %d/%d targets — load balancers affect results beyond the paper's finding", diff, n)
	}
}

func TestRouteFlippedConstantWithinPeriod(t *testing.T) {
	var drifty *Target
	for i := range testWorld.NumTargets(false) {
		tg := testWorld.TargetAt(false, i)
		a, ok := testWorld.ASByNumber(tg.Origin)
		if ok && a.Drifty && !a.Wobbly {
			drifty = tg
			break
		}
	}
	if drifty == nil {
		t.Skip("no drifty target")
	}
	base := DayTime(6).Unix()
	// Within one 7200 s period the state must not change.
	a, _ := testWorld.ASByNumber(drifty.Origin)
	flap := testWorld.flapClassOf(drifty, &a, 6)
	ref := testWorld.flipped(drifty, flap, base-base%7200)
	for off := int64(0); off < 7200; off += 600 {
		if testWorld.flipped(drifty, flap, base-base%7200+off) != ref {
			t.Fatal("route state changed within a stability period")
		}
	}
}

func TestPolicyChangesCandidateSets(t *testing.T) {
	at := DayTime(7)
	acs := func(policy RoutingPolicy) map[int]bool {
		d := tangled(t, testWorld, policy)
		out := make(map[int]bool)
		for i := range 4000 {
			tg := testWorld.TargetAt(false, i)
			if !tg.Responsive[packet.ICMP] {
				continue
			}
			if len(receiversOf(testWorld, d, tg, packet.ICMP, at, time.Second)) >= 2 {
				out[i] = true
			}
		}
		return out
	}
	unmod := acs(PolicyUnmodified)
	transits := acs(PolicyTransitsOnly)
	ixps := acs(PolicyIXPsOnly)
	if len(transits) <= len(unmod) {
		t.Errorf("Transits-only found %d ACs, unmodified %d — Fig 8 expects more under transits-only", len(transits), len(unmod))
	}
	// The three policies must produce overlapping but distinct sets.
	if len(ixps) == 0 || len(unmod) == 0 {
		t.Fatal("empty candidate sets")
	}
	sameAsUnmod := true
	for k := range transits {
		if !unmod[k] {
			sameAsUnmod = false
			break
		}
	}
	if sameAsUnmod && len(transits) == len(unmod) {
		t.Error("policy change did not alter the candidate set at all")
	}
}

func TestProbeUnicastRTTPhysicallySound(t *testing.T) {
	vp, err := testWorld.NewVP("ark-ams", "Amsterdam", 0)
	if err != nil {
		t.Fatal(err)
	}
	at := DayTime(8)
	var asked, lost int
	for i := range testWorld.NumTargets(false) {
		tg := testWorld.TargetAt(false, i)
		if !tg.Responsive[packet.ICMP] {
			continue
		}
		asked++
		rtt, site, ok := testWorld.ProbeUnicast(vp, tg, packet.ICMP, at, 1)
		if !ok {
			// Transient per-day measurement loss (Cfg.GCDLossFrac) is a
			// modelled feature; it must stay a small minority.
			lost++
			continue
		}
		respCity := tg.CityIdx
		if site >= 0 {
			respCity = tg.Sites[site].CityIdx
		}
		trueDist := testWorld.distKm(vp.CityIdx, respCity)
		if maxDist := rtt.Seconds() / 2 * 200000; maxDist < trueDist {
			t.Fatalf("target %d: RTT %v implies max %f km but responder is %f km away — impossible speed-of-light violation manufactured", i, rtt, maxDist, trueDist)
		}
	}
	if asked == 0 {
		t.Fatal("no responsive targets probed")
	}
	if frac := float64(lost) / float64(asked); frac > 3*testWorld.Cfg.GCDLossFrac+0.01 {
		t.Fatalf("lost %d/%d samples (%.1f%%) — far above the configured loss rate %.1f%%",
			lost, asked, 100*frac, 100*testWorld.Cfg.GCDLossFrac)
	}
}

func TestPartialAnycastAddrProbing(t *testing.T) {
	vpA, _ := testWorld.NewVP("ark-a", "Amsterdam", 0)
	vpB, _ := testWorld.NewVP("ark-b", "Sydney", 0)
	at := DayTime(9)
	found := false
	for i := range testWorld.NumTargets(false) {
		tg := testWorld.TargetAt(false, i)
		if tg.Kind != PartialAnycast || !tg.Responsive[packet.ICMP] {
			continue
		}
		found = true
		// The representative address behaves unicast.
		if _, site, ok := testWorld.ProbeUnicast(vpA, tg, packet.ICMP, at, 0); !ok || site != -1 {
			t.Fatalf("partial-anycast representative should answer as unicast (site=%d ok=%v)", site, ok)
		}
		// The hidden anycast addresses answer from (possibly different)
		// sites.
		off := tg.PartialAddrs[0]
		_, siteA, okA := testWorld.ProbeUnicastAddr(vpA, tg, off, packet.ICMP, at, 0)
		_, siteB, okB := testWorld.ProbeUnicastAddr(vpB, tg, off, packet.ICMP, at, 0)
		if !okA || !okB || siteA < 0 || siteB < 0 {
			t.Fatalf("hidden anycast address did not answer from a site (%d,%d)", siteA, siteB)
		}
	}
	if !found {
		t.Skip("no partial anycast in test world")
	}
}

func TestChaosRecords(t *testing.T) {
	perSite, perServer, replicated := 0, 0, 0
	for i := range testWorld.NumTargets(false) {
		tg := testWorld.TargetAt(false, i)
		if !tg.Responsive[packet.DNS] {
			if _, ok := testWorld.ChaosRecord(tg, 0, 1); ok {
				t.Fatal("non-DNS target answered CHAOS")
			}
			continue
		}
		rec, ok := testWorld.ChaosRecord(tg, 0, 1)
		if !ok {
			continue
		}
		switch tg.Chaos {
		case ChaosPerSite:
			perSite++
			if len(tg.Sites) > 1 {
				rec2, _ := testWorld.ChaosRecord(tg, 1, 1)
				if rec == rec2 {
					t.Fatalf("per-site CHAOS records identical across sites: %q", rec)
				}
			}
		case ChaosPerServer:
			perServer++
		case ChaosReplicated:
			replicated++
			if rec != "ns1" {
				t.Fatalf("replicated CHAOS record = %q", rec)
			}
		}
	}
	if perSite == 0 || perServer == 0 || replicated == 0 {
		t.Fatalf("CHAOS behaviour mix missing a class: perSite=%d perServer=%d replicated=%d", perSite, perServer, replicated)
	}
}

func TestV6HitlistGrowth(t *testing.T) {
	late := 0
	for i := range testWorld.NumTargets(true) {
		if testWorld.TargetAt(true, i).HitlistFromDay > 0 {
			late++
		}
	}
	if late == 0 {
		t.Fatal("no late-arriving IPv6 targets; quarterly hitlist growth missing")
	}
	if late > testWorld.NumTargets(true)/2 {
		t.Fatalf("%d of %d v6 targets arrive late — too many", late, testWorld.NumTargets(true))
	}
}

func TestEventASWindows(t *testing.T) {
	a, ok := testWorld.ASByNumber(4837)
	if !ok {
		t.Fatal("China Unicom event AS missing")
	}
	if !a.WobblyAt(20) {
		t.Error("event AS should be unstable during its window")
	}
	if a.WobblyAt(200) {
		t.Error("event AS should be stable outside its window")
	}
	// Astound: v6 targets become anycast mid-census.
	cnt := 0
	for i := range testWorld.NumTargets(true) {
		tg := testWorld.TargetAt(true, i)
		if tg.Origin == 46690 && tg.Kind == Anycast {
			cnt++
			if tg.IsAnycastAt(100) {
				t.Fatal("Astound target anycast before born day")
			}
			if !tg.IsAnycastAt(500) {
				t.Fatal("Astound target not anycast after born day")
			}
		}
	}
	if cnt == 0 {
		t.Fatal("no Astound anycast-born targets")
	}
}

func TestDayHelpers(t *testing.T) {
	if want := time.Date(2024, 3, 21, 0, 0, 0, 0, time.UTC); !CensusEpoch.Equal(want) {
		t.Fatalf("census epoch = %v, want %v", CensusEpoch, want)
	}
	if DayOf(CensusEpoch) != 0 {
		t.Fatal("census epoch should be day 0")
	}
	if DayOf(DayTime(17).Add(23*time.Hour)) != 17 {
		t.Fatal("DayOf mid-day broken")
	}
	if got := DayTime(534); DayOf(got) != 534 {
		t.Fatal("DayTime/DayOf disagree")
	}
}

func BenchmarkProbeAnycast(b *testing.B) {
	d := tangled(b, testWorld, PolicyUnmodified)
	at := DayTime(3)
	ctx := ProbeCtx{At: at, Flow: FlowKey{Proto: packet.ICMP, VaryingPayload: 9}, Gap: time.Second}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tg := testWorld.TargetAt(false, i%testWorld.NumTargets(false))
		testWorld.ProbeAnycast(d, i%32, tg, ctx)
	}
}

// BenchmarkAnycastTrain is BenchmarkProbeAnycast's counterpart for the
// stage's real entry point: one op is a whole 32-site train.
func BenchmarkAnycastTrain(b *testing.B) {
	d := tangled(b, testWorld, PolicyUnmodified)
	tr := Train{First: DayTime(3), Offset: time.Second, Gap: time.Second,
		Flow: FlowKey{Proto: packet.ICMP, VaryingPayload: 1}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		testWorld.AnycastTrain(d, testWorld.TargetAt(false, i%testWorld.NumTargets(false)), tr)
	}
}

func BenchmarkCatchmentCache(b *testing.B) {
	// Ablation: catchment memoisation. Probing with a cold cache per
	// iteration shows the cost the cache avoids.
	d := tangled(b, testWorld, PolicyUnmodified)
	tg := testWorld.TargetAt(false, 100)
	b.Run("warm", func(b *testing.B) {
		ctx := ProbeCtx{At: DayTime(3), Flow: FlowKey{Proto: packet.ICMP}, Gap: time.Second}
		for i := 0; i < b.N; i++ {
			testWorld.ProbeAnycast(d, i%32, tg, ctx)
		}
	})
	b.Run("cold", func(b *testing.B) {
		ctx := ProbeCtx{At: DayTime(3), Flow: FlowKey{Proto: packet.ICMP}, Gap: time.Second}
		for i := 0; i < b.N; i++ {
			testWorld.cache.resetReply()
			testWorld.ProbeAnycast(d, i%32, tg, ctx)
		}
	})
}

func TestWorldGenerationDefaultScale(t *testing.T) {
	if testing.Short() {
		t.Skip("default-scale generation in -short mode")
	}
	w, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if w.NumTargets(false) != DefaultConfig().V4Targets {
		t.Fatalf("default world v4 targets = %d", w.NumTargets(false))
	}
	anycast := 0
	for i := range w.NumTargets(false) {
		if w.TargetAt(false, i).IsAnycastAt(0) {
			anycast++
		}
	}
	// Paper scale /10: around 1,350 truly anycast /24s expected.
	if anycast < 800 || anycast > 2500 {
		t.Fatalf("default world has %d anycast v4 targets, want ~1350", anycast)
	}
}

func TestReceiverAlwaysInRange(t *testing.T) {
	// Property: whatever the target, worker, time and flow, a delivered
	// reply lands at a valid deployment site.
	d := tangled(t, testWorld, PolicyUnmodified)
	f := func(tgIdx uint16, wk uint8, dayRaw uint16, payload uint64) bool {
		tg := testWorld.TargetAt(false, int(tgIdx)%testWorld.NumTargets(false))
		day := int(dayRaw) % 534
		ctx := ProbeCtx{
			At:   DayTime(day).Add(time.Duration(wk) * time.Second),
			Flow: FlowKey{Proto: packet.ICMP, VaryingPayload: payload},
			Gap:  time.Second,
			Seq:  uint64(tgIdx),
		}
		del, ok := testWorld.ProbeAnycast(d, int(wk)%d.NumSites(), tg, ctx)
		if !ok {
			return true
		}
		if del.WorkerIdx < 0 || del.WorkerIdx >= d.NumSites() {
			return false
		}
		if del.RTT <= 0 {
			return false
		}
		if del.SiteIdx >= len(tg.Sites) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestKindAtNeverPanicsProperty(t *testing.T) {
	f := func(tgIdx uint16, day int16) bool {
		tg := testWorld.TargetAt(false, int(tgIdx)%testWorld.NumTargets(false))
		k := tg.KindAt(int(day))
		return k <= BackingAnycast
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestKindAtLifecycleProperty(t *testing.T) {
	// KindAt must be consistent for every lifecycle configuration: never
	// anycast before birth or after retirement, always anycast inside a
	// temporary window, never anycast outside the windows of a windowed
	// target.
	f := func(born, until uint16, wFrom, wLen uint8, day uint16) bool {
		base := Target{Kind: Anycast, Sites: []Site{{}, {}}}
		d := int(day % 600)

		plain := base
		plain.AnycastBornDay = int(born % 600)
		plain.AnycastUntilDay = int(until % 600)
		k := plain.KindAt(d)
		wantAnycast := d >= plain.AnycastBornDay &&
			(plain.AnycastUntilDay == 0 || d <= plain.AnycastUntilDay)
		if (k == Anycast) != wantAnycast {
			return false
		}
		if (k == Anycast) != plain.IsAnycastAt(d) {
			return false
		}

		windowed := base
		from := int(wFrom)
		to := from + int(wLen%60)
		windowed.TempWindows = []DayRange{{From: from, To: to}}
		inWindow := d >= from && d <= to
		return (windowed.KindAt(d) == Anycast) == inWindow
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestLifecycleDynamicsPopulated(t *testing.T) {
	// The generator must produce all three lifecycle classes (§7): born,
	// retired and duty-cycled anycast.
	var born, retired, windowed int
	for i := range testWorld.NumTargets(false) {
		tg := testWorld.TargetAt(false, i)
		if tg.Kind != Anycast {
			continue
		}
		switch {
		case tg.AnycastBornDay > 0:
			born++
		case tg.AnycastUntilDay > 0:
			retired++
		case len(tg.TempWindows) > 0:
			windowed++
		}
	}
	if born == 0 || retired == 0 || windowed == 0 {
		t.Fatalf("lifecycle classes missing: born=%d retired=%d windowed=%d", born, retired, windowed)
	}
}

func TestTransientDisturbanceRotates(t *testing.T) {
	// The per-day disturbance must hit a different, small subset of
	// targets each day — the rotating FP pool behind Fig 10.
	dayA := make(map[int]bool)
	dayB := make(map[int]bool)
	for i := range testWorld.NumTargets(false) {
		tg := testWorld.TargetAt(false, i)
		if testWorld.transientDisturbed(tg, 50) {
			dayA[tg.ID] = true
		}
		if testWorld.transientDisturbed(tg, 51) {
			dayB[tg.ID] = true
		}
	}
	n := testWorld.NumTargets(false)
	frac := testWorld.Cfg.TransientDisturbFrac
	if len(dayA) == 0 || float64(len(dayA)) > 3*frac*float64(n) {
		t.Fatalf("day-50 disturbance set size %d implausible for frac %.4f of %d", len(dayA), frac, n)
	}
	overlap := 0
	for id := range dayA {
		if dayB[id] {
			overlap++
		}
	}
	// Independent draws: expected overlap ≈ frac² n ≈ 0; tolerate a few.
	if overlap > len(dayA)/4 {
		t.Fatalf("disturbance sets overlap %d of %d — the pool is not rotating", overlap, len(dayA))
	}
}

func TestGCDLossIsPerDay(t *testing.T) {
	// Loss must be deterministic within a day and re-drawn across days.
	vp, err := testWorld.NewVP("loss-vp", "Madrid", 0)
	if err != nil {
		t.Fatal(err)
	}
	var lostOnce, lostAlways int
	for i := 0; i < 2000 && i < testWorld.NumTargets(false); i++ {
		tg := testWorld.TargetAt(false, i)
		if !tg.Responsive[packet.ICMP] {
			continue
		}
		_, _, okA1 := testWorld.ProbeUnicast(vp, tg, packet.ICMP, DayTime(200), 0)
		_, _, okA2 := testWorld.ProbeUnicast(vp, tg, packet.ICMP, DayTime(200), 1)
		if okA1 != okA2 {
			t.Fatalf("target %d: loss differs between attempts within one day", tg.ID)
		}
		_, _, okB := testWorld.ProbeUnicast(vp, tg, packet.ICMP, DayTime(201), 0)
		if !okA1 {
			lostOnce++
			if !okB {
				lostAlways++
			}
		}
	}
	if lostOnce == 0 {
		t.Fatal("no loss observed at the configured GCDLossFrac")
	}
	if lostAlways == lostOnce {
		t.Fatal("every day-200 loss repeated on day 201 — loss is not per-day")
	}
}
