package manycast

import (
	"testing"
	"time"

	"github.com/laces-project/laces/internal/hitlist"
	"github.com/laces-project/laces/internal/netsim"
	"github.com/laces-project/laces/internal/packet"
	"github.com/laces-project/laces/internal/platform"
)

var (
	testWorld = mustWorld()
	testHL    = hitlist.ForDay(testWorld, false, 0)
)

func mustWorld() *netsim.World {
	w, err := netsim.New(netsim.TestConfig())
	if err != nil {
		panic(err)
	}
	return w
}

func tangled(t testing.TB) *netsim.Deployment {
	t.Helper()
	d, err := platform.Tangled(testWorld, netsim.PolicyUnmodified)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func baseOpts() Options {
	return Options{
		Protocol:      packet.ICMP,
		Start:         netsim.DayTime(1),
		Offset:        time.Second,
		MeasurementID: 1,
	}
}

func TestRunBasics(t *testing.T) {
	d := tangled(t)
	res, err := Run(testWorld, d, testHL, baseOpts())
	if err != nil {
		t.Fatal(err)
	}
	icmpEntries := len(testHL.FilterProtocol(packet.ICMP))
	if res.ProbesSent != int64(icmpEntries*32) {
		t.Fatalf("probes sent = %d, want %d", res.ProbesSent, icmpEntries*32)
	}
	if len(res.Observations) == 0 || len(res.Observations) > icmpEntries {
		t.Fatalf("observations = %d of %d entries", len(res.Observations), icmpEntries)
	}
	if res.Workers != 32 {
		t.Fatalf("workers = %d", res.Workers)
	}
	// At the default 10k/s rate and 1s offsets the run is dominated by
	// the hitlist sweep plus the 31s worker tail.
	if res.Duration <= 31*time.Second {
		t.Fatalf("duration %v implausible", res.Duration)
	}
}

func TestCandidatesSupersetOfDetectableAnycast(t *testing.T) {
	d := tangled(t)
	res, err := Run(testWorld, d, testHL, baseOpts())
	if err != nil {
		t.Fatal(err)
	}
	cands := res.CandidateSet()
	truth := testWorld.GroundTruthAnycast(false, 1)

	tp, fn := 0, 0
	for id := range truth {
		if !testWorld.TargetAt(false, id).Responsive[packet.ICMP] {
			continue
		}
		if cands[id] {
			tp++
		} else {
			fn++
		}
	}
	if tp == 0 {
		t.Fatal("no true anycast detected")
	}
	fnr := float64(fn) / float64(tp+fn)
	// The paper measures ~6% FNR for the anycast-based stage (Table 1);
	// accept single-digit to low-teens at test scale.
	if fnr > 0.18 {
		t.Fatalf("anycast-based FNR = %.1f%%, too high", fnr*100)
	}
	// And FPs exist but don't dominate: paper has 58.5% of ACs unconfirmed.
	fp := 0
	for id := range cands {
		if !truth[id] {
			fp++
		}
	}
	if fp == 0 {
		t.Fatal("no false positives at all — tie-split/global-unicast mechanisms dead")
	}
	frac := float64(fp) / float64(len(cands))
	if frac < 0.2 || frac > 0.8 {
		t.Fatalf("unconfirmed share of ACs = %.2f, want ~0.5-0.6", frac)
	}
}

func TestReceiverHistogramDominatedByTwo(t *testing.T) {
	// Table 2/Fig 5: disagreement (FPs) concentrates at 2 receiving VPs.
	d := tangled(t)
	res, err := Run(testWorld, d, testHL, baseOpts())
	if err != nil {
		t.Fatal(err)
	}
	hist := res.ReceiverHistogram()
	truth := testWorld.GroundTruthAnycast(false, 1)
	fpByCount := map[int]int{}
	for _, o := range res.Observations {
		if o.IsCandidate() && !truth[o.TargetID] {
			fpByCount[o.NumReceivers()]++
		}
	}
	for n, c := range fpByCount {
		if n >= 6 && c > fpByCount[2]/4 {
			t.Fatalf("unexpected FP mass at %d receivers: %d (2-receiver FPs: %d)", n, c, fpByCount[2])
		}
	}
	if hist[1] == 0 || hist[2] == 0 {
		t.Fatalf("histogram missing unicast or 2-VP bucket: %v", hist)
	}
}

func TestReducedRateSameCandidates(t *testing.T) {
	// §5.5.2: probing at 1/8th the rate must find the same candidates.
	d := tangled(t)
	full, err := Run(testWorld, d, testHL, baseOpts())
	if err != nil {
		t.Fatal(err)
	}
	slow := baseOpts()
	slow.Rate = DefaultRate / 8
	reduced, err := Run(testWorld, d, testHL, slow)
	if err != nil {
		t.Fatal(err)
	}
	a, b := full.CandidateSet(), reduced.CandidateSet()
	diff := 0
	for id := range a {
		if !b[id] {
			diff++
		}
	}
	for id := range b {
		if !a[id] {
			diff++
		}
	}
	// Identical in the paper's experiment; allow a sliver of churn noise
	// (the slower run spans more route-churn periods).
	if float64(diff) > 0.05*float64(len(a)) {
		t.Fatalf("candidate sets differ by %d of %d at reduced rate", diff, len(a))
	}
	if reduced.Duration <= full.Duration {
		t.Fatal("reduced-rate run should take longer")
	}
}

func TestMissingWorkersReduceCoverage(t *testing.T) {
	// Failure awareness (§4.2.3/§7): with workers down the measurement
	// completes, but candidates whose replies only reached dead sites are
	// lost.
	d := tangled(t)
	full, err := Run(testWorld, d, testHL, baseOpts())
	if err != nil {
		t.Fatal(err)
	}
	opts := baseOpts()
	opts.MissingWorkers = 1<<0 | 1<<5 | 1<<11 | 1<<17 | 1<<23 | 1<<29
	degraded, err := Run(testWorld, d, testHL, opts)
	if err != nil {
		t.Fatal(err)
	}
	if degraded.Workers != 26 {
		t.Fatalf("workers = %d, want 26", degraded.Workers)
	}
	if degraded.ProbesSent >= full.ProbesSent {
		t.Fatal("missing workers should send fewer probes")
	}
	if len(degraded.CandidateSet()) >= len(full.CandidateSet()) {
		t.Fatal("degraded run should find fewer candidates (Fig 9's AC drops)")
	}
	for _, o := range degraded.Observations {
		if o.Receivers&opts.MissingWorkers != 0 {
			t.Fatal("dead worker appears as receiver")
		}
	}
}

func TestStaticProbesOption(t *testing.T) {
	// §5.1.4's control: static probes yield (nearly) identical results.
	d := tangled(t)
	varying, err := Run(testWorld, d, testHL, baseOpts())
	if err != nil {
		t.Fatal(err)
	}
	opts := baseOpts()
	opts.StaticProbes = true
	static, err := Run(testWorld, d, testHL, opts)
	if err != nil {
		t.Fatal(err)
	}
	a, b := varying.CandidateSet(), static.CandidateSet()
	diff := 0
	for id := range a {
		if !b[id] {
			diff++
		}
	}
	for id := range b {
		if !a[id] {
			diff++
		}
	}
	if float64(diff) > 0.01*float64(len(a)+1) {
		t.Fatalf("static vs varying candidate sets differ by %d of %d", diff, len(a))
	}
}

func TestMultiProtocolCoverage(t *testing.T) {
	// Fig 7: ICMP finds the most candidates; TCP and DNS add exclusive
	// ones.
	d := tangled(t)
	results, err := MultiProtocol(testWorld, d, testHL, baseOpts(), packet.Protocols())
	if err != nil {
		t.Fatal(err)
	}
	icmp := results[packet.ICMP].CandidateSet()
	tcp := results[packet.TCP].CandidateSet()
	dns := results[packet.DNS].CandidateSet()
	if !(len(icmp) > len(tcp) && len(tcp) > len(dns)) {
		t.Fatalf("protocol ordering broken: icmp=%d tcp=%d dns=%d", len(icmp), len(tcp), len(dns))
	}
	dnsOnly := 0
	for id := range dns {
		if !icmp[id] && !tcp[id] {
			dnsOnly++
		}
	}
	if dnsOnly == 0 {
		t.Fatal("no DNS-only anycast found (the G-Root/eBay pattern of §5.3.1)")
	}
}

func TestDeploymentTooLarge(t *testing.T) {
	names := make([]string, 0, 65)
	for i := 0; i < 65; i++ {
		names = append(names, "Tokyo")
	}
	d, err := testWorld.NewDeployment("huge", names, netsim.PolicyUnmodified)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(testWorld, d, testHL, baseOpts()); err == nil {
		t.Fatal("65-site deployment must be rejected (64-bit receiver mask)")
	}
}

func BenchmarkRunICMP(b *testing.B) {
	d := tangled(b)
	opts := baseOpts()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run(testWorld, d, testHL, opts); err != nil {
			b.Fatal(err)
		}
	}
}
