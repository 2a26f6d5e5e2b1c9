package igreedy

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"github.com/laces-project/laces/internal/cities"
	"github.com/laces-project/laces/internal/geo"
)

// rttFor fabricates a plausible RTT for a VP observing a responder at the
// given distance: fibre propagation with path stretch plus processing.
func rttFor(distKm, stretch float64) time.Duration {
	ms := 2*distKm*stretch/200.0 + 0.5
	return time.Duration(ms * float64(time.Millisecond))
}

// cityLoc looks up a city location by name.
func cityLoc(t testing.TB, name string) geo.Coordinate {
	t.Helper()
	c, ok := cities.Default().ByName(name)
	if !ok {
		t.Fatalf("city %q missing", name)
	}
	return c.Location
}

// unicastSamples builds samples for a single responder at `at` observed
// from the named VP cities.
func unicastSamples(t testing.TB, at geo.Coordinate, vps []string) []Sample {
	var out []Sample
	for i, name := range vps {
		loc := cityLoc(t, name)
		stretch := 1.2 + 0.05*float64(i%5)
		out = append(out, Sample{VP: name, Loc: loc, RTT: rttFor(loc.DistanceKm(at), stretch)})
	}
	return out
}

var vpCities = []string{
	"Amsterdam", "New York", "Tokyo", "Sydney", "Sao Paulo", "Johannesburg",
	"Frankfurt", "Singapore", "Los Angeles", "Mumbai", "Stockholm", "Santiago",
}

func TestUnicastNotDetected(t *testing.T) {
	// Responder in Warsaw; all VPs ping it with stretch >= 1: no possible
	// violation.
	samples := unicastSamples(t, cityLoc(t, "Warsaw"), vpCities)
	if Detect(samples, Options{}) {
		t.Fatal("unicast target detected as anycast")
	}
	res := Analyze(samples, Options{})
	if res.Anycast {
		t.Fatal("Analyze disagrees with Detect")
	}
	if len(res.Sites) != 1 {
		t.Fatalf("unicast should enumerate exactly 1 site, got %d", len(res.Sites))
	}
}

func TestTwoSiteAnycastDetected(t *testing.T) {
	// Anycast with sites in Amsterdam and Sydney: nearby VPs get small
	// discs around each site — a clear violation.
	ams := cityLoc(t, "Amsterdam")
	syd := cityLoc(t, "Sydney")
	samples := []Sample{
		{VP: "vp-ams", Loc: ams, RTT: rttFor(5, 1.2)}, // hits AMS site
		{VP: "vp-lon", Loc: cityLoc(t, "London"), RTT: rttFor(358, 1.2)},
		{VP: "vp-syd", Loc: syd, RTT: rttFor(10, 1.2)}, // hits SYD site
		{VP: "vp-mel", Loc: cityLoc(t, "Melbourne"), RTT: rttFor(713, 1.25)},
	}
	if !Detect(samples, Options{}) {
		t.Fatal("two-site anycast not detected")
	}
	res := Analyze(samples, Options{})
	if !res.Anycast || len(res.Sites) < 2 {
		t.Fatalf("expected >= 2 sites, got %+v", res)
	}
}

func TestGeolocationPicksAnycastCities(t *testing.T) {
	ams := cityLoc(t, "Amsterdam")
	syd := cityLoc(t, "Sydney")
	samples := []Sample{
		{VP: "vp-ams", Loc: ams, RTT: rttFor(5, 1.2)},
		{VP: "vp-syd", Loc: syd, RTT: rttFor(10, 1.2)},
	}
	res := Analyze(samples, Options{})
	got := map[string]bool{}
	for _, s := range res.Sites {
		if !s.CityOK {
			t.Fatalf("site without city: %+v", s)
		}
		got[s.City.Name] = true
	}
	if !got["Amsterdam"] || !got["Sydney"] {
		t.Fatalf("geolocation = %v, want Amsterdam and Sydney", got)
	}
}

func TestGeolocationHighestPopulation(t *testing.T) {
	// A large disc around Brussels contains Paris and London; iGreedy's
	// rule picks the highest-population city in the area (Paris at 11.1M
	// beats London's 9.6M in our DB).
	samples := []Sample{
		{VP: "vp", Loc: cityLoc(t, "Brussels"), RTT: rttFor(320, 1.0)},
	}
	res := Analyze(samples, Options{})
	if len(res.Sites) != 1 || res.Sites[0].City.Name != "Paris" {
		t.Fatalf("geolocation = %+v, want Paris", res.Sites)
	}
}

func TestNearbySitesMerge(t *testing.T) {
	// Sites in Prague and Vienna (~250 km apart) probed from far away:
	// discs overlap, enumeration merges them into one site — the paper's
	// Prague/Bratislava/Vienna case (§6).
	prg := cityLoc(t, "Prague")
	vie := cityLoc(t, "Vienna")
	samples := []Sample{
		{VP: "vp-waw", Loc: cityLoc(t, "Warsaw"), RTT: rttFor(cityLoc(t, "Warsaw").DistanceKm(prg), 1.3)},
		{VP: "vp-mil", Loc: cityLoc(t, "Milan"), RTT: rttFor(cityLoc(t, "Milan").DistanceKm(vie), 1.3)},
		{VP: "vp-ber", Loc: cityLoc(t, "Berlin"), RTT: rttFor(cityLoc(t, "Berlin").DistanceKm(prg), 1.3)},
	}
	res := Analyze(samples, Options{})
	if res.Anycast {
		t.Fatal("nearby sites should not be separable (GCD FN case)")
	}
	if len(res.Sites) != 1 {
		t.Fatalf("expected merged single site, got %d", len(res.Sites))
	}
}

func TestMinRTTPerVP(t *testing.T) {
	// Two samples from the same VP: only the smaller disc may count.
	ams := cityLoc(t, "Amsterdam")
	samples := []Sample{
		{VP: "vp-ams", Loc: ams, RTT: 80 * time.Millisecond},
		{VP: "vp-ams", Loc: ams, RTT: 10 * time.Millisecond},
	}
	res := Analyze(samples, Options{})
	if res.Samples != 1 {
		t.Fatalf("per-VP coalescing failed: %d discs", res.Samples)
	}
	wantR := geo.MaxDistanceKm(10 * time.Millisecond)
	if r := res.Sites[0].Disc.RadiusKm; r != wantR {
		t.Fatalf("kept radius %f, want min-RTT radius %f", r, wantR)
	}
}

func TestUnusableSamplesDropped(t *testing.T) {
	samples := []Sample{
		{VP: "a", Loc: cityLoc(t, "Tokyo"), RTT: 0},
		{VP: "b", Loc: cityLoc(t, "Tokyo"), RTT: -time.Second},
	}
	res := Analyze(samples, Options{})
	if res.Samples != 0 || len(res.Sites) != 0 || res.Anycast {
		t.Fatalf("unusable samples should yield empty result: %+v", res)
	}
	if Detect(samples, Options{}) {
		t.Fatal("Detect on unusable samples")
	}
}

func TestProcessingAllowanceShrinksDiscs(t *testing.T) {
	// With a processing allowance, two moderately distant sites become
	// separable that raw RTTs cannot separate.
	s := []Sample{
		{VP: "a", Loc: cityLoc(t, "Madrid"), RTT: 8 * time.Millisecond},
		{VP: "b", Loc: cityLoc(t, "Stockholm"), RTT: 8 * time.Millisecond},
	}
	// Raw: radii 800 km each, centres ~2600 km apart: disjoint already.
	// Inflate RTTs so they overlap.
	s[0].RTT, s[1].RTT = 14*time.Millisecond, 14*time.Millisecond
	if Detect(s, Options{}) {
		t.Fatal("precondition: overlapping without allowance")
	}
	if !Detect(s, Options{ProcessingAllowance: 4 * time.Millisecond}) {
		t.Fatal("allowance should shrink discs into disjointness")
	}
}

func TestDetectMatchesNaiveReference(t *testing.T) {
	// Property: the fast detector (common-point certificate + ordered
	// scan) agrees with the brute-force reference on random inputs.
	rng := rand.New(rand.NewSource(42))
	all := cities.Default().All()
	for trial := 0; trial < 2000; trial++ {
		n := 2 + rng.Intn(12)
		samples := make([]Sample, n)
		for i := range samples {
			c := all[rng.Intn(len(all))]
			samples[i] = Sample{
				VP:  c.Name,
				Loc: c.Location,
				RTT: time.Duration(1+rng.Intn(120)) * time.Millisecond,
			}
		}
		if got, want := Detect(samples, Options{}), DetectNaive(samples, Options{}); got != want {
			t.Fatalf("trial %d: fast=%v naive=%v for %+v", trial, got, want, samples)
		}
	}
}

func TestEnumerationInvariants(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		all := cities.Default().All()
		n := 2 + int(nRaw%14)
		samples := make([]Sample, n)
		for i := range samples {
			c := all[rng.Intn(len(all))]
			samples[i] = Sample{VP: c.Name, Loc: c.Location,
				RTT: time.Duration(1+rng.Intn(150)) * time.Millisecond}
		}
		res := Analyze(samples, Options{})
		// 1. Site count bounded by distinct VPs.
		if len(res.Sites) > res.Samples {
			return false
		}
		// 2. Chosen discs pairwise disjoint.
		for a := 0; a < len(res.Sites); a++ {
			for b := a + 1; b < len(res.Sites); b++ {
				if res.Sites[a].Disc.Overlaps(res.Sites[b].Disc) {
					return false
				}
			}
		}
		// 3. Anycast ⇔ at least two sites.
		if res.Anycast != (len(res.Sites) >= 2) {
			return false
		}
		// 4. Geolocated city (when found inside) lies within the disc.
		for _, s := range res.Sites {
			if s.CityOK && !s.Disc.Contains(s.City.Location) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func TestManyVPsEnumerateManySites(t *testing.T) {
	// A CDN with sites in 12 metros observed from VPs in those same
	// metros: enumeration should recover most of them.
	var samples []Sample
	for _, name := range vpCities {
		samples = append(samples, Sample{VP: name, Loc: cityLoc(t, name), RTT: rttFor(15, 1.2)})
	}
	res := Analyze(samples, Options{})
	if !res.Anycast {
		t.Fatal("12-site anycast undetected")
	}
	if len(res.Sites) < 9 {
		t.Fatalf("enumerated %d sites of 12 well-separated ones", len(res.Sites))
	}
}

func BenchmarkDetectUnicast(b *testing.B) {
	samples := unicastSamples(b, cityLoc(b, "Warsaw"), vpCities)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Detect(samples, Options{})
	}
}

// BenchmarkIGreedyOrdering is the MiGreedy ablation: the
// common-point certificate vs the naive pairwise scan, on the dominant
// unicast workload.
func BenchmarkIGreedyOrdering(b *testing.B) {
	big := make([]Sample, 0, 200)
	all := cities.Default().All()
	warsaw := cityLoc(b, "Warsaw")
	for i := 0; i < 200; i++ {
		c := all[(i*7)%len(all)]
		big = append(big, Sample{VP: c.Name, Loc: c.Location,
			RTT: rttFor(c.Location.DistanceKm(warsaw), 1.25)})
	}
	b.Run("certificate", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if Detect(big, Options{}) {
				b.Fatal("unicast misdetected")
			}
		}
	})
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if DetectNaive(big, Options{}) {
				b.Fatal("unicast misdetected")
			}
		}
	})
}

func BenchmarkAnalyzeAnycast(b *testing.B) {
	var samples []Sample
	for _, name := range vpCities {
		samples = append(samples, Sample{VP: name, Loc: cityLoc(b, name), RTT: rttFor(15, 1.2)})
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Analyze(samples, Options{})
	}
}

// arkSamples fabricates an Ark-sized measurement: 184 monitors placed at
// database cities (several share a metro, as on the real platform), each
// answered by the nearest of the given sites with its own path stretch.
func arkSamples(t testing.TB, sites []string) []Sample {
	rng := rand.New(rand.NewSource(184))
	all := cities.Default().All()
	locs := make([]geo.Coordinate, len(sites))
	for i, name := range sites {
		locs[i] = cityLoc(t, name)
	}
	out := make([]Sample, 184)
	for i := range out {
		vp := all[rng.Intn(len(all))].Location
		near := vp.DistanceKm(locs[0])
		for _, l := range locs[1:] {
			near = min(near, vp.DistanceKm(l))
		}
		out[i] = Sample{VP: fmt.Sprintf("ark-v4-%03d", i), Loc: vp, RTT: rttFor(near, 1.1+0.4*rng.Float64())}
	}
	return out
}

// BenchmarkAnalyzeArk is Analyze at the size the daily census runs it: 184
// vantage points against a unicast target and a 32-site anycast one.
func BenchmarkAnalyzeArk(b *testing.B) {
	for _, bc := range []struct {
		name  string
		sites []string
	}{
		{"unicast", []string{"Warsaw"}},
		{"anycast32", cities.VultrMetros()},
	} {
		samples := arkSamples(b, bc.sites)
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Analyze(samples, Options{})
			}
		})
	}
}
