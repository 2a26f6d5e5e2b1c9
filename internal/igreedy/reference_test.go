package igreedy

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"github.com/laces-project/laces/internal/cities"
	"github.com/laces-project/laces/internal/geo"
)

// The analysis as it stood before the geometry was precomputed — haversine
// predicates, a fresh map and slices per call, sort.Slice twice, the linear
// city scan — kept as the oracle the shipped one is held to.

type refDisc struct {
	d  geo.Disc
	vp string
}

func refBuildDiscs(samples []Sample, opts Options) []refDisc {
	best := make(map[string]int, len(samples))
	var out []refDisc
	for _, s := range samples {
		rtt := s.RTT - opts.ProcessingAllowance
		if rtt <= 0 {
			if s.RTT <= 0 {
				continue
			}
			rtt = time.Microsecond
		}
		d := refDisc{d: geo.Disc{Center: s.Loc, RadiusKm: geo.MaxDistanceKm(rtt)}, vp: s.VP}
		if i, seen := best[s.VP]; seen {
			if d.d.RadiusKm < out[i].d.RadiusKm {
				out[i] = d
			}
			continue
		}
		best[s.VP] = len(out)
		out = append(out, d)
	}
	return out
}

func refOrder(discs []refDisc) []int {
	order := make([]int, len(discs))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		return discs[order[a]].d.RadiusKm < discs[order[b]].d.RadiusKm
	})
	return order
}

func refDetect(discs []refDisc) (bool, int, int) {
	if len(discs) < 2 {
		return false, 0, 0
	}
	m := 0
	for i := range discs {
		if discs[i].d.RadiusKm < discs[m].d.RadiusKm {
			m = i
		}
	}
	all := true
	for i := range discs {
		if !discs[i].d.Contains(discs[m].d.Center) {
			all = false
			break
		}
	}
	if all {
		return false, 0, 0
	}
	order := refOrder(discs)
	for a := 0; a < len(order); a++ {
		for b := a + 1; b < len(order); b++ {
			if !discs[order[a]].d.Overlaps(discs[order[b]].d) {
				return true, order[a], order[b]
			}
		}
	}
	return false, 0, 0
}

func refHighestPopulationIn(db *cities.DB, d geo.Disc) (cities.City, bool) {
	var best cities.City
	found := false
	for _, c := range db.All() {
		if d.Contains(c.Location) && (!found || c.Population > best.Population) {
			best, found = c, true
		}
	}
	return best, found
}

func refNearest(db *cities.DB, p geo.Coordinate) (cities.City, bool) {
	var best cities.City
	bestD, found := 0.0, false
	for _, c := range db.All() {
		if d := c.Location.DistanceKm(p); !found || d < bestD {
			best, bestD, found = c, d, true
		}
	}
	return best, found
}

func refAnalyze(samples []Sample, opts Options) Result {
	discs := refBuildDiscs(samples, opts)
	res := Result{Samples: len(discs)}
	if len(discs) == 0 {
		return res
	}
	anycast, vi, vj := refDetect(discs)
	res.Anycast = anycast
	order := refOrder(discs)
	grow := func(picked []int, skip1, skip2 int) []int {
		for _, i := range order {
			if i == skip1 || i == skip2 {
				continue
			}
			ok := true
			for _, p := range picked {
				if discs[i].d.Overlaps(discs[p].d) {
					ok = false
					break
				}
			}
			if ok {
				picked = append(picked, i)
			}
		}
		return picked
	}
	picked := grow(nil, -1, -1)
	if anycast && len(picked) < 2 {
		picked = grow([]int{vi, vj}, vi, vj)
	}
	db := opts.db()
	for _, i := range picked {
		s := Site{VP: discs[i].vp, Disc: discs[i].d}
		if c, ok := refHighestPopulationIn(db, discs[i].d); ok {
			s.City, s.CityOK = c, true
		} else if c, ok := refNearest(db, discs[i].d.Center); ok {
			s.City, s.CityOK = c, false
		}
		res.Sites = append(res.Sites, s)
	}
	return res
}

// randomMeasurement draws a sample set that leans on everything the
// scratch reuse could get wrong: a VP pool that changes from call to call,
// repeated VP names (some reporting a second location), RTTs quantised so
// equal radii are common, unusable samples, and a mix of unicast, anycast
// and arbitrary RTTs.
func randomMeasurement(rng *rand.Rand) ([]Sample, Options) {
	all := cities.Default().All()
	n := 1 + rng.Intn(40)
	if rng.Intn(6) == 0 {
		n = 150 + rng.Intn(60)
	}
	sites := make([]geo.Coordinate, 1+rng.Intn(12)*rng.Intn(2))
	for i := range sites {
		sites[i] = all[rng.Intn(len(all))].Location
	}
	quantum := time.Duration(1)
	if rng.Intn(2) == 0 {
		quantum = 5 * time.Millisecond
	}
	mode := rng.Intn(3)
	samples := make([]Sample, 0, n+8)
	for i := 0; i < n; i++ {
		vp := rng.Intn(250)
		loc := all[(vp*7)%len(all)].Location
		if rng.Intn(40) == 0 {
			loc = all[rng.Intn(len(all))].Location // the same VP, seen elsewhere
		}
		var rtt time.Duration
		switch mode {
		case 0: // nearest site, plausible stretch
			near := loc.DistanceKm(sites[0])
			for _, s := range sites[1:] {
				near = min(near, loc.DistanceKm(s))
			}
			rtt = rttFor(near, 1+rng.Float64())
		case 1: // arbitrary
			rtt = time.Duration(rng.Int63n(int64(300 * time.Millisecond)))
		default: // tiny discs: no city inside, the Nearest fallback
			rtt = time.Duration(1 + rng.Int63n(int64(200*time.Microsecond)))
		}
		rtt = rtt / quantum * quantum
		if rng.Intn(25) == 0 {
			rtt = -rtt
		}
		samples = append(samples, Sample{VP: fmt.Sprintf("vp-%03d", vp), Loc: loc, RTT: rtt})
	}
	var opts Options
	if rng.Intn(4) == 0 {
		opts.ProcessingAllowance = time.Duration(rng.Int63n(int64(3 * time.Millisecond)))
	}
	return samples, opts
}

// TestMatchesReferenceAnalysis runs thousands of measurements back to back
// through the pooled scratch and requires every Result, field for field,
// and every Detect verdict to be the reference's.
func TestMatchesReferenceAnalysis(t *testing.T) {
	trials := 4000
	if testing.Short() {
		trials = 500
	}
	rng := rand.New(rand.NewSource(3120))
	anycast, multi := 0, 0
	for i := 0; i < trials; i++ {
		samples, opts := randomMeasurement(rng)
		want := refAnalyze(samples, opts)
		if got := Analyze(samples, opts); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: Analyze = %+v\nreference = %+v\nsamples %+v opts %+v", i, got, want, samples, opts)
		}
		wantAny, _, _ := refDetect(refBuildDiscs(samples, opts))
		if got := Detect(samples, opts); got != wantAny {
			t.Fatalf("trial %d: Detect = %v, reference %v\nsamples %+v opts %+v", i, got, wantAny, samples, opts)
		}
		if got := DetectNaive(samples, opts); got != wantAny {
			t.Fatalf("trial %d: DetectNaive = %v, reference %v", i, got, wantAny)
		}
		if want.Anycast {
			anycast++
		}
		if len(want.Sites) > 3 {
			multi++
		}
	}
	if anycast < trials/10 || anycast > trials*9/10 || multi == 0 {
		t.Errorf("%d of %d trials anycast, %d with more than three sites: the trials do not cover both outcomes", anycast, trials, multi)
	}
}

// The enumeration walks discs in the order the sort leaves them, equal
// radii included, so the sort must be the one the goldens were cut with.
func TestSortByRadiusMatchesSortSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(184))
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.Intn(400)
		distinct := 1 + rng.Intn(n)
		sc := &scratch{}
		ref := make([]refDisc, n)
		for i := 0; i < n; i++ {
			r := float64(rng.Intn(distinct))
			sc.discs = append(sc.discs, vpDisc{Cap: geo.Cap{Disc: geo.Disc{RadiusKm: r}}})
			ref[i].d.RadiusKm = r
		}
		sc.sortByRadius()
		want := refOrder(ref)
		if !slices.EqualFunc(sc.order, want, func(a int32, b int) bool { return int(a) == b }) {
			t.Fatalf("n=%d with %d distinct radii: order %v, sort.Slice gives %v", n, distinct, sc.order, want)
		}
	}
}

// Scratch is per goroutine at any instant (sync.Pool); results must not
// depend on which scratch a call draws or what it analysed before.
func TestConcurrentAnalyzeMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	type job struct {
		samples []Sample
		opts    Options
		want    Result
	}
	jobs := make([]job, 300)
	for i := range jobs {
		s, o := randomMeasurement(rng)
		jobs[i] = job{s, o, Analyze(s, o)}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range jobs {
				j := jobs[(i*7+g*13)%len(jobs)]
				if got := Analyze(j.samples, j.opts); !reflect.DeepEqual(got, j.want) {
					t.Errorf("goroutine %d: result differs from the sequential one", g)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// Analyze runs once per GCD target per protocol: what it allocates per
// call is what the census allocates per target. The Result's site list is
// the one allocation it may make, on the []Sample path and on the fan
// path the census takes.
func TestAnalyzeAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool sheds its contents under the race detector")
	}
	for _, tc := range []struct {
		name  string
		sites []string
	}{
		{"unicast", []string{"Warsaw"}},
		{"anycast32", cities.VultrMetros()},
	} {
		samples := arkSamples(t, tc.sites)
		Analyze(samples, Options{}) // the pool's scratch grows to size once
		if n := testing.AllocsPerRun(100, func() { Analyze(samples, Options{}) }); n > 1 {
			t.Errorf("%s: Analyze of %d samples allocates %v times per call, want at most 1", tc.name, len(samples), n)
		}
		if n := testing.AllocsPerRun(100, func() { Detect(samples, Options{}) }); n > 0 {
			t.Errorf("%s: Detect of %d samples allocates %v times per call, want 0", tc.name, len(samples), n)
		}

		// The census's path: the campaign's table and one fan's RTTs.
		vps, best := make([]VP, len(samples)), make([]time.Duration, len(samples))
		for i, s := range samples {
			vps[i], best[i] = VP{Name: s.VP, Loc: s.Loc}, s.RTT
		}
		table := NewVPTable(vps)
		table.Analyze(best, Options{})
		if n := testing.AllocsPerRun(100, func() { table.Analyze(best, Options{}) }); n > 1 {
			t.Errorf("%s: VPTable.Analyze of a %d-VP fan allocates %v times per call, want at most 1", tc.name, len(best), n)
		}
		if n := testing.AllocsPerRun(100, func() { table.Detect(best, Options{}) }); n > 0 {
			t.Errorf("%s: VPTable.Detect of a %d-VP fan allocates %v times per call, want 0", tc.name, len(best), n)
		}
	}
}

// A measurement with more vantage points than the scratch remembers makes
// it start its VP memory over; the calls around that must not notice.
func TestVPMemoryStartsOver(t *testing.T) {
	all := cities.Default().All()
	warsaw := cityLoc(t, "Warsaw")
	big := []Sample{{VP: "vp-warsaw", Loc: warsaw, RTT: rttFor(0, 1)}}
	for i := 0; len(big) <= maxRememberedVPs+100; i++ {
		loc := all[i%len(all)].Location
		big = append(big, Sample{VP: fmt.Sprintf("vp-%05d", i), Loc: loc, RTT: rttFor(loc.DistanceKm(warsaw), 1.3)})
	}
	rng := rand.New(rand.NewSource(5))
	for round := 0; round < 3; round++ {
		if got, want := Analyze(big, Options{}), refAnalyze(big, Options{}); !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: the %d-VP measurement differs from the reference", round, len(big))
		}
		for i := 0; i < 20; i++ {
			samples, opts := randomMeasurement(rng)
			if got, want := Analyze(samples, opts), refAnalyze(samples, opts); !reflect.DeepEqual(got, want) {
				t.Fatalf("round %d: measurement %d after the big one differs from the reference", round, i)
			}
		}
	}
}
