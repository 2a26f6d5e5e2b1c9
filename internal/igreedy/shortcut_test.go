package igreedy

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"github.com/laces-project/laces/internal/cities"
	"github.com/laces-project/laces/internal/geo"
)

// analyzeSorting is Analyze without the alone shortcut: the enumeration is
// always sorted and walked.
func analyzeSorting(samples []Sample, opts Options) Result {
	sc := &scratch{vps: make(map[string]*vpEntry)}
	sc.build(samples, opts)
	res := Result{Samples: len(sc.discs)}
	if len(sc.discs) == 0 {
		return res
	}
	anycast, vi, vj := sc.detect()
	res.Anycast = anycast
	if len(sc.order) == 0 {
		sc.sortByRadius()
	}
	sc.pickDisjoint(-1, -1)
	if anycast && len(sc.picked) < 2 {
		sc.picked = append(sc.picked[:0], vi, vj)
		sc.pickDisjoint(vi, vj)
	}
	res.Sites = sc.sites(opts)
	return res
}

// Shapes of certificateMeasurement.
const (
	plainShape       = iota // one responder, VPs at a plausible stretch around it
	tiedMinimaShape         // the smallest RTT repeated at a second VP
	nearTangentShape        // a tiny smallest disc on another disc's rim
	numShapes
)

// certificateMeasurement draws a sample set that the common-point
// certificate usually settles: one responder, mostly with a VP in its
// city, and VPs around it at a stretch of 1–2, RTTs sometimes quantised so
// radii tie. The tied-minima shape adds a second VP in the smallest
// disc's city with the same RTT, as when a metro hosts two monitors; the
// near-tangent shape puts
// a VP on the responder with a sub-microsecond RTT — a disc of at most
// 0.1 km — and gives another VP the RTT whose disc's rim passes through
// it, so containment and overlap are decided inside the predicates' guard
// band.
func certificateMeasurement(rng *rand.Rand, shape int) []Sample {
	all := cities.Default().All()
	at := all[rng.Intn(len(all))].Location
	n := 2 + rng.Intn(60)
	if rng.Intn(5) == 0 {
		n = 150 + rng.Intn(40)
	}
	quantum := time.Duration(1)
	if rng.Intn(3) == 0 {
		quantum = 2 * time.Millisecond
	}
	samples := make([]Sample, n)
	m := 0
	for i := range samples {
		loc := all[rng.Intn(len(all))].Location
		if i == 0 && rng.Intn(4) != 0 {
			loc = at // a VP in the responder's city, whose disc every other disc contains the centre of
		}
		samples[i] = Sample{VP: fmt.Sprintf("vp-%03d", i), Loc: loc, RTT: rttFor(loc.DistanceKm(at), 1+rng.Float64()) / quantum * quantum}
		if samples[i].RTT < samples[m].RTT {
			m = i
		}
	}
	j := (m + 1 + rng.Intn(n-1)) % n // some other VP
	switch shape {
	case tiedMinimaShape:
		samples[j].Loc, samples[j].RTT = samples[m].Loc, samples[m].RTT
	case nearTangentShape:
		samples[m].Loc, samples[m].RTT = at, time.Duration(1+rng.Intn(1000))
		rim := 2 * samples[j].Loc.DistanceKm(at) / geo.FibreSpeedKmPerSec
		samples[j].RTT = time.Duration(rim*float64(time.Second)) + time.Duration(rng.Intn(3)-1)
	}
	return samples
}

// TestAnalyzeMatchesAlwaysSorting is the shortcut's contract: on sample
// sets the certificate settles — tied minima and near-tangent pairs
// included — and on the reference test's arbitrary ones, Analyze returns
// what sorting and walking every disc returns.
func TestAnalyzeMatchesAlwaysSorting(t *testing.T) {
	trials := 6000
	if testing.Short() {
		trials = 1000
	}
	rng := rand.New(rand.NewSource(26))
	var alone, tied, tangent int
	for i := 0; i < trials; i++ {
		var samples []Sample
		var opts Options
		if shape := i % (numShapes + 1); shape < numShapes {
			samples = certificateMeasurement(rng, shape)
		} else {
			samples, opts = randomMeasurement(rng)
		}
		want := analyzeSorting(samples, opts)
		if got := Analyze(samples, opts); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: Analyze = %+v\nalways sorting = %+v\nsamples %+v opts %+v", i, got, want, samples, opts)
		}

		sc := &scratch{vps: make(map[string]*vpEntry)}
		sc.build(samples, opts)
		if _, m, _ := sc.detect(); len(sc.discs) > 1 && len(sc.order) == 0 {
			switch {
			case sc.alone(m):
				alone++
			case i%(numShapes+1) == tiedMinimaShape:
				tied++
			}
			if i%(numShapes+1) == nearTangentShape {
				tangent++
			}
		}
	}
	if alone < trials/4 || tied < trials/50 || tangent < trials/50 {
		t.Errorf("of %d trials the certificate settled %d with a unique smallest disc, %d with tied minima and %d near-tangent: the trials do not cover the shortcut's cases", trials, alone, tied, tangent)
	}
}
