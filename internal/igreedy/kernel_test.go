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

// alone reports whether disc m is strictly the smallest and overlaps every
// other disc: the enumeration is then {m} alone, the first pass of
// enumerate dropping every other disc. TestAnalyzeMatchesAlwaysSorting
// counts how often the certificate settles such a sample set.
func (sc *scratch) alone(m int32) bool {
	for i := range sc.discs {
		if int32(i) != m && (sc.r[i] <= sc.r[m] || !sc.overlaps(int32(i), m)) {
			return false
		}
	}
	return true
}

// fanCase is one RTT fan drawn by fanMeasurement: a VP table and its best
// RTTs, and the same measurement as samples.
type fanCase struct {
	vps     []VP
	best    []time.Duration
	samples []Sample
	opts    Options
}

// fanKnobs shape a fanMeasurement; FuzzAnalyzeFan varies them directly.
type fanKnobs struct {
	seed      int64
	vps       uint8  // VPs, 1 + vps
	sites     uint8  // sites, 1 + sites%60
	quantum   uint8  // RTT quantum: 1 ns, 1 ms or 5 ms
	allowance uint16 // processing allowance, µs
	flags     uint8  // 1: repeated VP names; 2: zero, negative and whole-Earth RTTs; 4: a negative allowance
}

func randomKnobs(rng *rand.Rand) fanKnobs {
	k := fanKnobs{seed: rng.Int63(), vps: uint8(rng.Intn(40)), sites: uint8(rng.Intn(4) * rng.Intn(16)), quantum: uint8(rng.Intn(4)), flags: uint8(rng.Intn(8))}
	if rng.Intn(3) == 0 {
		k.vps = uint8(100 + rng.Intn(120))
	}
	if rng.Intn(4) == 0 {
		k.allowance = uint16(rng.Intn(3000))
	}
	return k
}

// fanMeasurement draws a fan the way a census campaign sees one — VPs at
// database cities, answered by the nearest of up to 60 sites at a stretch
// of 1–2 — and leans on what the table path could get wrong: RTTs
// quantised so radii tie, zero and negative RTTs, a processing allowance
// (negative too, which lifts a non-positive RTT to a usable one),
// RTTs whose discs cover the whole Earth, repeated VP names (some at a
// second location), and VPs in the sites' metros, so enumerations of
// dozens of sites walk the pick cells.
func fanMeasurement(k fanKnobs) fanCase {
	rng := rand.New(rand.NewSource(k.seed))
	all := cities.Default().All()
	sites := make([]geo.Coordinate, 1+int(k.sites)%60)
	for i := range sites {
		sites[i] = all[rng.Intn(len(all))].Location
	}
	quantum := []time.Duration{1, 1, time.Millisecond, 5 * time.Millisecond}[k.quantum%4]
	fc := fanCase{opts: Options{ProcessingAllowance: time.Duration(k.allowance) * time.Microsecond}}
	if k.flags&4 != 0 {
		fc.opts.ProcessingAllowance = -fc.opts.ProcessingAllowance
	}
	for i := 0; i <= int(k.vps); i++ {
		loc := all[rng.Intn(len(all))].Location
		if rng.Intn(3) == 0 {
			loc = sites[rng.Intn(len(sites))] // a VP in a site's metro: a small disc, a likely pick
		}
		name := fmt.Sprintf("vp-%03d", i)
		if k.flags&1 != 0 && i > 0 && rng.Intn(5) == 0 {
			j := rng.Intn(i)
			name = fc.vps[j].Name
			if rng.Intn(2) == 0 {
				loc = fc.vps[j].Loc
			}
		}
		near := loc.DistanceKm(sites[0])
		for _, s := range sites[1:] {
			near = min(near, loc.DistanceKm(s))
		}
		rtt := rttFor(near, 1+rng.Float64()) / quantum * quantum
		if k.flags&2 != 0 {
			switch rng.Intn(10) {
			case 0:
				rtt = 0
			case 1:
				rtt = -rtt
			case 2:
				rtt = time.Duration(210+rng.Intn(400)) * time.Millisecond // a disc over the whole Earth
			}
		}
		fc.vps = append(fc.vps, VP{Name: name, Loc: loc})
		fc.best = append(fc.best, rtt)
		fc.samples = append(fc.samples, Sample{VP: name, Loc: loc, RTT: rtt})
	}
	return fc
}

// checkFan holds the table path to the []Sample path and both to the
// haversine reference, field for field, for Analyze and Detect.
func checkFan(t *testing.T, fc fanCase) {
	t.Helper()
	table := NewVPTable(fc.vps)
	want := refAnalyze(fc.samples, fc.opts)
	if got := table.Analyze(fc.best, fc.opts); !reflect.DeepEqual(got, want) {
		t.Fatalf("VPTable.Analyze = %+v\nreference = %+v\nfan %+v", got, want, fc)
	}
	if got := Analyze(fc.samples, fc.opts); !reflect.DeepEqual(got, want) {
		t.Fatalf("Analyze = %+v\nreference = %+v\nfan %+v", got, want, fc)
	}
	wantAny, _, _ := refDetect(refBuildDiscs(fc.samples, fc.opts))
	if got := table.Detect(fc.best, fc.opts); got != wantAny {
		t.Fatalf("VPTable.Detect = %v, reference %v\nfan %+v", got, wantAny, fc)
	}
	if got := Detect(fc.samples, fc.opts); got != wantAny {
		t.Fatalf("Detect = %v, reference %v\nfan %+v", got, wantAny, fc)
	}
}

// TestAnalyzeFanMatchesReference runs fanMeasurement's fans through the
// pooled scratch back to back and requires that they cover what they
// claim to: tied radii, many-site enumerations, witness rebuilds.
func TestAnalyzeFanMatchesReference(t *testing.T) {
	trials := 3000
	if testing.Short() {
		trials = 500
	}
	rng := rand.New(rand.NewSource(31))
	var manySites, anycast int
	for i := 0; i < trials; i++ {
		fc := fanMeasurement(randomKnobs(rng))
		checkFan(t, fc)
		res := refAnalyze(fc.samples, fc.opts)
		if len(res.Sites) > 2*gridMinPicks {
			manySites++
		}
		if res.Anycast {
			anycast++
		}
	}
	if manySites < trials/50 || anycast < trials/10 || anycast > trials*9/10 {
		t.Errorf("of %d fans %d enumerate more than %d sites and %d are anycast: the fans do not cover the pick cells or both outcomes", trials, manySites, 2*gridMinPicks, anycast)
	}
}

// FuzzAnalyzeFan is TestAnalyzeFanMatchesReference over arbitrary knobs.
func FuzzAnalyzeFan(f *testing.F) {
	rng := rand.New(rand.NewSource(32))
	for i := 0; i < 16; i++ {
		k := randomKnobs(rng)
		f.Add(k.seed, k.vps, k.sites, k.quantum, k.allowance, k.flags)
	}
	f.Fuzz(func(t *testing.T, seed int64, vps, sites, quantum uint8, allowance uint16, flags uint8) {
		checkFan(t, fanMeasurement(fanKnobs{seed, vps, sites, quantum, allowance, flags}))
	})
}
