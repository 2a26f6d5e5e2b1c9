package cities

import (
	"math"
	"math/rand"
	"testing"

	"github.com/laces-project/laces/internal/geo"
)

// The linear haversine scans the lookups replaced, kept as their oracle.

func highestPopulationInScan(db *DB, d geo.Disc) (City, bool) {
	best := -1
	for i, c := range db.cities {
		if !d.Contains(c.Location) {
			continue
		}
		if best == -1 || c.Population > db.cities[best].Population {
			best = i
		}
	}
	if best == -1 {
		return City{}, false
	}
	return db.cities[best], true
}

func nearestScan(db *DB, p geo.Coordinate) (City, float64, bool) {
	best, bestD := -1, 0.0
	for i, c := range db.cities {
		d := c.Location.DistanceKm(p)
		if best == -1 || d < bestD {
			best, bestD = i, d
		}
	}
	if best == -1 {
		return City{}, 0, false
	}
	return db.cities[best], bestD, true
}

func withinKmScan(db *DB, p geo.Coordinate, radius float64) map[string]bool {
	out := map[string]bool{}
	for _, c := range db.cities {
		if c.Location.DistanceKm(p) <= radius {
			out[c.Name] = true
		}
	}
	return out
}

// tiedDB is a database built to make population ties and shared locations
// the rule: 300 cities on a coarse grid, five population values.
func tiedDB(rng *rand.Rand) *DB {
	cs := make([]City, 300)
	for i := range cs {
		cs[i] = City{
			Name:       "c" + string(rune('A'+i%26)) + string(rune('a'+i/26)),
			Location:   geo.Coordinate{Lat: float64(rng.Intn(17)-8) * 10, Lon: float64(rng.Intn(35)-17) * 10},
			Population: 1_000_000 * (1 + rng.Intn(5)),
		}
	}
	return NewDB(cs)
}

// TestLookupsMatchLinearScan holds HighestPopulationIn, Nearest and
// WithinKm to the scans they replaced: random discs from metres to the
// whole Earth, centred on cities, near them and anywhere, over the shipped
// database and one full of equal populations.
func TestLookupsMatchLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(236))
	trials := 6_000
	if testing.Short() {
		trials = 1_000
	}
	for name, db := range map[string]*DB{"default": Default(), "tied": tiedDB(rng)} {
		empty, tiedWins := 0, 0
		for i := 0; i < trials; i++ {
			var p geo.Coordinate
			switch c := db.cities[rng.Intn(db.Len())].Location; rng.Intn(3) {
			case 0:
				p = c
			case 1:
				p = geo.Coordinate{Lat: math.Max(-90, math.Min(90, c.Lat+rng.NormFloat64())), Lon: math.Max(-180, math.Min(180, c.Lon+rng.NormFloat64()))}
			default:
				p = geo.Coordinate{Lat: math.Asin(2*rng.Float64()-1) * 180 / math.Pi, Lon: 360*rng.Float64() - 180}
			}
			d := geo.Disc{Center: p, RadiusKm: math.Pow(10, -3+7.5*rng.Float64())}
			if rng.Intn(8) == 0 { // a rim through some city, exactly
				d.RadiusKm = p.DistanceKm(db.cities[rng.Intn(db.Len())].Location)
			}

			got, ok := db.HighestPopulationIn(d)
			want, wantOK := highestPopulationInScan(db, d)
			if ok != wantOK || got != want {
				t.Fatalf("%s: HighestPopulationIn(%+v) = %v, %v; the linear scan says %v, %v", name, d, got, ok, want, wantOK)
			}
			if !ok {
				empty++
			} else {
				for _, c := range db.cities {
					if c != got && c.Population == got.Population && d.Contains(c.Location) {
						tiedWins++
						break
					}
				}
			}

			gotN, gotD, _ := db.Nearest(p)
			wantN, wantD, _ := nearestScan(db, p)
			if gotN != wantN || gotD != wantD {
				t.Fatalf("%s: Nearest(%v) = %v at %v; the linear scan says %v at %v", name, p, gotN, gotD, wantN, wantD)
			}

			if i%16 == 0 {
				within := db.WithinKm(p, d.RadiusKm)
				wantSet := withinKmScan(db, p, d.RadiusKm)
				if len(within) != len(wantSet) {
					t.Fatalf("%s: WithinKm(%v, %v) has %d cities, the linear scan %d", name, p, d.RadiusKm, len(within), len(wantSet))
				}
				for _, c := range within {
					if !wantSet[c.Name] {
						t.Fatalf("%s: WithinKm(%v, %v) holds %v, the linear scan does not", name, p, d.RadiusKm, c)
					}
				}
			}
		}
		if empty == 0 || tiedWins == 0 {
			t.Errorf("%s: %d empty discs and %d winners with an equal-population rival inside: the trials do not cover both", name, empty, tiedWins)
		}
	}
}

// Phoenix and Boston carry the same population in the shipped table; the
// scan kept the first in list order and the population order must too.
func TestEqualPopulationKeepsListOrder(t *testing.T) {
	db := Default()
	phoenix, _ := db.ByName("Phoenix")
	boston, _ := db.ByName("Boston")
	if phoenix.Population != boston.Population {
		t.Skip("the shipped table no longer has the Phoenix/Boston tie")
	}
	mid := geo.Midpoint(phoenix.Location, boston.Location)
	d := geo.Disc{Center: mid, RadiusKm: mid.DistanceKm(phoenix.Location) + 1}
	// Shrink the contest to the two of them.
	two := NewDB([]City{phoenix, boston})
	if got, _ := two.HighestPopulationIn(d); got.Name != "Phoenix" {
		t.Fatalf("tie went to %s, want the first listed (Phoenix)", got)
	}
	two = NewDB([]City{boston, phoenix})
	if got, _ := two.HighestPopulationIn(d); got.Name != "Boston" {
		t.Fatalf("tie went to %s, want the first listed (Boston)", got)
	}
}

// The city scan runs once per enumerated site of every GCD target: it
// must not allocate, hit or miss.
func TestHighestPopulationInDoesNotAllocate(t *testing.T) {
	db := Default()
	hit := geo.Disc{Center: geo.Coordinate{Lat: 50, Lon: 8}, RadiusKm: 1000}
	miss := geo.Disc{Center: geo.Coordinate{Lat: -40, Lon: -130}, RadiusKm: 500}
	if n := testing.AllocsPerRun(200, func() {
		db.HighestPopulationIn(hit)
		db.HighestPopulationIn(miss)
	}); n != 0 {
		t.Fatalf("HighestPopulationIn allocates %v times per hit+miss, want 0", n)
	}
}

// BenchmarkHighestPopulationInMiss is the scan's worst case, the one an
// index would be for: a disc with no city in it tests every city.
func BenchmarkHighestPopulationInMiss(b *testing.B) {
	db := Default()
	d := geo.Disc{Center: geo.Coordinate{Lat: -40, Lon: -130}, RadiusKm: 500}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok := db.HighestPopulationIn(d); ok {
			b.Fatal("the South Pacific disc holds a city")
		}
	}
}
