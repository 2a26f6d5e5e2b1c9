// Package cities embeds a world-city database used for two purposes:
//
//   - geolocation: iGreedy infers an anycast site's location as the highest
//     populated city inside the intersection area of the measurement discs
//     (§2.1 of the paper);
//   - world building: the network simulator places vantage points, anycast
//     sites and probed hosts at real city locations so that latency and
//     catchment behaviour is geographically plausible.
//
// Populations are metropolitan-area estimates; exact values are irrelevant —
// only the ordering matters for geolocation.
//
// The geolocation lookup is indexed: NewDB precomputes every city's unit
// vector, a population-descending order and a coarse cell index over the
// unit vectors (geo.Cells), so HighestPopulationInCap tests with geo.Cap
// (multiplications only) just the cities of the cells a cap's box covers,
// each cell's cities in population order. Caps too large for the box to
// pay, or not drawn around a valid centre, take the population-order scan,
// which returns at its first hit.
package cities

import (
	"fmt"
	"slices"
	"sort"

	"github.com/laces-project/laces/internal/geo"
)

// Continent identifies one of the six populated continents, matching the
// paper's deployment descriptions ("19 countries on 6 continents").
type Continent uint8

// Continent values.
const (
	NorthAmerica Continent = iota
	SouthAmerica
	Europe
	Africa
	Asia
	Oceania
	numContinents
)

// String returns the two-letter continent code used in tables.
func (c Continent) String() string {
	switch c {
	case NorthAmerica:
		return "NA"
	case SouthAmerica:
		return "SA"
	case Europe:
		return "EU"
	case Africa:
		return "AF"
	case Asia:
		return "AS"
	case Oceania:
		return "OC"
	default:
		return fmt.Sprintf("Continent(%d)", uint8(c))
	}
}

// Continents lists every continent once, in declaration order.
func Continents() []Continent {
	return []Continent{NorthAmerica, SouthAmerica, Europe, Africa, Asia, Oceania}
}

// City is one database entry.
type City struct {
	Name       string
	Country    string // ISO 3166-1 alpha-2
	Continent  Continent
	Location   geo.Coordinate
	Population int
}

// String formats the city as "Name, CC".
func (c City) String() string { return c.Name + ", " + c.Country }

// DB is a queryable set of cities. The zero value is empty; use Default for
// the embedded database.
type DB struct {
	cities []City
	byName map[string]int
	vecs   []geo.Vec // vecs[i] is cities[i].Location.Vec()
	// byPop lists city indices by descending population, equal
	// populations in list order: the first city of it inside a disc is the
	// one a full scan keeping the first strict maximum would return.
	byPop []int32
	// The cell index: cell c holds the byPop ranks cellRank[cellStart[c]:
	// cellStart[c+1]], ascending, of the cities whose unit vector falls in
	// it.
	cellStart []int32
	cellRank  []int32
	// unindexed is set when some city has invalid coordinates and so no
	// cell; every lookup then scans.
	unindexed bool
}

// cityCells is the index's lattice: slabs of 1/6 of the unit sphere's
// radius, about 10° of arc. A census site's disc is mostly under 200 km
// (the median is ≈90 km), so its box is one to eight cells.
var cityCells = geo.NewCells(12)

// maxIndexedAngle is the largest cap, in radians of arc (≈1,300 km), the
// cell index answers for: a wider box covers hundreds of cells, and a cap
// that large holds a populous city early in the population-order scan.
const maxIndexedAngle = 0.2

// NewDB builds a DB from the given cities. Duplicate names keep the first
// entry for name lookup but remain in the list.
func NewDB(cs []City) *DB {
	db := &DB{
		cities: append([]City(nil), cs...),
		byName: make(map[string]int, len(cs)),
		vecs:   make([]geo.Vec, len(cs)),
		byPop:  make([]int32, len(cs)),
	}
	for i, c := range db.cities {
		if _, dup := db.byName[c.Name]; !dup {
			db.byName[c.Name] = i
		}
		db.vecs[i] = c.Location.Vec()
		db.byPop[i] = int32(i)
	}
	sort.SliceStable(db.byPop, func(a, b int) bool {
		return db.cities[db.byPop[a]].Population > db.cities[db.byPop[b]].Population
	})
	db.indexCells()
	return db
}

// indexCells buckets the cities by cell, each bucket in byPop order. A
// city with invalid coordinates has no cell, yet the haversine reference
// may place it inside a cap, so a database holding one is never answered
// from the index.
func (db *DB) indexCells() {
	db.cellStart = make([]int32, cityCells.Len()+1)
	cell := make([]int32, len(db.byPop))
	for rank, i := range db.byPop {
		cell[rank] = -1
		if db.cities[i].Location.IsValid() {
			cell[rank] = int32(cityCells.Of(db.vecs[i]))
			db.cellStart[cell[rank]+1]++
		} else {
			db.unindexed = true
		}
	}
	for c := 1; c < len(db.cellStart); c++ {
		db.cellStart[c] += db.cellStart[c-1]
	}
	db.cellRank = make([]int32, db.cellStart[len(db.cellStart)-1])
	fill := slices.Clone(db.cellStart)
	for rank, c := range cell {
		if c >= 0 {
			db.cellRank[fill[c]] = int32(rank)
			fill[c]++
		}
	}
}

var defaultDB = NewDB(worldCities)

// Default returns the embedded world-city database.
func Default() *DB { return defaultDB }

// Len returns the number of cities in the database.
func (db *DB) Len() int { return len(db.cities) }

// All returns the backing city list. Callers must not modify it.
func (db *DB) All() []City { return db.cities }

// ByName returns the city with the given name.
func (db *DB) ByName(name string) (City, bool) {
	i, ok := db.byName[name]
	if !ok {
		return City{}, false
	}
	return db.cities[i], true
}

// InContinent returns all cities in the given continent ordered by
// descending population.
func (db *DB) InContinent(ct Continent) []City {
	var out []City
	for _, c := range db.cities {
		if c.Continent == ct {
			out = append(out, c)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Population != out[j].Population {
			return out[i].Population > out[j].Population
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// Nearest returns the city closest to p and its distance in km: the first
// city in list order at the smallest haversine distance. It returns false
// only for an empty database.
func (db *DB) Nearest(p geo.Coordinate) (City, float64, bool) {
	if len(db.cities) == 0 {
		return City{}, 0, false
	}
	// Growing caps stand in for the comparison of distances: a city
	// outside the cap that just holds the best city so far is farther
	// than it, decided by geo.Cap without trigonometry; only a city
	// inside it pays for its haversine distance.
	u := p.Vec()
	best := 0
	bestD := db.cities[0].Location.DistanceKm(p)
	within := geo.NewCap(geo.Disc{Center: p, RadiusKm: bestD}, u)
	for i := 1; i < len(db.cities); i++ {
		loc := db.cities[i].Location
		if !within.Contains(loc, db.vecs[i]) {
			continue
		}
		if d := loc.DistanceKm(p); d < bestD {
			best, bestD = i, d
			within = geo.NewCap(geo.Disc{Center: p, RadiusKm: bestD}, u)
		}
	}
	return db.cities[best], bestD, true
}

// HighestPopulationIn returns the highest-population city inside the disc.
// This is iGreedy's geolocation rule. ok is false when no city lies within
// the disc; callers then typically fall back to Nearest of the disc center.
func (db *DB) HighestPopulationIn(d geo.Disc) (City, bool) {
	c := geo.NewCap(d, d.Center.Vec())
	return db.HighestPopulationInCap(&c)
}

// HighestPopulationInCap is HighestPopulationIn for a disc whose geometry
// the caller has already precomputed. It visits the cells of the cap's
// box, keeping the best population rank found inside the cap; within a
// cell the ranks ascend, so a cell is left at its first city inside, or at
// the first that could not beat the best so far. The answer is the scan's:
// the first city of the population order inside the cap.
//
//laces:hotpath one lookup per enumerated site
func (db *DB) HighestPopulationInCap(c *geo.Cap) (City, bool) {
	angle := c.RadiusKm / geo.EarthRadiusKm
	if db.unindexed || !c.Center.IsValid() || !(angle < maxIndexedAngle) {
		return db.scanByPop(c)
	}
	best := int32(len(db.byPop))
	lo, hi := cityCells.Box(c.U, angle)
	for x := lo[0]; x <= hi[0]; x++ {
		for y := lo[1]; y <= hi[1]; y++ {
			for z := lo[2]; z <= hi[2]; z++ {
				cell := cityCells.Index(x, y, z)
				for _, rank := range db.cellRank[db.cellStart[cell]:db.cellStart[cell+1]] {
					if rank >= best {
						break
					}
					if i := db.byPop[rank]; c.Contains(db.cities[i].Location, db.vecs[i]) {
						best = rank
						break
					}
				}
			}
		}
	}
	if int(best) == len(db.byPop) {
		return City{}, false
	}
	return db.cities[db.byPop[best]], true
}

// scanByPop is HighestPopulationInCap by scanning the population order.
func (db *DB) scanByPop(c *geo.Cap) (City, bool) {
	for _, i := range db.byPop {
		if c.Contains(db.cities[i].Location, db.vecs[i]) {
			return db.cities[i], true
		}
	}
	return City{}, false
}

// WithinKm returns all cities within radius km of p, ordered by distance.
func (db *DB) WithinKm(p geo.Coordinate, radius float64) []City {
	type cd struct {
		c City
		d float64
	}
	var hits []cd
	within := geo.NewCap(geo.Disc{Center: p, RadiusKm: radius}, p.Vec())
	for i, c := range db.cities {
		if within.Contains(c.Location, db.vecs[i]) {
			hits = append(hits, cd{c, c.Location.DistanceKm(p)})
		}
	}
	sort.Slice(hits, func(i, j int) bool { return hits[i].d < hits[j].d })
	out := make([]City, len(hits))
	for i, h := range hits {
		out[i] = h.c
	}
	return out
}

// VultrMetros lists the 32 Vultr data-centre metros used by the TANGLED
// anycast testbed (§4.2.1 of the paper, "all of its 32 sites, located in
// 19 countries on 6 continents"). Every name resolves in the default DB.
func VultrMetros() []string {
	return []string{
		"Amsterdam", "Atlanta", "Bangalore", "Chicago", "Dallas",
		"Delhi", "Frankfurt", "Honolulu", "Johannesburg", "London",
		"Los Angeles", "Madrid", "Manchester", "Melbourne", "Mexico City",
		"Miami", "Mumbai", "New York", "Osaka", "Paris",
		"Sao Paulo", "Santiago", "Seattle", "Seoul", "San Jose",
		"Singapore", "Stockholm", "Sydney", "Tel Aviv", "Tokyo",
		"Toronto", "Warsaw",
	}
}
