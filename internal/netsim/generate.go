package netsim

import (
	"fmt"
	"math"
	"net/netip"
	"slices"
	"sort"

	"github.com/laces-project/laces/internal/cities"
)

// New generates a world from the configuration. Generation is fully
// deterministic in cfg.Seed.
func New(cfg Config) (*World, error) {
	if cfg.V4Targets <= 0 && cfg.V6Targets <= 0 {
		return nil, fmt.Errorf("netsim: config has no targets")
	}
	w := &World{
		Cfg:     cfg,
		DB:      cities.Default(),
		seed:    splitmix64(cfg.Seed),
		opASNs:  make(map[ASN]bool),
		asIdx:   make(map[ASN]int),
		cityIdx: make(map[string]int),
	}
	w.cache.init()
	w.buildCities()
	if err := w.genOperators(); err != nil {
		return nil, err
	}
	w.genASes()
	if err := w.genTargets(false); err != nil {
		return nil, err
	}
	if err := w.genTargets(true); err != nil {
		return nil, err
	}
	return w, nil
}

// buildCities indexes the city DB and precomputes the per-city tables
// every placement reads: the pairwise distance matrix used by every
// routing and latency computation, the name hashes, placement weights
// and cumulative populations of site sampling, and the population-ordered
// global and per-continent candidate pools. No derivation copies or
// re-sorts the DB.
func (w *World) buildCities() {
	all := w.DB.All()
	w.nCities = len(all)
	w.cityHash = make([]uint64, w.nCities)
	w.cityWeight = make([]float64, w.nCities)
	w.popCum = make([]int64, w.nCities)
	w.globalPool = make([]int, w.nCities)
	var total int64
	for i, c := range all {
		if _, dup := w.cityIdx[c.Name]; !dup {
			w.cityIdx[c.Name] = i
		}
		w.cityHash[i] = hashString(c.Name)
		w.cityWeight[i] = math.Pow(float64(c.Population), 0.25)
		total += int64(c.Population)
		w.popCum[i] = total
		w.globalPool[i] = i
	}
	sort.Slice(w.globalPool, func(i, j int) bool {
		a, b := &all[w.globalPool[i]], &all[w.globalPool[j]]
		if a.Population != b.Population {
			return a.Population > b.Population
		}
		return a.Name < b.Name
	})
	w.contPools = make([][]int, len(cities.Continents()))
	for _, ci := range w.globalPool {
		ct := all[ci].Continent
		w.contPools[ct] = append(w.contPools[ct], ci)
	}
	w.dist = make([]float64, w.nCities*w.nCities)
	for i := 0; i < w.nCities; i++ {
		for j := i + 1; j < w.nCities; j++ {
			d := all[i].Location.DistanceKm(all[j].Location)
			w.dist[i*w.nCities+j] = d
			w.dist[j*w.nCities+i] = d
		}
	}
}

// sampleCityWeighted picks a city index with probability proportional to
// population: the first city whose cumulative population exceeds
// h mod the total.
func (w *World) sampleCityWeighted(h uint64) int {
	x := int64(h % uint64(w.popCum[len(w.popCum)-1]))
	i, _ := slices.BinarySearch(w.popCum, x+1)
	return i
}

// siteAt is the site in database city ci.
func (w *World) siteAt(ci int) Site {
	c := w.DB.All()[ci]
	return Site{City: c, CityIdx: w.cityIdx[c.Name]}
}

// pickSites greedily places n sites on the cities of the pool (database
// indices, best first) respecting a minimum spacing. If the pool runs
// out, placement wraps around and co-locates sites in already used
// cities — which is exactly how real deployments end up with multiple
// sites in one city that GCD cannot separate (§6).
func (w *World) pickSites(pool []int, n int, minSpacingKm float64) []Site {
	if minSpacingKm <= 0 {
		minSpacingKm = 400
	}
	all := w.DB.All()
	var out []Site
	for _, ci := range pool {
		if len(out) >= n {
			return out
		}
		ok := true
		for _, s := range out {
			if s.City.Location.DistanceKm(all[ci].Location) < minSpacingKm {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, w.siteAt(ci))
		}
	}
	for i := 0; len(out) < n && len(pool) > 0; i++ {
		out = append(out, w.siteAt(pool[i%len(pool)]))
	}
	return out
}

// cityPool returns the candidate cities (database indices) for an
// operator spec, ordered by descending population.
func (w *World) cityPool(spec OperatorSpec) []int {
	if !spec.Regional {
		return w.globalPool
	}
	var pool []int
	for _, ci := range w.contPools[spec.Continent] {
		if spec.Country == "" || w.DB.All()[ci].Country == spec.Country {
			pool = append(pool, ci)
		}
	}
	return pool
}

// genOperators instantiates the modelled operators and their AS entries.
func (w *World) genOperators() error {
	for _, spec := range w.Cfg.Operators {
		pool := w.cityPool(spec)
		if len(pool) == 0 {
			return fmt.Errorf("netsim: operator %s has an empty city pool", spec.Name)
		}
		sites := w.pickSites(pool, spec.NumSites, spec.MinSpacingKm)
		w.Operators = append(w.Operators, Operator{
			Name:     spec.Name,
			ASN:      spec.ASN,
			Sites:    sites,
			Regional: spec.Regional,
		})
		// Operators also get an AS entry (stable routing by default).
		cityIdx := sites[0].CityIdx
		w.opASNs[spec.ASN] = true
		w.asIdx[spec.ASN] = len(w.ASes)
		w.ASes = append(w.ASes, AS{
			Number:  spec.ASN,
			Name:    spec.Name,
			City:    w.DB.All()[cityIdx],
			CityIdx: cityIdx,
		})
	}
	return nil
}

// eventASes are IPv6 eyeball networks with exceptional routing-instability
// windows (the Fig 9 AC spikes) plus the Astound-style network whose /48s
// become genuinely anycast mid-census.
type eventAS struct {
	asn     ASN
	name    string
	city    string
	targets int // v6 target count (scaled with V6Targets)
	windows []DayRange
	// bornAnycast > 0: targets become 2-site anycast on this day.
	bornAnycast int
	siteCities  []string
}

func defaultEventASes(v6Targets int) []eventAS {
	scale := func(n int) int { return max(10, n*v6Targets/50_000) }
	return []eventAS{
		{asn: 4837, name: "China Unicom", city: "Beijing",
			targets: scale(1500), windows: []DayRange{{From: 10, To: 40}}},
		// Astound's /48s became genuinely anycast in July 2025, amid the
		// routing turbulence that produced the Fig 9 AC spike; the window
		// keeps the event visible to the anycast-based stage (two nearby
		// sites alone would land in one catchment).
		{asn: 46690, name: "Astound", city: "New York",
			targets: scale(2000), bornAnycast: 470, siteCities: []string{"Baltimore", "New York"},
			windows: []DayRange{{From: 468, To: 533}}},
		{asn: 212441, name: "contell", city: "Moscow",
			targets: scale(800), windows: []DayRange{{From: 495, To: 525}}},
	}
}

// genASes creates the non-operator AS population with Zipf-distributed
// sizes and marks routing-pathology flags to cover the configured target
// fractions.
func (w *World) genASes() {
	n := w.Cfg.NumASes
	for _, ev := range defaultEventASes(w.Cfg.V6Targets) {
		cityIdx, _ := w.cityIndex(ev.city)
		w.asIdx[ev.asn] = len(w.ASes)
		w.ASes = append(w.ASes, AS{
			Number: ev.asn, Name: ev.name,
			City: w.DB.All()[cityIdx], CityIdx: cityIdx,
			WobblyWindows: ev.windows,
		})
	}
	next := ASN(2000)
	for i := 0; i < n; i++ {
		for {
			if _, taken := w.asIdx[next]; !taken {
				break
			}
			next += 3
		}
		cityIdx := w.sampleCityWeighted(mix(w.seed, 0xa5e5, uint64(i)))
		w.asIdx[next] = len(w.ASes)
		w.ASes = append(w.ASes, AS{
			Number:  next,
			Name:    fmt.Sprintf("AS%d", next),
			City:    w.DB.All()[cityIdx],
			CityIdx: cityIdx,
		})
		next += 3
	}
}

// asWeight is the Zipf-ish size weight of the i-th generated AS.
func asWeight(i int) float64 { return 1 / math.Pow(float64(i+3), 0.7) }

// markFlags walks the generated ASes in a hash-shuffled order and sets
// flag until the covered share of unicast targets reaches frac.
func markFlags(ases []AS, quotas []int, totalTargets int, seed uint64, frac float64, set func(*AS)) {
	if frac <= 0 || totalTargets == 0 {
		return
	}
	order := make([]int, len(ases))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		return mix(seed, uint64(order[a])) < mix(seed, uint64(order[b]))
	})
	covered := 0
	want := int(frac * float64(totalTargets))
	for _, i := range order {
		if covered >= want {
			return
		}
		if quotas[i] == 0 {
			continue
		}
		set(&ases[i])
		covered += quotas[i]
	}
}

// prefixAllocator hands out aligned address-slot blocks; the layout pass
// replays it to compute announcement geometry without building targets.
type prefixAllocator struct {
	v6   bool
	slot uint32 // next free /24 (v4) or /48 (v6) slot index
}

// advance reserves a block of 2^k slots aligned to its size and returns
// the first slot index.
func (a *prefixAllocator) advance(log2slots int) uint32 {
	size := uint32(1) << log2slots
	start := (a.slot + size - 1) &^ (size - 1)
	a.slot = start + size
	return start
}

// blockPrefix returns the announced prefix of an aligned block of 2^k
// slots starting at start.
func blockPrefix(v6 bool, start uint32, log2slots int) netip.Prefix {
	if v6 {
		var b [16]byte
		b[0], b[1] = 0x2a, 0x0a
		b[2] = byte(start >> 24)
		b[3] = byte(start >> 16)
		b[4] = byte(start >> 8)
		b[5] = byte(start)
		return netip.PrefixFrom(netip.AddrFrom16(b), 48-log2slots)
	}
	var b [4]byte
	v := 0x01000000 + start*256
	b[0], b[1], b[2], b[3] = byte(v>>24), byte(v>>16), byte(v>>8), byte(v)
	return netip.PrefixFrom(netip.AddrFrom4(b), 24-log2slots)
}

// slotPrefix returns the /24 or /48 prefix and representative address for
// a slot.
func slotPrefix(v6 bool, slot uint32, repOffset uint8) (netip.Prefix, netip.Addr) {
	if repOffset == 0 {
		repOffset = 1
	}
	if v6 {
		var b [16]byte
		b[0], b[1] = 0x2a, 0x0a
		b[2] = byte(slot >> 24)
		b[3] = byte(slot >> 16)
		b[4] = byte(slot >> 8)
		b[5] = byte(slot)
		p := netip.PrefixFrom(netip.AddrFrom16(b), 48)
		b[15] = repOffset
		return p, netip.AddrFrom16(b)
	}
	var b [4]byte
	v := 0x01000000 + slot*256
	b[0], b[1], b[2], b[3] = byte(v>>24), byte(v>>16), byte(v>>8), byte(v)
	p := netip.PrefixFrom(netip.AddrFrom4(b), 24)
	b[3] = repOffset
	return p, netip.AddrFrom4(b)
}

// bgpSizeClass picks an announcement size (log2 of contained slots) for a
// run of targets. Operators announce larger blocks (Table 6's /20s and
// /16s); stub ASes mostly announce /24s.
func bgpSizeClass(h uint64, operator, v6 bool, remaining int) int {
	var log2 int
	u := unitFloat(h)
	if operator {
		switch {
		case u < 0.10:
			log2 = 0
		case u < 0.30:
			log2 = 2
		case u < 0.65:
			log2 = 4
		case u < 0.90:
			log2 = 6
		default:
			log2 = 8
		}
	} else {
		switch {
		case u < 0.50:
			log2 = 0
		case u < 0.66:
			log2 = 1
		case u < 0.80:
			log2 = 2
		case u < 0.92:
			log2 = 3
		default:
			log2 = 4
		}
	}
	// Keep announcements from being absurdly empty: at least a quarter of
	// the block should be populated, unless it is a plain single slot.
	for log2 > 0 && (1<<log2) > remaining*4 {
		log2--
	}
	return log2
}
