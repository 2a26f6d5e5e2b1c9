// Package platform defines the measurement platforms the paper deploys
// LACeS on: the TANGLED anycast testbed on Vultr (32 sites), the
// ccTLD-registry and Melbicom deployments of the replicability study
// (§5.4), the reduced deployments of the cost study (§5.5.1), and the
// unicast VP pools used for latency measurements — CAIDA Ark (growing over
// the census, §4.3) and RIPE Atlas (§5.1.2, App B).
package platform

import (
	"fmt"

	"github.com/laces-project/laces/internal/cities"
	"github.com/laces-project/laces/internal/netsim"
)

// Tangled returns the TANGLED testbed deployment: all 32 Vultr metros
// (§4.2.1), announcing under the given routing policy.
func Tangled(w *netsim.World, policy netsim.RoutingPolicy) (*netsim.Deployment, error) {
	return w.NewDeployment("TANGLED", cities.VultrMetros(), policy)
}

// CcTLDCities are the 12 locations of the registry-operated anycast
// production deployment of §5.4.
func CcTLDCities() []string {
	return []string{
		"Amsterdam", "Frankfurt", "London", "Paris", "Stockholm", "Vienna",
		"New York", "Los Angeles", "Tokyo", "Singapore", "Sao Paulo", "Sydney",
	}
}

// CcTLD returns the 12-site ccTLD registry deployment.
func CcTLD(w *netsim.World) (*netsim.Deployment, error) {
	return w.NewDeployment("ccTLD", CcTLDCities(), netsim.PolicyUnmodified)
}

// MelbicomCities are the 16 Melbicom locations (§5.4): Europe- and
// US-heavy, with a single VP in Asia and none in Oceania — which is why
// that deployment misses regional anycast there.
func MelbicomCities() []string {
	return []string{
		"Amsterdam", "Frankfurt", "London", "Madrid", "Paris", "Stockholm",
		"Warsaw", "Moscow", "New York", "Miami", "Los Angeles", "Dallas",
		"Chicago", "Atlanta", "Sao Paulo", "Singapore",
	}
}

// Melbicom returns the 16-site Melbicom deployment.
func Melbicom(w *netsim.World) (*netsim.Deployment, error) {
	return w.NewDeployment("Melbicom", MelbicomCities(), netsim.PolicyUnmodified)
}

// VultrMelbicom returns the combined 48-site deployment of §5.4.
func VultrMelbicom(w *netsim.World) (*netsim.Deployment, error) {
	return w.NewDeployment("Vultr+Melbicom",
		append(append([]string{}, cities.VultrMetros()...), MelbicomCities()...),
		netsim.PolicyUnmodified)
}

// EUNA2 is the two-VP deployment of Table 4 (one in North America, one in
// Europe).
func EUNA2(w *netsim.World) (*netsim.Deployment, error) {
	return w.NewDeployment("EU-NA", []string{"Amsterdam", "New York"}, netsim.PolicyUnmodified)
}

// OnePerContinent6 is the six-VP deployment of Table 4.
func OnePerContinent6(w *netsim.World) (*netsim.Deployment, error) {
	return w.NewDeployment("1-per-continent",
		[]string{"New York", "Sao Paulo", "Amsterdam", "Johannesburg", "Tokyo", "Sydney"},
		netsim.PolicyUnmodified)
}

// TwoPerContinent11 is the eleven-VP deployment of Table 4: two sites per
// continent maximising geographical distance, one in Africa.
func TwoPerContinent11(w *netsim.World) (*netsim.Deployment, error) {
	return w.NewDeployment("2-per-continent",
		[]string{"New York", "Los Angeles", "Sao Paulo", "Santiago",
			"Madrid", "Stockholm", "Johannesburg",
			"Tokyo", "Mumbai", "Sydney", "Melbourne"},
		netsim.PolicyUnmodified)
}

// ArkSize returns the modelled number of Ark VPs on a census day: the
// platform grew from ~160 IPv4 / ~90 IPv6 monitors in mid-2024 to ~250 /
// ~150 by September 2025 (§4.3), with a step increase in January 2025
// (§7, Fig 9/10 annotations).
func ArkSize(day int, v6 bool) int {
	lo, hi := 160, 250
	if v6 {
		lo, hi = 90, 150
	}
	const growStart, growEnd = 80, 540
	switch {
	case day <= growStart:
		return lo
	case day >= growEnd:
		return hi
	default:
		n := lo + (hi-lo)*(day-growStart)/(growEnd-growStart)
		// The January 2025 VP batch (~day 290) lands as a visible step.
		if day >= 290 {
			n += 12
			if n > hi {
				n = hi
			}
		}
		return n
	}
}

// Ark returns the Ark VP pool for a census day. VPs are placed at
// population-weighted cities (several monitors may share a metro, as on
// the real platform); exactly two IPv6 VPs sit in ASes that filter
// more-specific announcements — the Fastly false-positive mechanism the
// paper diagnosed in §6.
func Ark(w *netsim.World, day int, v6 bool) ([]netsim.VP, error) {
	n := ArkSize(day, v6)
	fam := "v4"
	if v6 {
		fam = "v6"
	}
	vps := make([]netsim.VP, 0, n)
	all := w.DB.All()
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("ark-%s-%03d", fam, i)
		city := all[w.SampleCity(uint64(i), "ark-"+fam)]
		vp, err := w.NewVP(name, city.Name)
		if err != nil {
			return nil, err
		}
		if v6 && (i == 7 || i == 41) {
			vp.FiltersSpecifics = true
		}
		vps = append(vps, vp)
	}
	return vps, nil
}

// Atlas returns the RIPE Atlas VP pool: one probe per database city,
// thinned so no two VPs are within minSpacingKm (the paper used 100 km,
// App B). Participation is the caller's concern (see Participating).
func Atlas(w *netsim.World, minSpacingKm float64) ([]netsim.VP, error) {
	var vps []netsim.VP
	for _, c := range w.DB.All() {
		ok := true
		for _, v := range vps {
			if v.Loc.DistanceKm(c.Location) < minSpacingKm {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		vp, err := w.NewVP("atlas-"+c.Name, c.Name)
		if err != nil {
			return nil, err
		}
		vps = append(vps, vp)
	}
	return vps, nil
}

// Participating filters a VP pool by per-measurement participation: RIPE
// Atlas probes frequently fail to return results (§5.2: "large variability
// ... due to inconsistency in the number of RIPE Atlas nodes
// participating"). The filter is deterministic in (measurement salt, VP).
func Participating(vps []netsim.VP, salt uint64, rate float64) []netsim.VP {
	if rate >= 1 {
		return vps
	}
	out := make([]netsim.VP, 0, len(vps))
	h := salt
	for _, vp := range vps {
		h = h*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d
		for _, c := range vp.Name {
			h ^= uint64(c)
			h *= 0x100000001b3
		}
		if float64(h>>11)/(1<<53) < rate {
			out = append(out, vp)
		}
	}
	return out
}

// AtlasCreditsPerProbe is the RIPE Atlas credit cost of one ping result
// (App B: the 23,821-target campaign against 481 VPs cost 37 M credits).
const AtlasCreditsPerProbe = 3

// AtlasCredits returns the credit cost of a one-attempt campaign.
func AtlasCredits(targets, vps int) int64 {
	return int64(targets) * int64(vps) * AtlasCreditsPerProbe
}

// TangledCities returns the TANGLED metro list (the Vultr data centres).
func TangledCities() []string { return cities.VultrMetros() }
