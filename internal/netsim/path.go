package netsim

import (
	"fmt"
	"time"
)

// This file models router-level forward paths through the simulated
// Internet — the substrate for TTL-based traceroute (internal/traceroute).
// The paper uses traceroute to confirm that Microsoft-style global-BGP
// prefixes ingress at distinct PoPs while terminating at a single server
// (§5.1.3), and names traceroute-assisted site enumeration as future work
// (§5.2, citing Fan et al.'s ACE).
//
// Paths are deterministic in (seed, source city, target, day): a handful
// of transit routers chosen to minimise geographic detour, followed by the
// operator's edge (the ingress PoP or anycast site router) and, for
// global-unicast services, internal backbone hops to the server.

// Hop is one router on a simulated forward path.
type Hop struct {
	// CityIdx locates the router.
	CityIdx int
	// Owner is the operating AS: a transit carrier for mid-path routers,
	// the target's origin AS for PoP/backbone hops, 0 for the source
	// gateway.
	Owner ASN
	// Label is the router's reverse-DNS-style name; fingerprinting
	// distinct PoP labels enumerates sites ACE-style.
	Label string
	// PoP marks the operator's edge router: the anycast site router or
	// the global-unicast ingress PoP — the hop §5.1.3's analysis keys on.
	PoP bool
	// Dest marks the probed target itself (the echo responder).
	Dest bool
	// RTT is the round-trip time to this router from the path source.
	RTT time.Duration
	// NoReply marks routers that drop TTL-exceeded generation (the "*"
	// rows of a real traceroute).
	NoReply bool
}

// transitASNs are the carrier ASes operating mid-path routers.
var transitASNs = []ASN{3356, 1299, 174, 2914, 6453, 6762, 3257, 6939}

// maxTransitHops bounds the generated transit segment.
const maxTransitHops = 4

// ForwardPath returns the router-level path from a source city to the
// target's responder for that source on census day `day`. The final hop
// has Dest set; it is absent when the target would not respond to the
// path's probes at all.
func (w *World) ForwardPath(srcCity int, tg *Target, at time.Time) []Hop {
	day := DayOf(at)
	var hops []Hop
	add := func(h Hop) { hops = append(hops, h) }

	// Source gateway.
	add(Hop{CityIdx: srcCity, Label: "gw." + sanitizeLabel(w.DB.All()[srcCity].Name)})

	appendTransit := func(from, to int) {
		n := 1 + pick(mix(w.seed, uint64(tg.ID), uint64(from), uint64(to), 0x7a17), maxTransitHops)
		carrier := transitASNs[pick(mix(w.seed, uint64(from), uint64(to), 0xca11), len(transitASNs))]
		for j := 0; j < n; j++ {
			frac := float64(j+1) / float64(n+1)
			city := w.detourCity(from, to, frac, mix(w.seed, uint64(tg.ID), uint64(j), 0xde70))
			if len(hops) > 0 && hops[len(hops)-1].CityIdx == city {
				continue // collapse hops that land in the same metro
			}
			add(Hop{
				CityIdx: city,
				Owner:   carrier,
				Label: fmt.Sprintf("ae%d.cr%d.%s.as%d.net",
					j+1, 1+pick(mix(w.seed, uint64(tg.ID), uint64(j), 0x3c), 4),
					sanitizeLabel(w.DB.All()[city].Name), carrier),
				NoReply: chance(mix(w.seed, uint64(tg.ID), uint64(j), uint64(day), 0x51e7), 0.07),
			})
		}
	}
	popHop := func(city int) Hop {
		return Hop{
			CityIdx: city,
			Owner:   tg.Origin,
			Label:   fmt.Sprintf("pop-%s.as%d.net", sanitizeLabel(w.DB.All()[city].Name), tg.Origin),
			PoP:     true,
			NoReply: chance(mix(w.seed, uint64(tg.ID), uint64(city), uint64(day), 0x90b), 0.02),
		}
	}
	destHop := func(city int) Hop {
		return Hop{CityIdx: city, Owner: tg.Origin, Label: tg.Addr.String(), Dest: true}
	}

	switch tg.KindAt(day) {
	case Anycast:
		site := w.targetSite(tg, srcCity)
		siteCity := tg.Sites[site].CityIdx
		appendTransit(srcCity, siteCity)
		add(popHop(siteCity))
		add(destHop(siteCity))
	case GlobalUnicast:
		ingress := w.targetSite(tg, srcCity)
		ingressCity := tg.Sites[ingress].CityIdx
		appendTransit(srcCity, ingressCity)
		add(popHop(ingressCity))
		// Internal backbone toward the single server.
		if mid := w.detourCity(ingressCity, tg.CityIdx, 0.5, mix(w.seed, uint64(tg.ID), 0xbb0e)); mid != ingressCity && mid != tg.CityIdx {
			add(Hop{
				CityIdx: mid,
				Owner:   tg.Origin,
				Label: fmt.Sprintf("be-%s.as%d.net",
					sanitizeLabel(w.DB.All()[mid].Name), tg.Origin),
				NoReply: chance(mix(w.seed, uint64(tg.ID), uint64(mid), uint64(day), 0xbb1), 0.07),
			})
		}
		add(destHop(tg.CityIdx))
	default: // Unicast, PartialAnycast and BackingAnycast representatives
		appendTransit(srcCity, tg.CityIdx)
		add(destHop(tg.CityIdx))
	}

	w.fillPathRTTs(hops, tg, srcCity)
	return hops
}

// TracePath returns the forward path as observed from a unicast vantage
// point, honouring the VP's more-specific filtering (the Fastly backing-
// anycast mechanism of §6: a filtering VP's packets follow the covering
// anycast announcement to the nearest PoP).
func (w *World) TracePath(vp VP, tg *Target, at time.Time) []Hop {
	if tg.Kind == BackingAnycast && vp.FiltersSpecifics {
		// The responder is the nearest backing PoP, not the covered
		// server: route the trace as if the target were plainly anycast.
		shadow := *tg
		shadow.Kind = Anycast
		return w.ForwardPath(vp.CityIdx, &shadow, at)
	}
	return w.ForwardPath(vp.CityIdx, tg, at)
}

// detourCity picks the router metro for an interpolation point at fraction
// frac of the way from city a to city b: the candidate with the smallest
// geographic detour among a deterministic sample, favouring a handful of
// well-connected metros the way real transit topology does.
func (w *World) detourCity(a, b int, frac float64, h uint64) int {
	direct := w.distKm(a, b)
	best, bestScore := -1, 0.0
	consider := func(c int) {
		// Detour of routing via c, weighted toward the requested fraction
		// of the path.
		d := w.distKm(a, c) + w.distKm(c, b) - direct
		pos := 0.0
		if direct > 0 {
			pos = w.distKm(a, c)/direct - frac
		}
		score := d + 2000*pos*pos
		if best < 0 || score < bestScore {
			best, bestScore = c, score
		}
	}
	// The endpoints' own metros are always candidates: short paths stay
	// local instead of detouring through a sampled far-away carrier hub.
	consider(a)
	consider(b)
	for s := 0; s < 6; s++ {
		consider(w.sampleCityWeighted(mix(h, uint64(s), 0xd7)))
	}
	return best
}

// fillPathRTTs assigns round-trip times that grow along the path: the
// cumulative routed distance at fibre speed with a shared per-(source,
// target) stretch, a small per-hop queueing term, and the guarantee that
// RTTs never decrease hop over hop (each reply transits every earlier
// router).
func (w *World) fillPathRTTs(hops []Hop, tg *Target, srcCity int) {
	stretch := 1.15 + 0.45*unitFloat(mix(w.seed, uint64(tg.ID), uint64(srcCity), 0x477))
	cum := 0.0
	prevCity := srcCity
	var prev time.Duration
	for i := range hops {
		cum += w.distKm(prevCity, hops[i].CityIdx)
		prevCity = hops[i].CityIdx
		ms := 2*cum*stretch/kmPerMs + 0.15 +
			0.9*unitFloat(mix(w.seed, uint64(tg.ID), uint64(srcCity), uint64(i), 0x997))
		rtt := time.Duration(ms * float64(time.Millisecond))
		if rtt <= prev {
			rtt = prev + 37*time.Microsecond
		}
		hops[i].RTT = rtt
		prev = rtt
	}
}
