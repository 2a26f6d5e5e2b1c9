package netsim

import (
	"time"

	"github.com/laces-project/laces/internal/packet"
)

// The routing model. Every decision is a deterministic function of
// (seed, entity IDs, churn epoch), with two cached primitives:
//
//   - reply catchment: from a source location and origin AS, which site of
//     a measurement deployment receives a packet addressed to the anycast
//     prefix. This drives the anycast-based stage (§2.2): unicast targets
//     normally map to one site; pathologies (ECMP tie-splitting, route
//     churn) map them to several, producing the method's false positives.
//   - target catchment: from a vantage point location, which site of an
//     anycast *target* deployment answers. This drives both which site's
//     identity is observable and the latency GCD measures. It is stored as
//     one row per multi-site target (see cache.go), which a probe train or
//     a GCD fan fetches once and a probe reads one city's entry of.
//
// Costs are great circle distance multiplied by a per-(AS, site) "stretch"
// in [1.15, 1.15+amp] modelling BGP paths not following geography, plus a
// small constant noise that breaks exact ties deterministically.

type replyKey struct {
	salt uint64
	asn  ASN
	city int32
}

// replyVal caches the lowest-cost deployment sites in order (up to 4, for
// ECMP tie sets of width 2–5 truncated to available sites).
type replyVal struct {
	top [4]uint16
	n   uint8
}

// stretch amplitude per routing policy (§5.6): transit-only paths are the
// least geographic, producing both more tie-splits and occasional anycast
// reply concentration.
func policyAmp(p RoutingPolicy) float64 {
	switch p {
	case PolicyTransitsOnly:
		return 0.80
	case PolicyIXPsOnly:
		return 0.42
	default:
		return 0.35
	}
}

// extraTieFrac is the additional per-target probability of behaving
// tie-split under a policy (§5.6: Transits-only found by far the most
// ACs — transit ASes with equal-cost paths to multiple PoPs).
func extraTieFrac(p RoutingPolicy) float64 {
	switch p {
	case PolicyTransitsOnly:
		return 0.006
	case PolicyIXPsOnly:
		return 0.0012
	default:
		return 0
	}
}

// replyCatchment returns the ordered lowest-cost deployment sites for
// packets from (asn, fromCity) to deployment d.
func (w *World) replyCatchment(d *Deployment, asn ASN, fromCity int) replyVal {
	key := replyKey{salt: d.salt, asn: asn, city: int32(fromCity)}
	if v, ok := w.cache.lookupReply(key); ok {
		return v
	}

	amp := policyAmp(d.Policy)
	type cs struct {
		idx  int
		cost float64
	}
	best := make([]cs, 0, len(d.Sites))
	for i, s := range d.Sites {
		dist := w.distKm(fromCity, s.CityIdx)
		str := 1.15 + amp*unitFloat(mix(w.seed, uint64(asn), uint64(s.CityIdx), uint64(fromCity), d.salt))
		noise := 30 * unitFloat(mix(w.seed, uint64(asn), uint64(i), d.salt, 0x17))
		best = append(best, cs{idx: i, cost: dist*str + noise})
	}
	// Partial selection of the 4 cheapest.
	var v replyVal
	for k := 0; k < 4 && k < len(best); k++ {
		m := k
		for j := k + 1; j < len(best); j++ {
			if best[j].cost < best[m].cost {
				m = j
			}
		}
		best[k], best[m] = best[m], best[k]
		v.top[k] = uint16(best[k].idx)
		v.n++
	}
	w.cache.storeReply(key, v)
	return v
}

// targetSite returns which site of an anycast target (or which edge PoP of
// a global-unicast operator) a packet from fromCity reaches: -1 for a
// target without sites.
func (w *World) targetSite(tg *Target, fromCity int) int {
	var n siteCount
	site := w.siteIn(w.siteRowOf(tg), tg, fromCity, &n)
	w.countSites(tg, n)
	return site
}

// siteRowOf returns tg's target-catchment row, nil when tg has fewer than
// two sites and so nothing to choose.
func (w *World) siteRowOf(tg *Target) siteRow {
	if len(tg.Sites) < 2 {
		return nil
	}
	key := uint64(uint32(tg.ID))
	if isV6(tg) {
		key |= 1 << 63
	}
	return w.cache.row(key, w.nCities)
}

// siteCount accumulates target-catchment resolutions — lookups, and the
// misses among them — for one telemetry add per probe, train or fan.
type siteCount struct{ lookups, misses int64 }

// countSites records n with one striped add.
func (w *World) countSites(tg *Target, n siteCount) {
	if t := w.tel; t != nil && n.lookups > 0 {
		t.cacheSite.Add(uint64(uint32(tg.ID)), n.lookups+n.misses*telMiss)
	}
}

// siteIn is targetSite through tg's row, fetched already by siteRowOf
// (nil: -1 without sites, 0 with one). It resolves fromCity's entry and
// counts that into n: the stored site when present (a hit), else the
// cheapest site by the target-catchment cost, stored for the next packet
// from that city (a miss).
//
//laces:hotpath called once per probe that needs a target catchment
func (w *World) siteIn(row siteRow, tg *Target, fromCity int, n *siteCount) int {
	if row == nil {
		return len(tg.Sites) - 1
	}
	n.lookups++
	if v := row[fromCity].Load(); v != 0 {
		return int(v - 1)
	}
	n.misses++
	best, bestCost := 0, 0.0
	byOrigin, byTarget := mix(w.seed, uint64(tg.Origin)), mix(w.seed, uint64(tg.ID))
	for i, s := range tg.Sites {
		dist := w.distKm(fromCity, s.CityIdx)
		str := 1.12 + 0.35*unitFloat(mixFrom(byOrigin, uint64(s.CityIdx), uint64(fromCity), 0x517e))
		cost := dist*str + 25*unitFloat(mixFrom(byTarget, uint64(i), 0x2b))
		if i == 0 || cost < bestCost {
			best, bestCost = i, cost
		}
	}
	row[fromCity].Store(uint32(best) + 1)
	return best
}

// transientDisturbed reports whether the target experiences a one-day
// transient routing disturbance on census day `day` (see
// Config.TransientDisturbFrac).
func (w *World) transientDisturbed(tg *Target, day int) bool {
	return w.Cfg.TransientDisturbFrac > 0 &&
		chance(mix(w.seed, uint64(tg.ID), uint64(day), 0xd157), w.Cfg.TransientDisturbFrac)
}

// egressEdge returns the city index of the egress PoP a global-unicast
// operator's reply leaves through for traffic that ingressed near
// fromCity. Each prefix uses only 2–3 egress edges (hash-selected from the
// operator's PoPs), which is what caps the number of VPs observing it. On
// a per-day fraction of days internal traffic engineering concentrates all
// egress on a single edge, hiding the prefix from the anycast-based stage
// (Config.GlobalUnicastTEFrac).
func (w *World) egressEdge(tg *Target, fromCity, day int) int {
	if len(tg.Sites) == 0 {
		return tg.CityIdx
	}
	if w.Cfg.GlobalUnicastTEFrac > 0 &&
		chance(mix(w.seed, uint64(tg.ID), uint64(day), 0x7e60), w.Cfg.GlobalUnicastTEFrac) {
		site := pick(mix(w.seed, uint64(tg.ID), 0xe64e), len(tg.Sites))
		return tg.Sites[site].CityIdx
	}
	k := 2 + pick(mix(w.seed, uint64(tg.ID), 0xe64e), 2) // 2 or 3 egress edges
	if k > len(tg.Sites) {
		k = len(tg.Sites)
	}
	best, bestD := -1, 0.0
	for j := 0; j < k; j++ {
		site := pick(mix(w.seed, uint64(tg.ID), uint64(j), 0xed6e), len(tg.Sites))
		d := w.distKm(fromCity, tg.Sites[site].CityIdx)
		if best == -1 || d < bestD {
			best, bestD = site, d
		}
	}
	return tg.Sites[best].CityIdx
}

// flapClass is a target's route-churn regime on one census day. Route
// state is piecewise constant over stability periods of `period` seconds
// and flipped to the runner-up with probability q in each, drawn per
// `group`, so two probes only observe different states when the
// measurement span crosses a period boundary — which is why false
// positives grow with the inter-probe interval (Fig 5) and why
// MAnycast2's 13-minute sequential sweeps suffered most. The zero value
// is a stable route.
type flapClass struct {
	period int64
	q      float64
	group  uint64
}

// flapClassOf classifies tg's route churn on census day `day`; a is the
// origin AS, nil when the world does not model it.
func (w *World) flapClassOf(tg *Target, a *AS, day int) flapClass {
	switch {
	case a == nil:
		return flapClass{}
	case a.windowActive(day):
		// Exceptional instability events (the Fig 9 spikes): rapid
		// flapping, with prefix groups inside the AS flapping
		// independently — a large share of the AS's prefixes becomes
		// visible as candidates while the event lasts.
		return flapClass{period: 5, q: 0.5, group: uint64(tg.ID >> 4)}
	case a.Wobbly:
		return flapClass{period: 300, q: 0.45}
	case a.Drifty:
		return flapClass{period: 7200, q: 0.45}
	case w.transientDisturbed(tg, day):
		// A transient per-day disturbance: any target's upstream can have
		// a bad routing day, flapping over short stability periods. These
		// one-off false positives rotate over the whole hitlist and
		// dominate the long-run union of candidates (Fig 10). The period
		// is shorter than a 32-worker 1-second probe train (31 s), so
		// synchronized 1-second probing observes the flap while a
		// 0-second burst does not (Fig 5's 0 s < 1 s gap).
		return flapClass{period: 20, q: 0.5, group: uint64(tg.ID)}
	}
	return flapClass{}
}

// flipped reports whether the preferred path toward the measurement
// prefix is flipped to the runner-up at unix time `at`.
func (w *World) flipped(tg *Target, f flapClass, at int64) bool {
	return f.period != 0 &&
		chance(mix(w.seed, uint64(tg.Origin), f.group, uint64(at/f.period), 0xf11b), f.q)
}

// tieWidth returns the effective ECMP tie width for a target under the
// deployment's policy: the AS's static width, possibly widened to 2 by a
// policy-dependent extra chance.
func (w *World) tieWidth(d *Deployment, tg *Target, a *AS) int {
	if a != nil && a.TieSplit {
		return max(2, a.TieWidth)
	}
	if p := extraTieFrac(d.Policy); p > 0 &&
		chance(mix(w.seed, uint64(tg.ID), d.salt, 0x71e5), p) {
		return 2
	}
	return 0
}

// anycastPlan is everything the anycast-stage probes of one (deployment,
// target, protocol, gap) on one census day share: the day's kind, the
// target-level rate-limit draw, how the target's upstream picks among a
// reply catchment's sites (ECMP tie width, checksum load balancer, route
// churn) and, for kinds that answer from one location, that catchment
// itself. What is left per probe is stepAnycast's rate-limit draw and
// receive's pick.
type anycastPlan struct {
	day   int
	width int       // ECMP tie width before clipping to a catchment; ≤ 1 is no tie
	flap  flapClass // route churn
	// home is the reply catchment of tg.CityIdx, where Unicast,
	// PartialAnycast and BackingAnycast representatives answer from.
	// Anycast and GlobalUnicast replies leave from a per-worker site, so
	// their probes look the catchment up themselves, reading the worker
	// city's entry of the target's row and counting that into sites.
	home    replyVal
	row     siteRow
	sites   siteCount
	kind    TargetKind
	planned bool
	// limited marks a rate-limited ICMP target probed below the gap
	// threshold: it drops a share of replies, drawn per (worker, day).
	limited bool
	lb      bool // a checksum-hashing load balancer sits on the reply path
}

// planAnycast resolves into p the plan for probes of tg on census day
// `day`.
func (w *World) planAnycast(p *anycastPlan, d *Deployment, tg *Target, proto packet.Protocol, gap time.Duration, day int) {
	var a *AS
	if i, ok := w.asIdx[tg.Origin]; ok {
		a = &w.ASes[i]
	}
	p.planned, p.day, p.kind = true, day, tg.KindAt(day)
	// ICMP rate limiting: when probes arrive nearly simultaneously
	// (inter-probe gap below the threshold) rate-limited targets drop a
	// share of replies (R1/R3: spacing probes avoids this).
	p.limited = proto == packet.ICMP && gap < time.Duration(w.Cfg.RateLimitGapMS)*time.Millisecond &&
		chance(mix(w.seed, uint64(tg.ID), 0x4a7e), w.Cfg.RateLimitFrac)
	p.width = w.tieWidth(d, tg, a)
	// Rare checksum-hashing load balancers (§5.1.4).
	p.lb = w.Cfg.ChecksumLBFrac > 0 && chance(mix(w.seed, uint64(tg.ID), 0xc5a0), w.Cfg.ChecksumLBFrac)
	p.flap = w.flapClassOf(tg, a, day)
	if p.kind != Anycast && p.kind != GlobalUnicast {
		p.home = w.replyCatchment(d, tg.Origin, tg.CityIdx)
	} else if p.row == nil {
		p.row = w.siteRowOf(tg)
	}
}

// steady reports whether every probe the plan covers gets a reply at the
// same site, home.top[0]: a single-location target that is not rate
// limited and whose catchment is a single site or has nothing — tie, load
// balancer, churn — choosing among its sites.
func (p *anycastPlan) steady() bool {
	return p.kind != Anycast && p.kind != GlobalUnicast && !p.limited &&
		(p.home.n <= 1 || (p.width <= 1 && !p.lb && p.flap.period == 0))
}

// receive resolves which site of reply catchment v receives the reply to
// the probe worker sent at unix time `at`, carrying payload bytes that
// hash to `varying` (zero for static probes).
func (w *World) receive(p *anycastPlan, d *Deployment, tg *Target, v replyVal, worker int, varying uint64, at int64) int {
	switch {
	case v.n == 0:
		return 0
	case v.n == 1:
		return int(v.top[0])
	case p.width > 1:
		// ECMP tie-splitting: the upstream sprays replies across the tie
		// set per packet (invariant to payload — §5.1.4's static-probe
		// test).
		return int(v.top[pick(mix(w.seed, uint64(tg.Origin), uint64(worker), d.salt, 0xec8f), min(p.width, int(v.n)))])
	case p.lb && varying != 0:
		// The load balancer splits on varying payload bytes when present.
		return int(v.top[pick(mix(varying, uint64(tg.ID)), 2)])
	case w.flipped(tg, p.flap, at):
		// Route churn: the preferred path is flipped to the runner-up
		// during this probe's stability period.
		return int(v.top[1])
	}
	return int(v.top[0])
}
