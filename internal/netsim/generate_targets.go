package netsim

import (
	"sort"

	"github.com/laces-project/laces/internal/cities"
	"github.com/laces-project/laces/internal/packet"
)

// pickSitesBiased places n sites from pool (database indices) with a
// minimum spacing, ranking candidates by population^0.25 × a per-salt
// jitter in [0.2, 1.2): the low bias gives generic deployments
// geographic variety. Each candidate is scored once, from the world's
// precomputed name hashes and weights, and the sort compares the
// stored scores.
func (w *World) pickSitesBiased(pool []int, n int, spacingKm float64, salt uint64) []Site {
	type scored struct {
		score float64
		ci    int
	}
	seed := mix(w.seed, salt)
	ranked := make([]scored, len(pool))
	for k, ci := range pool {
		h := mixFrom(seed, w.cityHash[ci])
		ranked[k] = scored{(0.2 + unitFloat(h)) * w.cityWeight[ci], ci}
	}
	sort.Slice(ranked, func(i, j int) bool { return ranked[i].score > ranked[j].score })
	order := make([]int, len(ranked))
	for k := range ranked {
		order[k] = ranked[k].ci
	}
	return w.pickSites(order, n, spacingKm)
}

// hijackEventsV4 is the number of single-day two-site anycast events
// modelling BGP misconfigurations/hijacks (§7: 191 single-day prefixes at
// paper scale).
const hijackEventsV4 = 19

// genTargets builds the target universe for one address family. The
// heavy lifting is split between the layout pass (layout.go — batch,
// slot and announcement geometry, AS quota/flag marking) and per-target
// derivation (derive.go). Eager worlds (the default) materialize every
// target and announcement through the derivation path; lazy worlds stop
// after the layout and derive targets on demand, so the two modes are
// byte-identical by construction.
func (w *World) genTargets(v6 bool) error {
	L, err := w.buildLayout(v6)
	if err != nil {
		return err
	}
	if L == nil {
		return nil
	}
	if v6 {
		w.layoutV6 = L
	} else {
		w.layoutV4 = L
	}
	if w.Cfg.LazyTargets {
		arena := newTargetArena(arenaSlots)
		if v6 {
			w.arenaV6 = arena
		} else {
			w.arenaV4 = arena
		}
		return nil
	}
	w.materialize(L)
	return nil
}

// materialize builds the family's full target and announcement slices by
// walking every batch through the derivation path.
func (w *World) materialize(L *famLayout) {
	targets := make([]Target, 0, L.total)
	bgps := make([]BGPPrefix, 0, L.nBGP)
	var bw blockWalker
	for bi := range L.batches {
		b := &L.batches[bi]
		bw.seek(w.seed, L.v6, b, 0)
		for bl := 0; bl < b.count; {
			bp := BGPPrefix{
				Prefix: blockPrefix(L.v6, bw.start, bw.log2),
				Origin: b.asn,
			}
			for j := 0; j < bw.fill; j++ {
				var t Target
				w.deriveInto(L, b, &bw, bl, &t)
				bp.Targets = append(bp.Targets, t.ID)
				targets = append(targets, t)
				bl++
			}
			bgps = append(bgps, bp)
			if bl < b.count {
				bw.next()
			}
		}
	}
	if L.v6 {
		w.TargetsV6, w.BGPPrefixesV6 = targets, bgps
	} else {
		w.TargetsV4, w.BGPPrefixesV4 = targets, bgps
	}
}

// smallGlobalSites picks ns sites in ns distinct continents.
func (w *World) smallGlobalSites(ns int, h uint64) []Site {
	cs := cities.Continents()
	start := pick(h, len(cs))
	var out []Site
	for k := 0; len(out) < ns && k < len(cs); k++ {
		pool := w.contPools[cs[(start+k)%len(cs)]]
		if len(pool) == 0 {
			continue
		}
		out = append(out, w.siteAt(pool[pick(mix(h, uint64(k)), min(8, len(pool)))]))
	}
	return out
}

// setResponsive draws per-protocol responsiveness, guaranteeing at least
// one responsive protocol (hitlist targets are responsive by definition).
func (w *World) setResponsive(t *Target, h uint64, icmp, tcp, dns float64) {
	t.Responsive[packet.ICMP] = chance(splitmix64(h^0x1c39), icmp)
	t.Responsive[packet.TCP] = chance(splitmix64(h^0x7c9), tcp)
	t.Responsive[packet.DNS] = chance(splitmix64(h^0xd45), dns)
	if !t.Responsive[packet.ICMP] && !t.Responsive[packet.TCP] && !t.Responsive[packet.DNS] {
		t.Responsive[packet.ICMP] = true
	}
}

// unicastQuotas distributes n unicast targets over the non-operator,
// non-event ASes with Zipf weights, then marks the routing-pathology flags
// to cover the configured fractions.
func (w *World) unicastQuotas(n int, v6 bool) []int {
	quotas := make([]int, len(w.ASes))
	var idxs []int
	var wsum float64
	events := eventASNs()
	for i := range w.ASes {
		n := w.ASes[i].Number
		if w.opASNs[n] || events[n] || n >= 300000 {
			continue
		}
		idxs = append(idxs, i)
	}
	for k := range idxs {
		wsum += asWeight(k)
	}
	if wsum == 0 || n == 0 {
		return quotas
	}
	assigned := 0
	for k, i := range idxs {
		q := int(asWeight(k) / wsum * float64(n))
		quotas[i] = q
		assigned += q
	}
	for i := 0; assigned < n; i++ { // distribute the remainder
		quotas[idxs[i%len(idxs)]]++
		assigned++
	}
	// Routing pathology flags cover the configured fraction of targets.
	// (v4 and v6 share flags; mark once, on the larger family.)
	if !v6 || w.Cfg.V4Targets == 0 {
		fam := uint64(99)
		markFlags(w.ASes, quotas, n, mix(w.seed, fam, 1), w.Cfg.TieSplitFrac, func(a *AS) {
			a.TieSplit = true
			a.TieWidth = 2
			if u := unitFloat(mix(w.seed, uint64(a.Number), 0x71e)); u > 0.85 {
				a.TieWidth = 3
			} else if u > 0.97 {
				a.TieWidth = 4 + pick(mix(w.seed, uint64(a.Number)), 2)
			}
		})
		markFlags(w.ASes, quotas, n, mix(w.seed, fam, 2), w.Cfg.WobblyFrac, func(a *AS) { a.Wobbly = true })
		markFlags(w.ASes, quotas, n, mix(w.seed, fam, 3), w.Cfg.DriftyFrac, func(a *AS) { a.Drifty = true })
	}
	return quotas
}

// eventASNs returns the set of event AS numbers.
func eventASNs() map[ASN]bool {
	out := make(map[ASN]bool)
	for _, ev := range defaultEventASes(1) {
		out[ev.asn] = true
	}
	return out
}
