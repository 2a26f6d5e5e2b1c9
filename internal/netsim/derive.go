package netsim

import (
	"cmp"
	"slices"
	"sort"

	"github.com/laces-project/laces/internal/cities"
	"github.com/laces-project/laces/internal/packet"
)

// Derivation: every Target is a pure function of (world seed, batch,
// in-batch index). The class rules below are the single source of truth
// for target content — eager pre-derivation (generate_targets.go) and
// lazy access (stream.go: TargetAt, Walker, IterTargets) all call
// deriveInto, which is what makes the two modes byte-identical.
//
// Cost contract: on a warm world every class derives in O(block replay)
// with no per-call sort of the city DB. Sites that a batch shares are
// resolved once per world — operator sites at generation, event sites by
// the layout pass, a generic deployment's sites on its first derivation
// (genericSites) — and later derivations share the slice.

// quarterDays are the quarterly IPv6 hitlist refresh days targets can
// first appear on (§7 hitlist growth).
var quarterDays = [...]int{90, 180, 270, 360, 450}

// blockWalker steps through a batch's announcement blocks, tracking the
// aligned slot allocation and BGP index exactly as the layout pass did.
type blockWalker struct {
	seed uint64
	v6   bool
	b    *targetBatch

	i    int    // batch-local index of the current block's first target
	slot uint32 // allocator cursor before the current block
	bgp  int    // family-wide BGP index of the current block

	h     uint64 // current block's hash
	log2  int    // current block's announcement size class
	start uint32 // current block's aligned start slot
	fill  int    // targets in the current block
}

// load computes the current block's hash, size class and alignment from
// the cursor state.
func (bw *blockWalker) load() {
	remaining := bw.b.count - bw.i
	bw.h = mix(bw.seed, uint64(bw.b.asn), uint64(bw.i), 0xb69)
	bw.log2 = bgpSizeClass(bw.h, bw.b.operator, bw.v6, remaining)
	size := uint32(1) << bw.log2
	bw.start = (bw.slot + size - 1) &^ (size - 1)
	bw.fill = min(1<<bw.log2, remaining)
}

// next advances to the following block.
func (bw *blockWalker) next() {
	bw.slot = bw.start + uint32(1)<<bw.log2
	bw.i += bw.fill
	bw.bgp++
	bw.load()
}

// seek positions the walker on the block containing batch-local index
// bl, jumping to the nearest preceding checkpoint first so the replay is
// bounded by ckptEvery blocks. It returns the batch-local index of the
// first checkpoint past that block (b.count when there is none): the
// point from which seeking again beats stepping forward.
func (bw *blockWalker) seek(seed uint64, v6 bool, b *targetBatch, bl int) (nextCkpt int) {
	bw.seed, bw.v6, bw.b = seed, v6, b
	bw.i, bw.slot, bw.bgp = 0, b.startSlot, b.startBGP
	n := len(b.ckpts)
	k := sort.Search(n, func(k int) bool { return b.ckpts[k].i > bl })
	if k > 0 {
		ck := b.ckpts[k-1]
		bw.i, bw.slot, bw.bgp = ck.i, ck.slot, ck.bgp
	}
	bw.load()
	for bl >= bw.i+bw.fill {
		bw.next()
	}
	// Checkpoints sit on block starts, so none lies inside (bw.i, bl].
	if k < n {
		return b.ckpts[k].i
	}
	return b.count
}

// targetBufs backs the slice fields of a Target that is derived again
// and again into the same memory (a Walker's). Every class rule that
// sets TempWindows, PartialAddrs or a hijack's Sites appends at least one
// element to the empty slice these methods return, so a field the class
// leaves unset stays nil and the reused target is DeepEqual to a fresh
// one. A nil *targetBufs returns nil slices and append allocates: the
// derivation of a target its caller keeps.
type targetBufs struct {
	windows [4]DayRange
	partial [6]uint8
	hijack  [2]Site
}

func (o *targetBufs) windowsBuf() []DayRange {
	if o == nil {
		return nil
	}
	return o.windows[:0]
}

func (o *targetBufs) partialBuf() []uint8 {
	if o == nil {
		return nil
	}
	return o.partial[:0]
}

func (o *targetBufs) hijackBuf() []Site {
	if o == nil {
		return nil
	}
	return o.hijack[:0]
}

// deriveInto computes the complete target at batch-local index bl of
// batch b: class fields first, then the address/announcement fields from
// the block walk. bw must be positioned on the block containing bl; o
// backs t's slice fields when t is reused (nil when the caller keeps t).
func (w *World) deriveInto(L *famLayout, b *targetBatch, bw *blockWalker, bl int, t *Target, o *targetBufs) {
	*t = Target{}
	switch b.class {
	case classOperator:
		w.deriveOperatorTarget(L, b, bl, t, o)
	case classEvent:
		w.deriveEventTarget(L, b, bl, t)
	case classGeneric:
		w.deriveGenericTarget(L, b, t, o)
	case classUnicast:
		w.deriveUnicastTarget(L, b, bl, t, o)
	}
	j := bl - bw.i
	rep := uint8(1 + pick(mix(bw.h, uint64(j), 0x4e9), 254))
	if t.Kind == PartialAnycast {
		rep = uint8(1 + pick(mix(bw.h, uint64(j), 0x4e9), 7))
	}
	t.Prefix, t.Addr = slotPrefix(L.v6, bw.start+uint32(j), rep)
	t.ID = b.startID + bl
	t.BGPPrefix = bw.bgp
}

// deriveTargetID derives the target with the given family-wide ID from
// scratch (random access: batch binary search plus a bounded block
// replay). It panics on an ID outside the family, as Walker.At does.
func (w *World) deriveTargetID(L *famLayout, id int, t *Target) {
	b := L.batchFor(id)
	if b == nil {
		panic("netsim: TargetAt index out of range")
	}
	var bw blockWalker
	bl := id - b.startID
	bw.seek(w.seed, L.v6, b, bl)
	w.deriveInto(L, b, &bw, bl, t, nil)
}

// deriveOperatorTarget fills the class fields of one operator prefix
// (Table 5 hypergiants, DNS operators, ccTLDs, the Microsoft-style
// global-unicast AS).
func (w *World) deriveOperatorTarget(L *famLayout, b *targetBatch, bl int, t *Target, o *targetBufs) {
	oi := b.param
	spec := &w.Cfg.Operators[oi]
	op := &w.Operators[oi]
	h := mix(w.seed, L.fam, 0x0b0b, uint64(spec.ASN), uint64(bl))
	t.Origin = spec.ASN
	t.Kind = Anycast
	t.Sites = op.Sites
	t.Operator = oi
	t.CityIdx = op.Sites[0].CityIdx
	t.Loc = op.Sites[0].City.Location
	if spec.DNSOnly {
		t.Responsive = [3]bool{false, false, true}
	} else {
		w.setResponsive(t, h, spec.ICMPResp, spec.TCPResp, spec.DNSResp)
	}
	if t.Responsive[packet.DNS] {
		t.Chaos = spec.Chaos
		if spec.Chaos == ChaosPerServer {
			t.CoLocated = 2 + pick(h>>13, 3)
		}
	}
	switch {
	case spec.Name == "Microsoft" && !L.v6:
		// Globally announced, internally unicast: the server sits at
		// one of the operator's major metros.
		t.Kind = GlobalUnicast
		srv := op.Sites[pick(h>>5, len(op.Sites))]
		t.Loc, t.CityIdx = srv.City.Location, srv.CityIdx
	case spec.Temp && unitFloat(splitmix64(h^0x7e47)) < 0.8:
		// Imperva-style on-demand anycast windows.
		nw := 1 + pick(h>>9, 3)
		t.TempWindows = o.windowsBuf()
		for k := 0; k < nw; k++ {
			hk := mix(h, uint64(k))
			start := pick(hk, 520)
			t.TempWindows = append(t.TempWindows, DayRange{
				From: start, To: start + 1 + pick(hk>>11, 9),
			})
		}
		slices.SortFunc(t.TempWindows, func(a, b DayRange) int { return cmp.Compare(a.From, b.From) })
	case spec.PartialFrac > 0 && unitFloat(splitmix64(h^0x9a47)) < spec.PartialFrac:
		// Partial anycast: representative address unicast, a run of 6
		// anycast addresses hidden inside the /24 (§5.7).
		t.Kind = PartialAnycast
		start := uint8(8 + pick(h>>7, 200))
		t.PartialAddrs = o.partialBuf()
		for k := uint8(0); k < 6; k++ {
			t.PartialAddrs = append(t.PartialAddrs, start+k)
		}
		srvCity := w.sampleCityWeighted(splitmix64(h ^ 0x514))
		t.Loc, t.CityIdx = w.DB.All()[srvCity].Location, srvCity
	case spec.BackingV6Frac > 0 && L.v6 && unitFloat(splitmix64(h^0xbac4)) < spec.BackingV6Frac:
		// More-specific unicast /48 with backing anycast (§6).
		t.Kind = BackingAnycast
		srv := op.Sites[pick(h>>5, len(op.Sites))]
		t.Loc, t.CityIdx = srv.City.Location, srv.CityIdx
	case spec.DutyFrac > 0 && unitFloat(splitmix64(h^0xd077)) < spec.DutyFrac:
		// Dynamic address utilisation (§7): the prefix's anycast
		// announcement toggles on multi-week duty cycles, active for
		// roughly 20–80% of the census period.
		cursor := pick(h>>19, 140)
		t.TempWindows = o.windowsBuf()
		for k := 0; cursor < 500 && k < 4; k++ {
			hk := mix(h, uint64(k), 0xd077)
			length := 30 + pick(hk, 90)
			t.TempWindows = append(t.TempWindows, DayRange{From: cursor, To: cursor + length})
			cursor += length + 25 + pick(hk>>13, 110)
		}
	case spec.GrowFrac > 0 && unitFloat(splitmix64(h^0x640b)) < spec.GrowFrac:
		t.AnycastBornDay = 60 + pick(h>>15, 400)
	}
	// The Aug '25 IPv6 hitlist jump: a burst of Cloudflare Spectrum
	// /48s join the hitlist around day 505 and double GCD counts.
	if L.v6 && spec.Name == "Cloudflare Spectrum" && unitFloat(splitmix64(h^0x505)) < 0.45 {
		t.HitlistFromDay = 505
	}
}

// deriveEventTarget fills the class fields of one event-AS eyeball
// target (instability windows, mid-census anycast births).
func (w *World) deriveEventTarget(L *famLayout, b *targetBatch, bl int, t *Target) {
	ev := &L.events[b.param]
	asEntry := &w.ASes[w.asIdx[ev.asn]]
	h := mix(w.seed, L.fam, 0xe1e1, uint64(ev.asn), uint64(bl))
	t.Origin = ev.asn
	t.Kind = Unicast
	t.CityIdx = asEntry.CityIdx
	t.Loc = asEntry.City.Location
	t.Operator = -1
	if ev.bornAnycast > 0 {
		t.Kind = Anycast
		t.AnycastBornDay = ev.bornAnycast
		t.Sites = L.evSites[b.param]
	}
	w.setResponsive(t, h, w.Cfg.V6ICMP, w.Cfg.V6TCP, w.Cfg.V6DNS)
}

// deriveGenericTarget fills the class fields of one generic anycast
// deployment (medium/small/regional, deployment lifecycle dynamics).
func (w *World) deriveGenericTarget(L *famLayout, b *targetBatch, t *Target, o *targetBufs) {
	i := b.param
	h := mix(w.seed, L.fam, 0x9e9e, uint64(i))
	t.Origin = b.asn
	t.Kind = Anycast
	t.Operator = -1
	t.Sites = w.genericSites(L, i, h)
	t.CityIdx = t.Sites[0].CityIdx
	t.Loc = t.Sites[0].City.Location
	// Deployment lifecycle dynamics (§7): anycast services launch,
	// retire and toggle during the census. The GCD_LS comparison found
	// ~14% churn between the Feb '24 and Aug '25 sweeps, and §5.1.6
	// attributes a fifth of the GCD union to partial-period anycast.
	// The first deployments (root-server-style DNS infrastructure)
	// stay static.
	switch u := unitFloat(splitmix64(h ^ 0xd14a)); {
	case i < 8:
	case u < 0.10:
		t.AnycastBornDay = 60 + pick(h>>21, 400)
	case u < 0.20:
		t.AnycastUntilDay = 60 + pick(h>>21, 400)
	case u < 0.30:
		cursor := pick(h>>19, 140)
		t.TempWindows = o.windowsBuf()
		for k := 0; cursor < 500 && k < 4; k++ {
			hk := mix(h, uint64(k), 0x9d7)
			length := 30 + pick(hk, 90)
			t.TempWindows = append(t.TempWindows, DayRange{From: cursor, To: cursor + length})
			cursor += length + 25 + pick(hk>>13, 110)
		}
	}
	// The first few medium deployments are DNS-only anycast (the
	// G-root/LACNIC/eBay pattern of §5.3.1).
	if i < L.nMedium && i < 8 && !L.v6 {
		t.Responsive = [3]bool{false, false, true}
		t.Chaos = ChaosPerSite
	} else {
		w.setResponsive(t, h, 0.95, 0.4, 0.12)
		if t.Responsive[packet.DNS] {
			t.Chaos = ChaosPerSite
		}
	}
}

// genericSites returns generic deployment i's sites (h is its hash).
// They are placed on the family's first request and the slice is shared
// by every later derivation, as operator targets share Operator.Sites.
// Placement is a pure function of (seed, family, i), so a racing
// duplicate places equal sites and one copy wins.
func (w *World) genericSites(L *famLayout, i int, h uint64) []Site {
	slot := &L.generic[i]
	if s := slot.Load(); s != nil {
		return *s
	}
	var sites []Site
	switch {
	case i < L.nMedium:
		sites = w.pickSitesBiased(w.globalPool, 4+pick(h, 13), 400, h)
	case i < L.nMedium+L.nSmall:
		sites = w.smallGlobalSites(2+pick(h, 2), h)
	default:
		ct := cities.Continents()[pick(splitmix64(h), 6)]
		sites = w.pickSitesBiased(w.contPools[ct], 2+pick(h>>8, 3), 150, h)
	}
	if !slot.CompareAndSwap(nil, &sites) {
		return *slot.Load()
	}
	return sites
}

// deriveUnicastTarget fills the class fields of one unicast-fill target
// (CHAOS behaviour mix, hijack events, quarterly IPv6 hitlist growth).
func (w *World) deriveUnicastTarget(L *famLayout, b *targetBatch, j int, t *Target, o *targetBufs) {
	a := &w.ASes[b.param]
	h := mix(w.seed, L.fam, 0xf111, uint64(a.Number), uint64(j))
	t.Origin = a.Number
	t.Kind = Unicast
	t.CityIdx = a.CityIdx
	t.Loc = a.City.Location
	t.Operator = -1
	w.setResponsive(t, h, L.icmpF, L.tcpF, L.dnsF)
	if t.Responsive[packet.DNS] {
		// Appendix C nameserver CHAOS behaviour mix.
		switch u := unitFloat(splitmix64(h ^ 0xc4a05)); {
		case u < 0.20:
			t.Chaos = ChaosNone
		case u < 0.32:
			t.Chaos = ChaosPerServer
			t.CoLocated = 2 + pick(h>>17, 3)
		default:
			t.Chaos = ChaosReplicated
		}
	}
	// One-day hijack/misconfiguration events: anycast at the home
	// city plus one anomalous remote city for a single day. The winner
	// set was precomputed by the layout pre-pass.
	if L.hijacks[hijackKey(a.Number, j)] {
		day := pick(h>>23, 500)
		remote := w.sampleCityWeighted(splitmix64(h ^ 0x7e))
		t.TempWindows = append(o.windowsBuf(), DayRange{From: day, To: day})
		t.Sites = append(o.hijackBuf(),
			Site{City: a.City, CityIdx: a.CityIdx},
			Site{City: w.DB.All()[remote], CityIdx: remote})
	}
	// Quarterly IPv6 hitlist growth.
	if L.v6 && chance(splitmix64(h^0x6406), w.Cfg.V6GrowthPerQuarter*float64(len(quarterDays))) {
		t.HitlistFromDay = quarterDays[pick(h>>31, len(quarterDays))]
	}
}
