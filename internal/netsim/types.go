package netsim

import (
	"fmt"
	"net/netip"
	"time"

	"github.com/laces-project/laces/internal/cities"
	"github.com/laces-project/laces/internal/geo"
	"github.com/laces-project/laces/internal/packet"
)

// CensusEpoch anchors simulated time: day 0 of the longitudinal census
// (the paper's census started March 21, 2024).
var CensusEpoch = time.Date(2024, 3, 21, 0, 0, 0, 0, time.UTC)

// DayOf converts an absolute simulated time to a census day number.
func DayOf(t time.Time) int {
	return int(t.Sub(CensusEpoch) / (24 * time.Hour))
}

// DayTime returns the simulated time at the start of census day d.
func DayTime(d int) time.Time {
	return CensusEpoch.Add(time.Duration(d) * 24 * time.Hour)
}

// ASN is an autonomous system number.
type ASN uint32

// AS models one autonomous system: where it attaches to the Internet and
// the routing pathologies of its upstream connectivity that drive the
// anycast-based method's false positives.
type AS struct {
	Number  ASN
	Name    string
	City    cities.City // canonical attachment location
	CityIdx int

	// TieSplit marks ASes whose upstream has equal-cost BGP paths toward
	// anycast announcements and splits return traffic per packet: replies
	// to probes from different workers can reach different VPs even when
	// sent at the same instant (§2.2's ECMP false-positive case).
	TieSplit bool
	// TieWidth is the number of near-tied deployment sites the upstream
	// splits across (almost always 2; Table 2 shows disagreement
	// concentrates there).
	TieWidth int

	// Wobbly ASes flip their preferred path frequently; Drifty ASes flip
	// occasionally. Both produce the route-change false positives that
	// grow with the inter-probe interval (Fig 5).
	Wobbly bool
	Drifty bool

	// WobblyWindows lists census-day ranges of exceptional routing
	// instability (the China Unicom / Astound / contell events visible in
	// Fig 9), during which the AS behaves as Wobbly.
	WobblyWindows []DayRange
}

// windowActive reports whether an exceptional-instability window covers
// day d.
func (a *AS) windowActive(day int) bool {
	for _, w := range a.WobblyWindows {
		if w.Contains(day) {
			return true
		}
	}
	return false
}

// TargetKind classifies a probed prefix's true nature — the simulator's
// ground truth, which validation compares census results against (§6).
type TargetKind uint8

// Target kinds.
const (
	// Unicast is a single-homed, single-location service.
	Unicast TargetKind = iota
	// Anycast is replicated at Sites; catchments decide which site a VP
	// reaches.
	Anycast
	// GlobalUnicast is a prefix announced globally whose addresses route
	// internally to a single server (the paper's Microsoft AS8075 case,
	// §5.1.3): replies egress at the ingress PoP, reaching 2–3 VPs of the
	// measuring deployment, while latency still reflects the single
	// server — GCD correctly classifies it unicast.
	GlobalUnicast
	// PartialAnycast is a /24 containing both anycast and unicast
	// addresses (the paper's NTT case, §5.7); the representative hitlist
	// address is unicast, so only the /32-granularity GCD sweep finds the
	// anycast inside.
	PartialAnycast
	// BackingAnycast is a more-specific unicast prefix covered by a less
	// specific anycast announcement (the paper's Fastly case, §6): VPs
	// whose host AS filters the more-specific are routed to the nearest
	// backing site, producing GCD false positives at exactly those VPs.
	BackingAnycast
)

// String returns a short name for the kind.
func (k TargetKind) String() string {
	switch k {
	case Unicast:
		return "unicast"
	case Anycast:
		return "anycast"
	case GlobalUnicast:
		return "global-unicast"
	case PartialAnycast:
		return "partial-anycast"
	case BackingAnycast:
		return "backing-anycast"
	default:
		return fmt.Sprintf("TargetKind(%d)", uint8(k))
	}
}

// Site is one location of an anycast deployment (a measurement VP site or
// an anycast target's PoP).
type Site struct {
	City    cities.City
	CityIdx int // index into the world city database
}

// Target is one probed prefix: a /24 for IPv4 or a /48 for IPv6 (§4.1),
// with a single representative address.
type Target struct {
	ID     int
	Prefix netip.Prefix
	Addr   netip.Addr
	Origin ASN
	Kind   TargetKind

	// Loc is the service location for unicast-like kinds, or the covered
	// server location for GlobalUnicast/BackingAnycast.
	Loc     geo.Coordinate
	CityIdx int
	// Sites holds the anycast site locations for Anycast, PartialAnycast
	// (the anycast addresses inside) and BackingAnycast (the backing
	// deployment); nil otherwise.
	Sites []Site

	// Operator indexes World.Operators for prefixes owned by a modelled
	// operator, -1 otherwise.
	Operator int

	// Responsive flags per protocol (ICMP, TCP, DNS), index by
	// packet.Protocol.
	Responsive [3]bool

	// TempWindows lists census-day ranges during which the prefix is
	// anycast; empty means the kind is static. Used for Imperva-style
	// on-demand DDoS-mitigation anycast (§7, "temporary anycast").
	TempWindows []DayRange

	// AnycastBornDay is the census day the prefix switched from unicast
	// to anycast (0 = anycast from the start). Models deployments that
	// grow during the census.
	AnycastBornDay int

	// AnycastUntilDay is the census day after which the prefix stops
	// being anycast (0 = never). Models deployments retired during the
	// census — §7's GCD_LS comparison found 1,965 Feb-'24 anycast /24s no
	// longer anycast by Aug '25.
	AnycastUntilDay int

	// PartialAddrs holds offsets (within the /24) of the anycast
	// addresses for PartialAnycast targets.
	PartialAddrs []uint8

	// Chaos describes CHAOS TXT behaviour for DNS-responsive targets.
	Chaos ChaosBehaviour
	// CoLocated is the number of co-located servers answering with
	// distinct CHAOS records at a single location (the "auth1"/"auth2"
	// pattern of Appendix C); 0 means one record.
	CoLocated int

	// BGPPrefix indexes World.BGPPrefixes: the covering announcement.
	BGPPrefix int

	// HitlistFromDay is the census day the prefix first appears on the
	// hitlist (0 = from the start); models quarterly IPv6 hitlist growth
	// (§7).
	HitlistFromDay int
}

// ChaosBehaviour is how a DNS target answers CHAOS id.server queries.
type ChaosBehaviour uint8

// CHAOS behaviours.
const (
	ChaosNone       ChaosBehaviour = iota // no CHAOS support (RFC 4892 optional)
	ChaosPerSite                          // distinct record per anycast site
	ChaosPerServer                        // distinct record per co-located server
	ChaosReplicated                       // same record replicated everywhere
)

// DayRange is an inclusive range of census days.
type DayRange struct{ From, To int }

// Contains reports whether day d falls in the range.
func (r DayRange) Contains(d int) bool { return d >= r.From && d <= r.To }

// KindAt returns the target's effective kind on census day d, resolving
// temporary-anycast windows and deployment birth days.
func (t *Target) KindAt(day int) TargetKind {
	if len(t.TempWindows) > 0 {
		for _, w := range t.TempWindows {
			if w.Contains(day) {
				return Anycast
			}
		}
		return Unicast
	}
	if t.Kind == Anycast && day < t.AnycastBornDay {
		return Unicast
	}
	if t.Kind == Anycast && t.AnycastUntilDay > 0 && day > t.AnycastUntilDay {
		return Unicast
	}
	return t.Kind
}

// IsAnycastAt reports whether ground truth says the representative address
// is anycast on day d (PartialAnycast representative addresses are
// unicast; the anycast hides at other offsets).
func (t *Target) IsAnycastAt(day int) bool {
	return t.KindAt(day) == Anycast
}

// RoutingPolicy selects how the measurement prefix is announced, mirroring
// the Vultr BGP communities experiment (§5.6).
type RoutingPolicy uint8

// Routing policies.
const (
	PolicyUnmodified   RoutingPolicy = iota
	PolicyTransitsOnly               // "do not announce to IXP peers"
	PolicyIXPsOnly                   // "announce to IXP route servers only"
)

// String names the policy as in Fig 8.
func (p RoutingPolicy) String() string {
	switch p {
	case PolicyUnmodified:
		return "Unmodified"
	case PolicyTransitsOnly:
		return "Transits-only"
	case PolicyIXPsOnly:
		return "IXPs-only"
	default:
		return fmt.Sprintf("RoutingPolicy(%d)", uint8(p))
	}
}

// Deployment is a set of anycast measurement sites announcing one shared
// prefix — the Worker platform of the anycast-based stage (§4.2).
type Deployment struct {
	Name   string
	Sites  []Site
	Policy RoutingPolicy
	salt   uint64
}

// NewDeployment builds a deployment from site cities.
func NewDeployment(name string, siteCities []cities.City, policy RoutingPolicy) *Deployment {
	d := &Deployment{Name: name, Policy: policy}
	for _, c := range siteCities {
		d.Sites = append(d.Sites, Site{City: c})
	}
	// The salt keys routing caches; it must be unique per (name, policy,
	// site composition) so distinct deployments never share cache entries.
	var h uint64 = 0xd1b54a32d192ed03
	for _, c := range name {
		h = splitmix64(h ^ uint64(c))
	}
	for _, s := range siteCities {
		h = splitmix64(h ^ hashString(s.Name))
	}
	d.salt = splitmix64(h ^ uint64(policy)<<56 ^ uint64(len(siteCities)))
	return d
}

// NumSites returns the number of sites (VPs) in the deployment.
func (d *Deployment) NumSites() int { return len(d.Sites) }

// VP is a unicast vantage point used for latency-based GCD measurements
// (an Ark monitor or RIPE Atlas probe).
type VP struct {
	Name    string
	Loc     geo.Coordinate
	CityIdx int
	Host    ASN
	// FiltersSpecifics marks VPs whose host AS drops more-specific
	// announcements (the Fastly IPv6 false-positive mechanism of §6).
	FiltersSpecifics bool
}

// Delivery describes where a probe's reply landed.
type Delivery struct {
	WorkerIdx int           // index of the receiving deployment site
	RTT       time.Duration // round-trip time observed at the receiver
	SiteIdx   int           // responding target site (anycast), -1 unicast
}

// Operator is a modelled anycast operator (hypergiant, DNS operator, …) —
// the ground truth against which §6's validation compares.
type Operator struct {
	Name     string
	ASN      ASN
	Sites    []Site // deployment PoPs
	Prefixes []int  // target IDs
	// Regional operators place all sites within one continent; they are
	// the anycast-based method's main false-negative source (§5.5.1).
	Regional bool
}

// BGPPrefix is one BGP announcement covering one or more hitlist /24s,
// used for the BGPTools comparison (Table 6) and the prefix-size analysis
// of §5.7.
type BGPPrefix struct {
	Prefix  netip.Prefix
	Origin  ASN
	Targets []int // hitlist target IDs inside
}

// FlowKey carries the per-probe fields a load balancer may hash over.
// LACeS keeps the flow headers static within a measurement (§5.1.4), so
// StaticFlow is identical across workers; VaryingPayload changes per
// worker (the ICMP payload checksum effect).
type FlowKey struct {
	Proto packet.Protocol
	// StaticFlow stands for the measurement's flow headers. The
	// simulator never reads it, so it changes no result; it remains
	// because bench/census.go sets it.
	StaticFlow uint64
	// VaryingPayload is derived from per-probe fields (payload bytes /
	// checksum); zero means static probes.
	VaryingPayload uint64
}
