package netsim

import "github.com/laces-project/laces/internal/cities"

// OperatorSpec configures one modelled anycast operator. The default set
// mirrors the operators the paper validates against in §6 (Table 5) so
// census outputs are directly comparable; they are simulated counterparts,
// not measurements of the real networks.
type OperatorSpec struct {
	Name       string
	ASN        ASN
	V4Prefixes int
	V6Prefixes int
	// NumSites is the number of anycast PoPs, placed greedily at the
	// highest-population cities with a minimum spacing.
	NumSites int
	// Regional confines all sites to one continent (ccTLD-style
	// deployments, the anycast-based method's FN source).
	Regional  bool
	Continent cities.Continent
	// Country further confines sites for national deployments (e.g. the
	// .nl and .nz nameservers of §6); empty means whole continent.
	Country string
	// MinSpacingKm controls PoP spacing; small spacing produces sites that
	// GCD cannot separate (the Prague/Bratislava/Vienna merge of §6).
	MinSpacingKm float64

	// Temp marks Imperva-style on-demand anycast: prefixes toggle between
	// unicast and anycast in short windows (§7 "temporary anycast").
	Temp bool
	// GrowFrac is the fraction of prefixes that become anycast only later
	// in the census (deployment growth / backing-anycast utilisation).
	GrowFrac float64
	// DutyFrac is the fraction of prefixes whose anycast announcement
	// toggles on multi-week duty cycles (dynamic address utilisation: §7
	// attributes 603 Google and 402 Fastly prefixes that were anycast for
	// only 20–80% of the census to this practice, enabled by backing
	// anycast).
	DutyFrac float64
	// PartialFrac is the fraction of prefixes that are partial anycast:
	// the representative address is unicast but a handful of addresses
	// inside the /24 are anycast (§5.7).
	PartialFrac float64
	// BackingV6Frac is the fraction of the operator's IPv6 prefixes that
	// are more-specific unicast /48s covered by a backing anycast
	// announcement (the Fastly traffic-engineering case of §6).
	BackingV6Frac float64

	// Responsiveness per protocol for the operator's prefixes.
	ICMPResp, TCPResp, DNSResp float64
	// DNSOnly marks operators (like G-root) reachable only via DNS.
	DNSOnly bool
	// Chaos configures CHAOS TXT behaviour of DNS-responsive prefixes.
	Chaos ChaosBehaviour
}

// Config parameterises world generation. The zero value is not usable;
// start from DefaultConfig or TestConfig.
type Config struct {
	Seed uint64

	// V4Targets and V6Targets are hitlist sizes: responsive /24s and /48s
	// (the paper's 6.0 M and 6.2 M, scaled down).
	V4Targets int
	V6Targets int

	// NumASes is the number of non-operator ASes hosting hitlist targets.
	NumASes int

	// Fractions of *targets* whose origin AS exhibits each routing
	// pathology (§2.2 / §5.1): per-packet equal-cost splitting, frequent
	// route flapping, occasional drift.
	TieSplitFrac float64
	WobblyFrac   float64
	DriftyFrac   float64

	// TransientDisturbFrac is the per-target per-day probability of a
	// transient routing disturbance: the target's upstream flaps rapidly
	// for that one day only. Because any target can have a bad routing
	// day, the resulting false positives rotate over the whole hitlist —
	// the heavy-tail population behind the paper's Fig 10 union (§5.1.6:
	// 193 k of the 203 k union prefixes appear only on some days).
	// Disturbed-day flapping is piecewise-constant over short periods, so
	// probes sent with a 0-second offset never observe a change while a
	// 1-second offset can (Fig 5: 13,312 FPs at 0 s vs 14,506 at 1 s).
	TransientDisturbFrac float64

	// GlobalUnicastTEFrac is the per-prefix per-day probability that a
	// global-unicast operator's internal traffic engineering concentrates
	// all reply egress on a single edge, hiding the prefix from the
	// anycast-based stage that day. This rotates the Microsoft-style ℳ
	// core in and out of the daily candidate set, keeping the all-days
	// core of Fig 10 small (§5.1.6: only 5% of the union is observed on
	// every day).
	GlobalUnicastTEFrac float64

	// GCDLossFrac is the per-(VP, target, day) probability that latency
	// probes obtain no sample (path failures, filtering or monitor
	// glitches — the "probe measurement failures" of §5.1.2). Marginally
	// confirmed prefixes drop out of 𝒢 on unlucky days, which is why the
	// paper's GCD union is only 58% stable across all days rather than
	// ~100% (§5.1.6).
	GCDLossFrac float64

	// ChecksumLBFrac is the fraction of targets behind load balancers
	// that hash over varying payload bytes; the paper found these
	// negligible (§5.1.4).
	ChecksumLBFrac float64

	// GlobalUnicastV4 is the number of Microsoft-style globally announced
	// unicast /24s (§5.1.3; the dominant ℳ component).
	GlobalUnicastV4 int

	// Generic anycast deployments beyond the named operators.
	MediumAnycast   int // 4–16 sites, global
	SmallAnycast    int // 2–3 sites across continents
	RegionalAnycast int // 2–4 sites within one continent

	// Unicast responsiveness fractions (hitlist composition, §4.1).
	UnicastICMP, UnicastTCP, UnicastDNS float64
	// IPv6 responsiveness skews towards TCP because the TUM/OpenINTEL
	// hitlists reflect TCP services (§5.3.2).
	V6ICMP, V6TCP, V6DNS float64

	// V6GrowthFromDay adds late-arriving IPv6 targets: the fraction
	// arriving at each quarterly hitlist update (§7 "hitlist and feedback
	// loop").
	V6GrowthPerQuarter float64

	// RateLimitFrac is the fraction of targets applying ICMP rate
	// limiting when probes arrive closer than RateLimitGapMS apart (R1:
	// probe spacing avoids rate limiting).
	RateLimitFrac  float64
	RateLimitGapMS int

	// LazyTargets switches world generation from eager materialization to
	// seed-derived streaming: New builds only the generation layout
	// (memory proportional to ASes and operators, not targets) and
	// targets are derived on demand from (seed, ID), none kept between
	// lookups. Census results are byte-identical to an eager world with
	// the same configuration, and the streaming API in stream.go works
	// the same in both modes.
	LazyTargets bool

	Operators []OperatorSpec
}

// DefaultConfig is the experiment-scale world: hitlists at roughly 1/40 of
// the paper's, anycast landscape at roughly 1/10 (keeping anycast counts
// statistically meaningful).
func DefaultConfig() Config {
	return Config{
		Seed:           0x1ace5,
		V4Targets:      120_000,
		V6Targets:      50_000,
		NumASes:        2_200,
		TieSplitFrac:   0.0034,
		WobblyFrac:     0.0025,
		DriftyFrac:     0.04,
		ChecksumLBFrac: 0.0005,

		TransientDisturbFrac: 0.004,
		GlobalUnicastTEFrac:  0.35,
		GCDLossFrac:          0.04,

		GlobalUnicastV4: 1_950,
		MediumAnycast:   300,
		SmallAnycast:    40,
		RegionalAnycast: 75,

		UnicastICMP: 0.88,
		UnicastTCP:  0.67,
		UnicastDNS:  0.046,
		V6ICMP:      0.85,
		V6TCP:       0.77,
		V6DNS:       0.005,

		V6GrowthPerQuarter: 0.08,
		RateLimitFrac:      0.02,
		RateLimitGapMS:     20,

		Operators: DefaultOperators(),
	}
}

// TestConfig is a small world for unit tests: same structure, ~1/12 the
// default size, so full pipelines run in tens of milliseconds.
func TestConfig() Config {
	c := DefaultConfig()
	c.V4Targets = 10_000
	c.V6Targets = 4_000
	c.NumASes = 400
	c.GlobalUnicastV4 = 165
	c.MediumAnycast = 40
	c.SmallAnycast = 8
	c.RegionalAnycast = 12
	c.Operators = scaleOperators(DefaultOperators(), 8)
	return c
}

// PaperScaleConfig is an Internet-scale world approaching the paper's
// census: ~1M IPv4 /24s, 150k IPv6 /48s and 80k origin ASes, with the
// anycast landscape scaled up ~10× from DefaultConfig. It is lazy by
// default — eagerly materializing a world this size is exactly what the
// streaming generator exists to avoid. Used by the large-world smoke
// test and the netsim benchmarks.
func PaperScaleConfig() Config {
	c := DefaultConfig()
	c.V4Targets = 1_000_000
	c.V6Targets = 150_000
	c.NumASes = 80_000
	c.GlobalUnicastV4 = 16_000
	c.MediumAnycast = 3_000
	c.SmallAnycast = 400
	c.RegionalAnycast = 750
	c.LazyTargets = true
	ops := make([]OperatorSpec, len(c.Operators))
	copy(ops, c.Operators)
	for i := range ops {
		ops[i].V4Prefixes *= 10
		ops[i].V6Prefixes *= 10
	}
	c.Operators = ops
	return c
}

// scaleOperators divides operator prefix counts by div (minimum 1).
func scaleOperators(ops []OperatorSpec, div int) []OperatorSpec {
	out := make([]OperatorSpec, len(ops))
	copy(out, ops)
	for i := range out {
		if out[i].V4Prefixes > 0 {
			out[i].V4Prefixes = max(1, out[i].V4Prefixes/div)
		}
		if out[i].V6Prefixes > 0 {
			out[i].V6Prefixes = max(1, out[i].V6Prefixes/div)
		}
	}
	return out
}

// DefaultOperators returns the modelled operator set: the hypergiants of
// Table 5, the Microsoft-style global-BGP AS of §5.1.3, the DNS operators
// of §6, and national ccTLD deployments. Prefix counts are ~1/10 of the
// paper's Table 5.
func DefaultOperators() []OperatorSpec {
	return []OperatorSpec{
		{Name: "Google Cloud", ASN: 396982, V4Prefixes: 363, V6Prefixes: 1,
			NumSites: 41, MinSpacingKm: 500, ICMPResp: 0.98, TCPResp: 0.45, DNSResp: 0.02,
			DutyFrac: 0.17},
		{Name: "Cloudflare", ASN: 13335, V4Prefixes: 313, V6Prefixes: 28,
			NumSites: 95, MinSpacingKm: 150, ICMPResp: 0.99, TCPResp: 0.65, DNSResp: 0.15,
			Chaos: ChaosPerSite},
		{Name: "Amazon", ASN: 16509, V4Prefixes: 129, V6Prefixes: 12,
			NumSites: 30, MinSpacingKm: 600, ICMPResp: 0.95, TCPResp: 0.4, DNSResp: 0.02,
			PartialFrac: 0.10},
		{Name: "Fastly", ASN: 54113, V4Prefixes: 44, V6Prefixes: 7,
			NumSites: 25, MinSpacingKm: 600, ICMPResp: 0.97, TCPResp: 0.6, DNSResp: 0.01,
			GrowFrac: 0.2, DutyFrac: 0.5, BackingV6Frac: 0.6, PartialFrac: 0.08},
		{Name: "Cloudflare Spectrum", ASN: 209242, V4Prefixes: 29, V6Prefixes: 334,
			NumSites: 85, MinSpacingKm: 180, ICMPResp: 0.98, TCPResp: 0.85, DNSResp: 0.01},
		{Name: "Incapsula", ASN: 19551, V4Prefixes: 57, V6Prefixes: 35,
			NumSites: 30, MinSpacingKm: 600, ICMPResp: 0.96, TCPResp: 0.7, DNSResp: 0.01,
			Temp: true},
		{Name: "Afilias", ASN: 12041, V4Prefixes: 22, V6Prefixes: 22,
			NumSites: 20, MinSpacingKm: 700, ICMPResp: 0.95, TCPResp: 0.4, DNSResp: 0.9,
			Chaos: ChaosPerSite},
		{Name: "GoDaddy", ASN: 44273, V4Prefixes: 3, V6Prefixes: 12,
			NumSites: 15, MinSpacingKm: 800, ICMPResp: 0.95, TCPResp: 0.5, DNSResp: 0.85,
			Chaos: ChaosPerServer},

		// Microsoft-style: global BGP announcements, unicast services.
		// TCP responsiveness is low: backbone hosts filter unsolicited
		// SYN/ACKs, which keeps the ℳ population largely ICMP-only
		// (Fig 7's dominant bucket).
		{Name: "Microsoft", ASN: 8075, V4Prefixes: 0, NumSites: 20,
			MinSpacingKm: 800, ICMPResp: 0.9, TCPResp: 0.15, DNSResp: 0.01},

		// DNS operators validated in §6.
		{Name: "Quad9", ASN: 19281, V4Prefixes: 4, V6Prefixes: 4, NumSites: 35,
			MinSpacingKm: 400, ICMPResp: 0.99, TCPResp: 0.6, DNSResp: 1.0, Chaos: ChaosPerSite},
		{Name: "RIPE-DNS", ASN: 25152, V4Prefixes: 2, V6Prefixes: 2, NumSites: 12,
			MinSpacingKm: 800, ICMPResp: 0.98, TCPResp: 0.4, DNSResp: 1.0, Chaos: ChaosPerSite},
		{Name: "G-Root", ASN: 5927, V4Prefixes: 1, V6Prefixes: 1, NumSites: 6,
			MinSpacingKm: 1500, DNSOnly: true, DNSResp: 1.0, Chaos: ChaosReplicated},

		// National ccTLD nameserver deployments (§6): regional anycast,
		// some with PoPs too close for GCD to separate.
		{Name: "ccTLD-nl", ASN: 64710, V4Prefixes: 2, V6Prefixes: 2, NumSites: 2,
			Regional: true, Continent: cities.Europe, Country: "NL", MinSpacingKm: 30,
			ICMPResp: 1, TCPResp: 0.8, DNSResp: 1, Chaos: ChaosPerSite},
		{Name: "ccTLD-cz", ASN: 64711, V4Prefixes: 2, V6Prefixes: 2, NumSites: 3,
			Regional: true, Continent: cities.Europe, MinSpacingKm: 250,
			ICMPResp: 1, TCPResp: 0.8, DNSResp: 1, Chaos: ChaosPerSite},
		{Name: "ccTLD-nz", ASN: 64712, V4Prefixes: 3, V6Prefixes: 3, NumSites: 3,
			Regional: true, Continent: cities.Oceania, Country: "NZ", MinSpacingKm: 200,
			ICMPResp: 1, TCPResp: 0.8, DNSResp: 1, Chaos: ChaosPerSite},
		{Name: "ccTLD-de", ASN: 64713, V4Prefixes: 2, V6Prefixes: 2, NumSites: 4,
			Regional: true, Continent: cities.Europe, Country: "DE", MinSpacingKm: 300,
			ICMPResp: 1, TCPResp: 0.8, DNSResp: 1, Chaos: ChaosPerSite},
		{Name: "ccTLD-be", ASN: 64714, V4Prefixes: 2, V6Prefixes: 1, NumSites: 2,
			Regional: true, Continent: cities.Europe, Country: "BE", MinSpacingKm: 20,
			ICMPResp: 1, TCPResp: 0.8, DNSResp: 1, Chaos: ChaosPerSite},
		{Name: "ccTLD-dk", ASN: 64715, V4Prefixes: 2, V6Prefixes: 1, NumSites: 2,
			Regional: true, Continent: cities.Europe, Country: "DK", MinSpacingKm: 100,
			ICMPResp: 1, TCPResp: 0.8, DNSResp: 1, Chaos: ChaosPerSite},
		{Name: "ccTLD-ua", ASN: 64716, V4Prefixes: 2, V6Prefixes: 1, NumSites: 2,
			Regional: true, Continent: cities.Europe, Country: "UA", MinSpacingKm: 300,
			ICMPResp: 1, TCPResp: 0.8, DNSResp: 1, Chaos: ChaosPerSite},
	}
}
