package chaos

import (
	"time"

	"github.com/laces-project/laces/internal/cities"
	"github.com/laces-project/laces/internal/packet"
)

// Built-in scenario names.
const (
	ScenarioSiteOutage       = "site-outage"
	ScenarioRegionalBlackout = "regional-blackout"
	ScenarioLossyTransit     = "lossy-transit"
	ScenarioLatencyStorm     = "latency-storm"
	ScenarioFlappingUpstream = "flapping-upstream"
	ScenarioClockSkew        = "clock-skew"
	ScenarioReplyThrottle    = "reply-throttle"
	ScenarioAbuseComplaints  = "abuse-complaints"
)

// Builtins returns the shipped scenario suite, the only one Lookup, Names
// and Scenarios know, in declaration order. Windowed scenarios are all
// active around census day 180 (the Sep-2024 mark the paper's own
// incidents cluster around) so one mid-census day exercises every one.
func Builtins() []Scenario {
	return []Scenario{
		{
			Name:        ScenarioSiteOutage,
			Description: "three deployment sites dark for seven weeks (the pre-fix worker-loss incidents)",
			Impairments: []Impairment{
				{Kind: SiteOutage, Scope: Scope{Days: Days(150, 200), Workers: []int{2, 11, 23}}},
			},
		},
		{
			Name:        ScenarioRegionalBlackout,
			Description: "probes from European sites and vantage points blackholed for a month",
			Impairments: []Impairment{
				{Kind: Partition, Scope: Scope{Days: Days(165, 195),
					WorkerContinents: []cities.Continent{cities.Europe}}},
			},
		},
		{
			Name:        ScenarioLossyTransit,
			Description: "a chronic lossy transit drops 35% of probe traffic",
			Impairments: []Impairment{
				{Kind: Loss, Frac: 0.35},
			},
		},
		{
			Name:        ScenarioLatencyStorm,
			Description: "congestion adds 18ms +/- 14ms to every path, widening GCD discs",
			Impairments: []Impairment{
				{Kind: Delay, Delay: 18 * time.Millisecond, Jitter: 14 * time.Millisecond},
			},
		},
		{
			Name:        ScenarioFlappingUpstream,
			Description: "recurring three-week windows of amplified route flapping (Fig 9's instability spikes)",
			Impairments: []Impairment{
				{Kind: RouteFlap, Frac: 0.6, Skew: 3 * time.Hour, Scope: Scope{Days: Days(170, 190)}},
				{Kind: RouteFlap, Frac: 0.6, Skew: 3 * time.Hour, Scope: Scope{Days: Days(330, 350)}},
				{Kind: RouteFlap, Frac: 0.6, Skew: 3 * time.Hour, Scope: Scope{Days: Days(490, 510)}},
			},
		},
		{
			Name:        ScenarioClockSkew,
			Description: "two workers probe with clocks two hours fast, landing in wrong churn epochs",
			Impairments: []Impairment{
				{Kind: ClockSkew, Skew: 2 * time.Hour, Scope: Scope{Workers: []int{7, 19}}},
			},
		},
		{
			Name:        ScenarioAbuseComplaints,
			Description: "operator complaints arrive in waves: one halving for a month, three (the 1/8th-rate floor) for a week",
			Impairments: []Impairment{
				{Kind: AbuseComplaint, Scope: Scope{Days: Days(160, 190)}},
				{Kind: AbuseComplaint, Scope: Scope{Days: Days(176, 183)}},
				{Kind: AbuseComplaint, Scope: Scope{Days: Days(176, 183)}},
			},
		},
		{
			Name:        ScenarioReplyThrottle,
			Description: "half of all ICMP (target, worker) pairs rate-limited for the day",
			Impairments: []Impairment{
				{Kind: Throttle, Frac: 0.5, Scope: Scope{Protocols: []packet.Protocol{packet.ICMP}}},
			},
		},
	}
}
