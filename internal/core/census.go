// Package core implements the LACeS census pipeline — the paper's primary
// contribution (§4.3, Fig 3):
//
//	hitlist ──anycast-based (TANGLED)──► ACs ∪ feedback ──GCD (Ark)──► 𝒢 / ℳ
//
// Daily, the anycast-based stage probes the full hitlist per protocol and
// yields anycast candidates (ACs). The candidate list is extended with the
// feedback loop (prefixes confirmed by periodic full-hitlist GCD_LS sweeps
// and previous daily runs) so anycast-based false negatives stay covered.
// A follow-up latency measurement towards only the candidates confirms
// anycast with GCD, enumerates and geolocates sites, and splits the census
// into 𝒢 (GCD-confirmed) and ℳ (anycast-based only).
//
// # A census day
//
// RunDaily drives one censusDay (day.go) through its phases. The day owns
// everything that is about this day — hitlist, gate, effective rate,
// missing-site mask, the DailyCensus under construction, per-stage ledger
// usages — and each phase is a child of the day's census span, with the
// measurement stages' spans under the phase that runs them:
//
//	begin     opens the census span, then (as the hitlist child) takes the
//	          hitlist the pipeline kept for the day's quarter, or builds
//	          the quarter's per-protocol ID lists; compiles the chaos plan
//	          into the world's impairer, the missing-site mask and the
//	          complaint count; takes the ledger's gate for the day and
//	          steps the rate. Reads Pipeline state only.
//	detect    stage 1: one anycast-based run per protocol, in
//	          packet.Protocols() order, back to back on the day's clock;
//	          folds candidates into rows.
//	feedBack  stage 2: reads the pipeline's feedback list and adds a row
//	          for every listed prefix on today's hitlist that detect missed.
//	confirm   stage 3: fetches the GCD VP pool and measures the day's rows
//	          under gcdmeas's §4.3 protocol rule; folds the verdicts.
//	screen    optional stage 4 (ConfirmGlobalBGP): traceroute screening of ℳ,
//	          gated and counted like the others (its own usage block).
//	publish   the governance block, then the only writes to Pipeline state:
//	          the day's hitlist is kept for the rest of its quarter,
//	          today's confirmations join the feedback list, today's |𝒢|
//	          joins the monitoring baseline (after the alerts were
//	          evaluated against it).
//
// Phases before publish write the day and nothing else, which is what
// makes a day abandonable: when detect, confirm or screen returns an
// error, RunDaily returns it and the pipeline's feedback list, baseline
// and kept hitlist are what they were — the next day's document is the
// one a pipeline that never attempted the failed day would publish. What
// a failed day does leave behind is what its stages already charged the
// ledger (the probes were sent), and the world's impairer is always
// uninstalled.
//
// Measure is the same detect and confirm, under the same gate, on a day
// whose hitlist is one target: the API's live measurement.
package core

import (
	"fmt"
	"io"
	"net/netip"
	"sort"
	"time"

	"github.com/laces-project/laces/internal/budget"
	"github.com/laces-project/laces/internal/chaos"
	"github.com/laces-project/laces/internal/hitlist"
	"github.com/laces-project/laces/internal/netsim"
	"github.com/laces-project/laces/internal/packet"
)

// Entry is one census row: everything LACeS publishes about a prefix on
// one day (§4.4).
type Entry struct {
	TargetID int
	Prefix   netip.Prefix
	Origin   netsim.ASN

	// ACProtocols flags the protocols whose anycast-based measurement
	// classified the prefix as a candidate.
	ACProtocols [3]bool
	// MaxReceivers is the largest receiving-VP count across protocols —
	// the census publishes it as a confidence signal (Table 2: counts of
	// 2 are unreliable).
	MaxReceivers int
	// FromFeedback marks prefixes injected by the feedback loop rather
	// than detected by today's anycast-based stage.
	FromFeedback bool

	// GCDMeasured is true when the latency stage probed the prefix.
	GCDMeasured bool
	// GCDAnycast is the latency-based verdict (membership in 𝒢).
	GCDAnycast bool
	// GCDSites is the enumerated site count (a lower bound, §2.1).
	GCDSites int
	// GCDCities are the geolocated site cities (iGreedy's
	// highest-population rule).
	GCDCities []string
	// GCDVPs is the number of VPs that returned samples; published
	// because enumeration quality depends on it (§4.4).
	GCDVPs int
	// GCDProto is the protocol the latency stage used (ICMP, or TCP for
	// ICMP-unresponsive candidates); meaningful when GCDMeasured.
	GCDProto packet.Protocol

	// GlobalBGP marks ℳ prefixes whose traceroute screening shows the
	// §5.1.3 signature: forward paths ingress the origin network at two
	// or more PoPs yet terminate at a single server — a globally
	// announced, internally unicast prefix (the paper's Microsoft case;
	// publishing the flag is its stated future work).
	GlobalBGP bool
}

// IsCandidate reports whether any protocol's anycast-based stage flagged
// the prefix.
func (e *Entry) IsCandidate() bool {
	return e.ACProtocols[0] || e.ACProtocols[1] || e.ACProtocols[2]
}

// InG reports membership in 𝒢: GCD-confirmed anycast.
func (e *Entry) InG() bool { return e.GCDAnycast }

// InM reports membership in ℳ: anycast-based candidates not confirmed by
// GCD.
func (e *Entry) InM() bool { return e.IsCandidate() && !e.GCDAnycast }

// DailyCensus is the output of one census day for one address family.
type DailyCensus struct {
	Day time.Time
	// DayIndex is the census day number.
	DayIndex int
	V6       bool

	HitlistSize int
	Workers     int

	// Entries is keyed by target ID and holds every prefix that is an AC,
	// fed back, or GCD-measured today.
	Entries map[int]*Entry

	// ReceiverHist buckets, per protocol probed, every target that
	// answered today by its receiving-VP count — bucket 1 (unicast)
	// included, not only the candidates. A protocol probed without a single
	// reply has an empty bucket map, which is what the no-results canary
	// looks for.
	ReceiverHist map[packet.Protocol]map[int]int

	// Cost accounting (R3).
	ProbesAnycastStage    int64
	ProbesGCDStage        int64
	ProbesTracerouteStage int64

	// Responsibility is the governance accounting (budget, opt-outs,
	// rate feedback); nil when the run had no governance active.
	Responsibility *Responsibility

	Alerts []Alert
}

// G returns the sorted target IDs in 𝒢.
func (c *DailyCensus) G() []int { return c.filter(func(e *Entry) bool { return e.InG() }) }

// M returns the sorted target IDs in ℳ.
func (c *DailyCensus) M() []int { return c.filter(func(e *Entry) bool { return e.InM() }) }

// CountG returns |𝒢| without materialising and sorting the ID slice —
// monitoring and reporting only need the count, and G() per day over a
// longitudinal run is measurable allocation churn.
func (c *DailyCensus) CountG() int { return c.count(func(e *Entry) bool { return e.InG() }) }

// CountM returns |ℳ| without materialising and sorting the ID slice.
func (c *DailyCensus) CountM() int { return c.count(func(e *Entry) bool { return e.InM() }) }

func (c *DailyCensus) count(keep func(*Entry) bool) int {
	n := 0
	for _, e := range c.Entries {
		if keep(e) {
			n++
		}
	}
	return n
}

// Candidates returns the sorted IDs of today's anycast candidates.
func (c *DailyCensus) Candidates() []int {
	return c.filter(func(e *Entry) bool { return e.IsCandidate() })
}

// ids returns the sorted target IDs of every row.
func (c *DailyCensus) ids() []int { return c.filter(func(*Entry) bool { return true }) }

func (c *DailyCensus) filter(keep func(*Entry) bool) []int {
	var out []int
	for id, e := range c.Entries {
		if keep(e) {
			out = append(out, id)
		}
	}
	sort.Ints(out)
	return out
}

// Config parameterises a Pipeline.
type Config struct {
	// Deployment runs the anycast-based stage (TANGLED in the paper).
	Deployment *netsim.Deployment
	// GCDVPs supplies the latency-stage VP pool for a census day (Ark,
	// which grows over time).
	GCDVPs func(day int, v6 bool) ([]netsim.VP, error)
	// ConfirmGlobalBGP adds a traceroute screening stage over ℳ: prefixes
	// whose paths ingress at multiple PoPs but terminate at one server
	// are published with the GlobalBGP flag (§5.1.3 future work).
	ConfirmGlobalBGP bool
	// Parallelism shards the hot measurement loops of every census stage
	// (anycast-based, GCD, CHAOS) across this many goroutines: <= 0 means
	// GOMAXPROCS, 1 runs sequentially. The census is byte-identical at
	// every worker count for the same (seed, scenario) inputs — see the
	// README's "Concurrency model" section for the determinism contract.
	Parallelism int
	// Budget caps the census's probing (R3 governance): a per-day global
	// probe cap plus per-origin-AS and per-prefix caps, consulted before
	// every governed stage probes a target. The zero value means
	// unlimited — a pipeline with a zero Budget and no opt-outs produces
	// byte-identical documents to one without governance.
	Budget budget.Budget
	// OptOut is the opt-out registry honoured before any budget cap;
	// nil means none.
	OptOut *budget.Registry
	// FlightSink receives a flight-recorder JSONL dump when a census run
	// trips a failure trigger (currently: the governance ledger's
	// Spent+Skipped==Demanded reconciliation identity breaking). Requires
	// an instrumented world; nil disables automatic dumps.
	FlightSink io.Writer
}

// DayOptions injects per-day conditions (failure modelling, §7).
type DayOptions struct {
	// Chaos is the fault-injection plan: every impairment whose scope
	// covers today's census day is applied to the run (probe loss, delay,
	// partitions, site outages, clock skew, route-flap amplification, …).
	Chaos *chaos.Scenario
}

// Pipeline runs daily censuses and maintains the feedback loop.
type Pipeline struct {
	World *netsim.World
	Cfg   Config

	feedback [2]map[int]bool   // [v4, v6] fed-back target IDs
	baseline [2][]int          // trailing 𝒢 sizes for monitoring
	lists    [2]*hitlist.Lists // [v4, v6] the last published day's hitlist

	// ledger is the probe-budget accountant, nil when the configuration
	// carries no budget and no opt-outs (the ungoverned fast path).
	ledger *budget.Ledger
}

// NewPipeline validates the configuration and prepares a pipeline. The
// pipeline reports to the registry its world is instrumented with
// (netsim.World.Instrument) when each day begins: per-stage
// laces_stage_* series, one census → phase → stage → shard span tree per
// RunDaily, operational events, live progress and, when governance is
// active, the laces_budget_* decision counters par.Run adds to.
// Telemetry never feeds back into measurement: the census document is
// byte-identical with the world instrumented or not.
func NewPipeline(w *netsim.World, cfg Config) (*Pipeline, error) {
	if cfg.Deployment == nil {
		return nil, fmt.Errorf("core: config needs a deployment")
	}
	if cfg.GCDVPs == nil {
		return nil, fmt.Errorf("core: config needs a GCD VP source")
	}
	p := &Pipeline{World: w, Cfg: cfg}
	if !cfg.Budget.IsZero() || cfg.OptOut != nil {
		p.ledger = budget.NewLedger(cfg.Budget, cfg.OptOut)
	}
	p.feedback[0] = make(map[int]bool)
	p.feedback[1] = make(map[int]bool)
	return p, nil
}

func famIdx(v6 bool) int {
	if v6 {
		return 1
	}
	return 0
}

// family names an address family as documents and metric labels do.
func family(v6 bool) string {
	if v6 {
		return "ipv6"
	}
	return "ipv4"
}

// SeedFeedback injects prefixes into the feedback loop — typically the
// result of a GCD_LS sweep (§5.1.1) or operator ground truth.
func (p *Pipeline) SeedFeedback(v6 bool, ids []int) {
	for _, id := range ids {
		p.feedback[famIdx(v6)][id] = true
	}
}

// entry returns (creating if needed) the census entry for a target.
func (c *DailyCensus) entry(tg *netsim.Target) *Entry {
	if e, ok := c.Entries[tg.ID]; ok {
		return e
	}
	e := &Entry{TargetID: tg.ID, Prefix: tg.Prefix, Origin: tg.Origin}
	c.Entries[tg.ID] = e
	return e
}
