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
package core

import (
	"fmt"
	"io"
	"net/netip"
	"sort"
	"strconv"
	"time"

	"github.com/laces-project/laces/internal/budget"
	"github.com/laces-project/laces/internal/chaos"
	"github.com/laces-project/laces/internal/chaosdns"
	"github.com/laces-project/laces/internal/gcdmeas"
	"github.com/laces-project/laces/internal/hitlist"
	"github.com/laces-project/laces/internal/igreedy"
	"github.com/laces-project/laces/internal/manycast"
	"github.com/laces-project/laces/internal/netsim"
	"github.com/laces-project/laces/internal/obs"
	"github.com/laces-project/laces/internal/packet"
	"github.com/laces-project/laces/internal/traceroute"
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

	// PartialAnycast is set by the periodic GCD_IPv4 /32 sweep when the
	// prefix holds both unicast and anycast addresses (§5.7).
	PartialAnycast bool

	// GlobalBGP marks ℳ prefixes whose traceroute screening shows the
	// §5.1.3 signature: forward paths ingress the origin network at two
	// or more PoPs yet terminate at a single server — a globally
	// announced, internally unicast prefix (the paper's Microsoft case;
	// publishing the flag is its stated future work).
	GlobalBGP bool

	// ChaosRecords holds the distinct RFC 4892 identity strings collected
	// from DNS-responsive prefixes when the pipeline's CHAOS census is
	// enabled (§8: "we intend on including it in our daily scanning as it
	// provides insightful information for nameservers").
	ChaosRecords []string
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

	// ReceiverHist buckets today's candidates per protocol by receiving
	// VP count.
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

// CandidatesFor returns the sorted IDs of candidates detected with one
// protocol.
func (c *DailyCensus) CandidatesFor(p packet.Protocol) []int {
	return c.filter(func(e *Entry) bool { return e.ACProtocols[p] })
}

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
	// Protocols probed by the anycast-based stage; default ICMP+TCP+DNS.
	Protocols []packet.Protocol
	// Offset is the inter-worker probe spacing (default 1 s).
	Offset time.Duration
	// Rate is the hitlist rate (targets/s; default manycast.DefaultRate).
	Rate float64
	// IncludeChaos adds a CHAOS TXT identity census over DNS-responsive
	// census prefixes (§8 extension; App C shows the records are a weak
	// anycast indicator but a useful nameserver annotation).
	IncludeChaos bool
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
	// Obs receives the pipeline's telemetry: per-stage laces_stage_*
	// series, one census → stage → shard span tree per RunDaily,
	// operational events, live progress and (when governance is
	// active) the budget decision counters. Nil disables instrumentation.
	// Telemetry never feeds back into measurement: the census document is
	// byte-identical with Obs set or nil.
	Obs *obs.Registry
	// FlightSink receives a flight-recorder JSONL dump when a census run
	// trips a failure trigger (currently: the governance ledger's
	// Spent+Skipped==Demanded reconciliation identity breaking). Requires
	// Obs; nil disables automatic dumps.
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

	feedback [2]map[int]bool // [v4, v6] fed-back target IDs
	baseline [2][]int        // trailing 𝒢 sizes for monitoring

	// ledger is the probe-budget accountant, nil when the configuration
	// carries no budget and no opt-outs (the ungoverned fast path).
	ledger *budget.Ledger
}

// Ledger exposes the pipeline's probe-budget ledger (nil when the
// configuration enables no governance) for monitoring and the CLI.
func (p *Pipeline) Ledger() *budget.Ledger { return p.ledger }

// reportMismatch records a broken Spent+Skipped==Demanded ledger
// identity and dumps the flight recorder. The identity holds by
// construction; breaking it means a stage charged probes outside the
// gate, so it is surfaced loudly rather than silently publishing broken
// accounting.
func (p *Pipeline) reportMismatch(censusSpan *obs.ActiveSpan, day int, total budget.Usage) {
	p.Cfg.Obs.Flight().Record("reconcile_mismatch", "census", censusSpan.Context(),
		total.Demanded-total.Spent-total.Skipped,
		obs.L("day", strconv.Itoa(day)),
		obs.L("demanded", strconv.FormatInt(total.Demanded, 10)),
		obs.L("spent", strconv.FormatInt(total.Spent, 10)),
		obs.L("skipped", strconv.FormatInt(total.Skipped, 10)))
	_ = p.Cfg.Obs.Flight().Dump(p.Cfg.FlightSink, "reconcile_mismatch", nil)
}

// NewPipeline validates the configuration and prepares a pipeline.
func NewPipeline(w *netsim.World, cfg Config) (*Pipeline, error) {
	if cfg.Deployment == nil {
		return nil, fmt.Errorf("core: config needs a deployment")
	}
	if cfg.GCDVPs == nil {
		return nil, fmt.Errorf("core: config needs a GCD VP source")
	}
	if len(cfg.Protocols) == 0 {
		cfg.Protocols = packet.Protocols()
	}
	if cfg.Offset == 0 {
		cfg.Offset = time.Second
	}
	p := &Pipeline{World: w, Cfg: cfg}
	if !cfg.Budget.IsZero() || cfg.OptOut != nil {
		p.ledger = budget.NewLedger(cfg.Budget, cfg.OptOut)
	}
	if cfg.Obs != nil && p.ledger != nil {
		// Bridge the ledger's lifetime decision telemetry into the
		// registry; the ledger itself stays obs-free.
		led := p.ledger
		cfg.Obs.CounterFunc("laces_budget_admitted_total",
			"Targets admitted by the responsible-probing ledger.",
			func() float64 { a, _, _ := led.Decisions(); return float64(a) })
		cfg.Obs.CounterFunc("laces_budget_denied_total",
			"Targets denied by the responsible-probing ledger, by reason.",
			func() float64 { _, d, _ := led.Decisions(); return float64(d) },
			obs.L("reason", "budget"))
		cfg.Obs.CounterFunc("laces_budget_denied_total",
			"Targets denied by the responsible-probing ledger, by reason.",
			func() float64 { _, _, o := led.Decisions(); return float64(o) },
			obs.L("reason", "optout"))
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

// SeedFeedback injects prefixes into the feedback loop — typically the
// result of a GCD_LS sweep (§5.1.1) or operator ground truth.
func (p *Pipeline) SeedFeedback(v6 bool, ids []int) {
	for _, id := range ids {
		p.feedback[famIdx(v6)][id] = true
	}
}

// FeedbackSize returns the current feedback-list length.
func (p *Pipeline) FeedbackSize(v6 bool) int { return len(p.feedback[famIdx(v6)]) }

// RunDaily executes the full pipeline for one census day and family.
// When the day's options carry a chaos plan, the compiled engine is
// installed on the world for the duration of the run; the world must not
// serve concurrent measurements meanwhile.
func (p *Pipeline) RunDaily(day int, v6 bool, dayOpts DayOptions) (*DailyCensus, error) {
	w := p.World
	hl := hitlist.ForDay(w, v6, day)
	start := netsim.DayTime(day)

	// Pipeline telemetry: the run roots one trace, whose census span
	// every stage span is opened under, and a budget reader for the live
	// progress line. Every handle is a no-op when no registry is
	// configured, and nothing below feeds back into the measurement.
	censusSpan := p.Cfg.Obs.StartTrace("census")
	defer censusSpan.End()
	reg := p.Cfg.Obs.Under(censusSpan)
	reg.SetBudgetFunc(func() int64 { return p.ledger.Remaining(day) })

	// Resolve the day's fault plan: site outages become missing workers
	// (dead sites neither transmit nor capture), everything else impairs
	// individual probes through the world hook. Abuse complaints never
	// touch probes — they feed the adaptive rate controller below.
	var missing map[int]bool
	complaints := 0
	if sc := dayOpts.Chaos; sc != nil {
		eng := chaos.NewEngine(w, *sc)
		missing = eng.MissingWorkers(p.Cfg.Deployment, day)
		complaints = eng.ComplaintsOn(day)
		w.SetImpairer(eng)
		defer w.SetImpairer(nil)
		reg.Flight().Record("chaos_active", sc.Name, censusSpan.Context(), int64(len(sc.Impairments)),
			obs.L("day", strconv.Itoa(day)),
			obs.L("missing_workers", strconv.Itoa(len(missing))),
			obs.L("complaints", strconv.Itoa(complaints)))
	}

	// Responsible-probing governance: the admission gate for every
	// measurement stage, and the complaint-driven rate controller that
	// steps the effective hitlist rate down in powers of two (floored at
	// the paper's 1/8th-rate operating point, §5.5.2).
	gate := p.ledger.Gate(day)
	baseRate := p.Cfg.Rate
	if baseRate == 0 {
		baseRate = manycast.DefaultRate
	}
	effRate, rateSteps := budget.StepRate(baseRate, complaints, 0)

	census := &DailyCensus{
		Day:          start,
		DayIndex:     day,
		V6:           v6,
		HitlistSize:  hl.Len(),
		Workers:      manycast.CountParticipants(p.Cfg.Deployment.NumSites(), missing),
		Entries:      make(map[int]*Entry),
		ReceiverHist: make(map[packet.Protocol]map[int]int),
	}

	// Stage 1: anycast-based measurement, one run per protocol (§4.2).
	base := manycast.Options{
		Start:          start,
		Offset:         p.Cfg.Offset,
		Rate:           effRate,
		MeasurementID:  uint16(day),
		MissingWorkers: missing,
		Parallelism:    p.Cfg.Parallelism,
		Gate:           gate,
		Obs:            reg,
	}
	results, err := manycast.MultiProtocol(w, p.Cfg.Deployment, hl, base, p.Cfg.Protocols)
	if err != nil {
		return nil, fmt.Errorf("core: anycast-based stage: %w", err)
	}
	var anycastUsage, gcdUsage budget.Usage
	numTargets := w.NumTargets(v6)
	for proto, res := range results {
		census.ProbesAnycastStage += res.ProbesSent
		anycastUsage.Add(res.Usage)
		census.ReceiverHist[proto] = res.ReceiverHistogram()
		for _, ob := range res.Observations {
			if !ob.IsCandidate() {
				continue
			}
			e := census.entry(w.TargetAt(v6, ob.TargetID))
			e.ACProtocols[proto] = true
			if n := ob.NumReceivers(); n > e.MaxReceivers {
				e.MaxReceivers = n
			}
		}
	}

	// Stage 2: feedback loop — cover anycast-based FNs (§4.3).
	for id := range p.feedback[famIdx(v6)] {
		if id < 0 || id >= numTargets {
			continue
		}
		tg := w.TargetAt(v6, id)
		if tg.HitlistFromDay > hitlist.QuarterOf(day) {
			continue
		}
		if _, ok := census.Entries[id]; !ok {
			census.entry(tg).FromFeedback = true
		}
	}

	// Stage 3: GCD towards candidates only — two orders of magnitude
	// cheaper than a full-hitlist GCD (§4.3). ICMP first; TCP mops up
	// ICMP-unresponsive candidates. DNS is excluded (processing jitter).
	vps, err := p.Cfg.GCDVPs(day, v6)
	if err != nil {
		return nil, fmt.Errorf("core: GCD VP pool: %w", err)
	}
	var icmpIDs, tcpIDs []int
	for id := range census.Entries {
		tg := w.TargetAt(v6, id)
		switch {
		case tg.Responsive[packet.ICMP]:
			icmpIDs = append(icmpIDs, id)
		case tg.Responsive[packet.TCP]:
			tcpIDs = append(tcpIDs, id)
		}
	}
	// The campaigns' outcomes are order-independent, but the governance
	// gate's admission is order-sensitive by design (first come, first
	// charged) — present targets in sorted ID order so the admitted set
	// never depends on map iteration.
	sort.Ints(icmpIDs)
	sort.Ints(tcpIDs)
	for _, part := range []struct {
		proto packet.Protocol
		ids   []int
	}{{packet.ICMP, icmpIDs}, {packet.TCP, tcpIDs}} {
		if len(part.ids) == 0 {
			continue
		}
		rep := gcdmeas.Run(w, part.ids, v6, gcdmeas.Campaign{
			VPs:         vps,
			Proto:       part.proto,
			At:          start.Add(6 * time.Hour),
			Analysis:    igreedy.Options{},
			Parallelism: p.Cfg.Parallelism,
			Gate:        gate,
			Obs:         reg,
		})
		census.ProbesGCDStage += rep.ProbesSent
		gcdUsage.Add(rep.Usage)
		for id, out := range rep.Outcomes {
			e := census.Entries[id]
			e.GCDMeasured = true
			e.GCDProto = part.proto
			e.GCDVPs = out.VPs
			e.GCDAnycast = out.Result.Anycast
			if out.Result.Anycast {
				e.GCDSites = out.Result.NumSites()
				for _, s := range out.Result.Sites {
					e.GCDCities = append(e.GCDCities, s.City.Name)
				}
			}
		}
	}

	// Maintain the feedback loop with today's confirmations (the Fig 3
	// purple arrow).
	for id, e := range census.Entries {
		if e.GCDAnycast {
			p.feedback[famIdx(v6)][id] = true
		}
	}

	// Optional stage 4: CHAOS identity annotation (§8 extension).
	var chaosUsage budget.Usage
	if p.Cfg.IncludeChaos {
		chaosUsage = p.annotateChaos(census, hl, start, gate, reg)
	}

	// Optional stage 5: traceroute screening of ℳ for global-BGP unicast
	// (§5.1.3 future work). Only multi-receiver candidates that GCD
	// measured and judged unicast are worth tracing.
	if p.Cfg.ConfirmGlobalBGP {
		if err := p.screenGlobalBGP(census, vps, start.Add(12*time.Hour)); err != nil {
			return nil, fmt.Errorf("core: global-BGP screening: %w", err)
		}
	}

	// Publish the governance block when any governance was active: a
	// ledger (budget/opt-outs) or complaint-driven rate feedback. With
	// neither, Responsibility stays nil and the document is byte-for-byte
	// what an ungoverned pipeline publishes.
	if p.ledger != nil || rateSteps > 0 {
		resp := &Responsibility{
			Anycast:         anycastUsage,
			GCD:             gcdUsage,
			Chaos:           chaosUsage,
			BudgetRemaining: -1,
			RateSteps:       rateSteps,
		}
		if rateSteps > 0 {
			resp.RateEffective = effRate
		}
		if p.ledger != nil {
			b := p.ledger.Budget()
			resp.BudgetDailyProbes = b.DailyProbes
			resp.BudgetPerASProbes = b.PerASProbes
			resp.BudgetPerPrefixProbes = b.PerPrefixProbes
			resp.BudgetRemaining = p.ledger.Remaining(day)
		}
		total := resp.Total()
		resp.ProbesDemanded = total.Demanded
		resp.ProbesSpent = total.Spent
		resp.ProbesSkipped = total.Skipped
		resp.OptOutProbes = total.OptOutProbes
		resp.OptOutTargets = total.OptOutTargets
		resp.BudgetTargets = total.BudgetTargets
		census.Responsibility = resp
		if !total.Reconciles() {
			p.reportMismatch(censusSpan, day, total)
		}
	}

	census.Alerts = p.monitor(census)
	reg.Counter("laces_census_days_total",
		"Census days completed by this pipeline.").Inc()
	return census, nil
}

// globalBGPVPs caps the traceroute vantage points drawn from the GCD pool
// (the paper's manual confirmation used a handful).
const globalBGPVPs = 12

// screenGlobalBGP traceroutes today's ℳ entries from a spread of the GCD
// pool's vantage points and flags the global-BGP unicast signature.
func (p *Pipeline) screenGlobalBGP(census *DailyCensus, pool []netsim.VP, at time.Time) error {
	vps := spreadVPs(pool, globalBGPVPs)
	if len(vps) == 0 {
		return nil
	}
	// Candidates in ascending target-ID order, not map order: the
	// traceroute stage consumes them sequentially, and a stable order
	// keeps the probe ledger and any mid-stage cutoff reproducible.
	var candIDs []int
	for id, e := range census.Entries {
		if e.InM() && e.MaxReceivers >= 2 && e.GCDMeasured {
			candIDs = append(candIDs, id)
		}
	}
	sort.Ints(candIDs)
	cands := make([]*netsim.Target, 0, len(candIDs))
	for _, id := range candIDs {
		cands = append(cands, p.World.TargetAt(census.V6, id))
	}
	ids, probes, err := traceroute.ConfirmGlobalBGP(p.World, vps, cands, at)
	if err != nil {
		return err
	}
	census.ProbesTracerouteStage += probes
	for _, id := range ids {
		census.Entries[id].GlobalBGP = true
	}
	return nil
}

// spreadVPs picks up to n VPs evenly spaced through the pool (the pool is
// generated with geographic spread, so striding preserves it).
func spreadVPs(pool []netsim.VP, n int) []netsim.VP {
	if len(pool) <= n {
		return pool
	}
	out := make([]netsim.VP, 0, n)
	step := float64(len(pool)) / float64(n)
	for i := 0; i < n; i++ {
		out = append(out, pool[int(float64(i)*step)])
	}
	return out
}

// annotateChaos queries RFC 4892 identities for the census's
// DNS-responsive prefixes from every deployment site and attaches the
// distinct records to the entries. It returns the stage's governance
// accounting (zero when the gate is nil or no entry qualified).
func (p *Pipeline) annotateChaos(census *DailyCensus, hl *hitlist.Hitlist, start time.Time, gate *budget.Gate, reg *obs.Registry) budget.Usage {
	sub := &hitlist.Hitlist{V6: hl.V6, Day: hl.Day}
	for _, e := range hl.Entries {
		if _, ok := census.Entries[e.TargetID]; ok && e.Protocols[packet.DNS] {
			sub.Entries = append(sub.Entries, e)
		}
	}
	if sub.Len() == 0 {
		return budget.Usage{}
	}
	recs, usage := chaosdns.Census(p.World, p.Cfg.Deployment, sub, start.Add(9*time.Hour), gate, p.Cfg.Parallelism, reg)
	for id, o := range recs {
		if !o.Supported {
			continue
		}
		e := census.Entries[id]
		for rec := range o.Records {
			e.ChaosRecords = append(e.ChaosRecords, rec)
		}
		sort.Strings(e.ChaosRecords)
	}
	return usage
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

// ApplySweep marks partial-anycast prefixes found by a GCD_IPv4 address
// sweep (§5.7) on the census.
func (c *DailyCensus) ApplySweep(outcomes []gcdmeas.AddrSweepOutcome, w *netsim.World) {
	for _, o := range outcomes {
		if !o.Partial() {
			continue
		}
		e, ok := c.Entries[o.TargetID]
		if !ok {
			e = c.entry(w.TargetAt(c.V6, o.TargetID))
		}
		e.PartialAnycast = true
	}
}
