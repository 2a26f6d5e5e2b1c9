package core

import (
	"fmt"
	"math/bits"
	"slices"
	"strconv"
	"time"

	"github.com/laces-project/laces/internal/budget"
	"github.com/laces-project/laces/internal/chaos"
	"github.com/laces-project/laces/internal/gcdmeas"
	"github.com/laces-project/laces/internal/hitlist"
	"github.com/laces-project/laces/internal/manycast"
	"github.com/laces-project/laces/internal/netsim"
	"github.com/laces-project/laces/internal/obs"
	"github.com/laces-project/laces/internal/packet"
	"github.com/laces-project/laces/internal/traceroute"
)

// probeOffset is the spacing between consecutive workers' probes to one
// target (§4.2.3: 1 s, "mimicking a regular ping sequence").
const probeOffset = time.Second

// censusDay is one day of one family on its way through the pipeline: the
// conditions begin resolved, the census under construction and what the
// phases hand each other. See the package comment for the lifecycle.
type censusDay struct {
	p   *Pipeline
	w   *netsim.World
	v6  bool
	day int

	// The day's schedule and flow identity: when the anycast-based stage
	// starts, when the GCD campaigns probe, and the measurement ID that
	// seeds the flow headers.
	start, gcdAt time.Time
	mid          uint16
	// everyReply makes a row of every target that answers the
	// anycast-based stage, not only of candidates: a live measurement
	// reports the receiving-VP count whatever it is.
	everyReply bool

	hl      *hitlist.Lists // the quarter's lists, built or kept by begin
	gate    *budget.Gate   // nil when ungoverned
	missing uint64         // deployment sites down today (chaos site outages)
	// rate is the effective hitlist rate after rateSteps complaint-driven
	// halvings of manycast.DefaultRate.
	rate      float64
	rateSteps int
	impaired  bool // begin installed the chaos engine on the world

	// span is the census span; obs is the registry the phases report to
	// and open their own spans in. Both are nil without telemetry.
	span *obs.ActiveSpan
	obs  *obs.Registry

	census       *DailyCensus
	vps          []netsim.VP // the GCD pool, fetched by confirm
	anycast, gcd budget.Usage
}

// RunDaily executes the full pipeline for one census day and family.
// The day's hitlist is the one the pipeline kept from an earlier day of
// the same quarter; the first day of a quarter builds it, and publish
// keeps it. When the day's options carry a chaos plan, the compiled
// engine is installed on the world for the duration of the run; the
// world must not serve concurrent measurements meanwhile. A day that returns an error
// leaves the pipeline as it found it, apart from what its stages charged
// the ledger.
func (p *Pipeline) RunDaily(day int, v6 bool, dayOpts DayOptions) (*DailyCensus, error) {
	d := p.begin(day, v6, dayOpts)
	defer d.end()
	if err := d.detect(packet.Protocols()); err != nil {
		return nil, fmt.Errorf("core: anycast-based stage: %w", err)
	}
	d.feedBack()
	if err := d.confirm(); err != nil {
		return nil, fmt.Errorf("core: GCD VP pool: %w", err)
	}
	if p.Cfg.ConfirmGlobalBGP {
		if err := d.screen(); err != nil {
			return nil, fmt.Errorf("core: global-BGP screening: %w", err)
		}
	}
	d.publish()
	return d.census, nil
}

// Measure is a live measurement of one target (the API's POST
// /v1/measure): a census day whose hitlist is that target — one
// anycast-based round over the first protocol it answers, then the GCD
// confirmation — on the API's own schedule (noon, GCD an hour later) and
// measurement ID rather than the daily census's. It returns the row
// (MaxReceivers is 0 when nothing answered, and 1 for a unicast reply
// that a census would not list) and the probes sent. The measurement is
// ungoverned and uninstrumented, and touches no pipeline state.
func (p *Pipeline) Measure(tg *netsim.Target, day int) (*Entry, int64, error) {
	v6 := tg.Addr.Is6()
	noon := netsim.DayTime(day).Add(12 * time.Hour)
	d := &censusDay{
		p: p, w: p.World, v6: v6, day: day,
		start: noon, gcdAt: noon.Add(time.Hour), mid: uint16(day) ^ 0xa91,
		everyReply: true,
		hl:         (&hitlist.Hitlist{V6: v6, Day: day, Entries: []hitlist.Entry{hitlist.EntryOf(tg)}}).Lists(),
		rate:       manycast.DefaultRate,
		census:     newCensus(day, v6, 1),
	}
	// Like a fed-back prefix, the target is confirmed whether or not the
	// anycast-based round saw it.
	e := d.census.entry(tg)
	var first []packet.Protocol // the first protocol the target answers, if any
	for _, proto := range packet.Protocols() {
		if tg.Responsive[proto] {
			first = []packet.Protocol{proto}
			break
		}
	}
	if err := d.detect(first); err != nil {
		return nil, 0, err
	}
	if err := d.confirm(); err != nil {
		return nil, 0, err
	}
	return e, d.census.ProbesAnycastStage + d.census.ProbesGCDStage, nil
}

func newCensus(day int, v6 bool, hitlistSize int) *DailyCensus {
	return &DailyCensus{
		Day:          netsim.DayTime(day),
		DayIndex:     day,
		V6:           v6,
		HitlistSize:  hitlistSize,
		Entries:      make(map[int]*Entry),
		ReceiverHist: make(map[packet.Protocol]map[int]int),
	}
}

// begin opens the day: the census span first, so everything after it is
// on the trace, then the hitlist and the day's conditions. The hitlist is
// the kept one while the day is in its quarter; otherwise begin builds
// the quarter's, which publish keeps.
func (p *Pipeline) begin(day int, v6 bool, dayOpts DayOptions) *censusDay {
	d := &censusDay{
		p: p, w: p.World, v6: v6, day: day,
		start: netsim.DayTime(day), gcdAt: netsim.DayTime(day).Add(6 * time.Hour), mid: uint16(day),
		span: p.Cfg.Obs.StartTrace("census"), obs: p.Cfg.Obs,
	}
	sp := d.span.Child("hitlist")
	d.hl = p.lists[famIdx(v6)]
	reused := d.hl != nil && d.hl.Day == hitlist.QuarterOf(day)
	if !reused {
		d.hl = hitlist.ForDay(d.w, v6, day).Lists()
		d.obs.Counter("laces_hitlist_builds_total",
			"Quarterly hitlists built by this pipeline, by family.",
			obs.L("family", family(v6))).Inc()
	}
	sp.SetAttr("reused", strconv.FormatBool(reused))
	sp.End()
	d.census = newCensus(day, v6, d.hl.Len)
	d.obs.SetBudgetFunc(func() int64 { return p.ledger.Remaining(day) })

	// Resolve the day's fault plan: site outages become missing workers
	// (dead sites neither transmit nor capture), everything else impairs
	// individual probes through the world hook. Abuse complaints never
	// touch probes — they feed the adaptive rate controller below.
	complaints := 0
	if sc := dayOpts.Chaos; sc != nil {
		eng := chaos.NewEngine(d.w, *sc)
		d.missing = eng.MissingWorkers(p.Cfg.Deployment, day)
		complaints = eng.ComplaintsOn(day)
		d.w.SetImpairer(eng)
		d.impaired = true
		d.obs.Flight().Record("chaos_active", sc.Name, d.span.Context(), int64(len(sc.Impairments)),
			obs.L("day", strconv.Itoa(day)),
			obs.L("missing_workers", strconv.Itoa(bits.OnesCount64(d.missing))),
			obs.L("complaints", strconv.Itoa(complaints)))
	}

	// Responsible-probing governance: the admission gate for every
	// measurement stage, and the complaint-driven rate controller that
	// steps the effective hitlist rate down in powers of two (floored at
	// the paper's 1/8th-rate operating point, §5.5.2).
	d.gate = p.ledger.Gate(day)
	d.rate, d.rateSteps = budget.StepRate(manycast.DefaultRate, complaints, 0)
	return d
}

// end closes what begin opened, on every path out of the day.
func (d *censusDay) end() {
	if d.impaired {
		d.w.SetImpairer(nil)
	}
	d.span.End()
}

// phase opens the named child of the census span and returns it with the
// registry handle under which the phase's stages open their spans.
func (d *censusDay) phase(name string) (*obs.ActiveSpan, *obs.Registry) {
	sp := d.span.Child(name)
	return sp, d.obs.Under(sp)
}

// detect is stage 1: the anycast-based measurement, one run per protocol
// back to back on the day's clock (§4.2), folded into candidate rows. Each
// run's observations are in hitlist order, ascending target ID, so the
// fold walks them.
func (d *censusDay) detect(protos []packet.Protocol) error {
	sp, reg := d.phase("detect")
	defer sp.End()
	results, err := manycast.MultiProtocol(d.w, d.p.Cfg.Deployment, d.hl, manycast.Options{
		Start:          d.start,
		Offset:         probeOffset,
		Rate:           d.rate,
		MeasurementID:  d.mid,
		MissingWorkers: d.missing,
		Parallelism:    d.p.Cfg.Parallelism,
		Gate:           d.gate,
		Obs:            reg,
	}, protos)
	if err != nil {
		return err
	}
	c := d.census
	wk := d.w.Walker(d.v6)
	for _, proto := range protos {
		res := results[proto]
		c.Workers = res.Workers
		c.ProbesAnycastStage += res.ProbesSent
		d.anycast.Add(res.Usage)
		c.ReceiverHist[proto] = res.ReceiverHistogram()
		for _, ob := range res.Observations {
			candidate := ob.IsCandidate()
			if !candidate && !d.everyReply {
				continue
			}
			e := c.entry(wk.At(ob.TargetID))
			e.ACProtocols[proto] = candidate
			e.MaxReceivers = max(e.MaxReceivers, ob.NumReceivers())
		}
	}
	return nil
}

// feedBack is stage 2: the feedback list joins the candidates so
// anycast-based false negatives stay covered (§4.3). It reads the list,
// walking it in ascending target ID; publish is what extends it.
func (d *censusDay) feedBack() {
	sp := d.span.Child("feedback")
	defer sp.End()
	numTargets := d.w.NumTargets(d.v6)
	var ids []int
	for id := range d.p.feedback[famIdx(d.v6)] {
		if id >= 0 && id < numTargets {
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	wk := d.w.Walker(d.v6)
	for _, id := range ids {
		tg := wk.At(id)
		if tg.HitlistFromDay > d.hl.Day {
			continue
		}
		if _, ok := d.census.Entries[id]; !ok {
			d.census.entry(tg).FromFeedback = true
		}
	}
}

// confirm is stage 3: GCD towards the day's rows only — two orders of
// magnitude cheaper than a full-hitlist GCD (§4.3) — under gcdmeas's
// protocol rule. Rows go in ascending target ID, not map order, so what a
// binding budget admits is reproducible.
func (d *censusDay) confirm() error {
	sp, reg := d.phase("confirm")
	defer sp.End()
	vps, err := d.p.Cfg.GCDVPs(d.day, d.v6)
	if err != nil {
		return err
	}
	d.vps = vps
	rep := gcdmeas.Confirm(d.w, d.census.ids(), d.v6, gcdmeas.Campaign{
		VPs:         vps,
		At:          d.gcdAt,
		Parallelism: d.p.Cfg.Parallelism,
		Gate:        d.gate,
		Obs:         reg,
	})
	d.census.ProbesGCDStage += rep.ProbesSent
	d.gcd = rep.Usage
	for id, out := range rep.Outcomes {
		d.census.Entries[id].confirm(out)
	}
	return nil
}

// confirm folds a GCD outcome into the row: the verdict, and for anycast
// the enumerated sites and their cities.
func (e *Entry) confirm(out gcdmeas.TargetOutcome) {
	e.GCDMeasured = true
	e.GCDProto = out.Proto
	e.GCDVPs = out.VPs
	e.GCDAnycast = out.Result.Anycast
	if out.Result.Anycast {
		e.GCDSites = out.Result.NumSites()
		for _, s := range out.Result.Sites {
			e.GCDCities = append(e.GCDCities, s.City.Name)
		}
	}
}

// globalBGPVPs caps the traceroute vantage points drawn from the GCD pool
// (the paper's manual confirmation used a handful).
const globalBGPVPs = 12

// screen is optional stage 4 (§5.1.3 future work): traceroutes from a
// spread of the GCD pool towards the ℳ rows worth tracing — multi-receiver
// candidates that GCD measured and judged unicast — and flags the
// global-BGP unicast signature. It is operator-triggered and outside the
// ledger.
func (d *censusDay) screen() error {
	sp := d.span.Child("screen")
	defer sp.End()
	vps := spreadVPs(d.vps, globalBGPVPs)
	if len(vps) == 0 {
		return nil
	}
	// Ascending target ID: the traceroute stage consumes its candidates
	// sequentially, and a stable order keeps any mid-stage cutoff
	// reproducible.
	var cands []*netsim.Target
	for _, id := range d.census.filter(func(e *Entry) bool {
		return e.InM() && e.MaxReceivers >= 2 && e.GCDMeasured
	}) {
		cands = append(cands, d.w.TargetAt(d.v6, id))
	}
	ids, probes, err := traceroute.ConfirmGlobalBGP(d.w, vps, cands, d.census.Day.Add(12*time.Hour))
	if err != nil {
		return err
	}
	d.census.ProbesTracerouteStage += probes
	for _, id := range ids {
		d.census.Entries[id].GlobalBGP = true
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

// publish closes the day and is the only phase that writes pipeline
// state: the governance block, the day's hitlist as the family's kept
// one, today's confirmations into the feedback list (the Fig 3 purple
// arrow), the monitoring baseline and its alerts.
func (d *censusDay) publish() {
	sp := d.span.Child("publish")
	defer sp.End()
	d.p.lists[famIdx(d.v6)] = d.hl
	c := d.census
	c.Responsibility = d.responsibility()
	feedback := d.p.feedback[famIdx(d.v6)]
	for id, e := range c.Entries {
		if e.GCDAnycast {
			feedback[id] = true
		}
	}
	c.Alerts = d.p.monitor(c)
	d.obs.Counter("laces_census_days_total",
		"Census days completed by this pipeline.").Inc()
}

// responsibility builds the published governance block, or nil when no
// governance was active — neither a ledger (budget / opt-outs) nor
// complaint-driven rate feedback — so the document is byte for byte what
// an ungoverned pipeline publishes.
func (d *censusDay) responsibility() *Responsibility {
	ledger := d.p.ledger
	if ledger == nil && d.rateSteps == 0 {
		return nil
	}
	resp := &Responsibility{
		Anycast:         d.anycast,
		GCD:             d.gcd,
		BudgetRemaining: -1,
		RateSteps:       d.rateSteps,
	}
	if d.rateSteps > 0 {
		resp.RateEffective = d.rate
	}
	if ledger != nil {
		b := ledger.Budget()
		resp.BudgetDailyProbes = b.DailyProbes
		resp.BudgetPerASProbes = b.PerASProbes
		resp.BudgetPerPrefixProbes = b.PerPrefixProbes
		resp.BudgetRemaining = ledger.Remaining(d.day)
	}
	total := resp.Total()
	resp.ProbesDemanded = total.Demanded
	resp.ProbesSpent = total.Spent
	resp.ProbesSkipped = total.Skipped
	resp.OptOutProbes = total.OptOutProbes
	resp.OptOutTargets = total.OptOutTargets
	resp.BudgetTargets = total.BudgetTargets
	if !total.Reconciles() {
		d.p.reportMismatch(d.span, d.day, total)
	}
	return resp
}

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
