package experiments

import (
	"fmt"
	"io"
	"sort"
	"time"

	"github.com/laces-project/laces/internal/chaosdns"
	"github.com/laces-project/laces/internal/gcdmeas"
	"github.com/laces-project/laces/internal/hitlist"
	"github.com/laces-project/laces/internal/manycast"
	"github.com/laces-project/laces/internal/netsim"
	"github.com/laces-project/laces/internal/packet"
	"github.com/laces-project/laces/internal/platform"
	"github.com/laces-project/laces/internal/stats"
)

// ---------------------------------------------------------------------------
// Fig 5 — false positives by receiving count for probe intervals (§5.1.5)

// Fig5Series is one probing-interval curve.
type Fig5Series struct {
	Label    string
	Interval time.Duration
	// FPsByReceivers buckets unconfirmed candidates (ℳ) by receiving-VP
	// count, 2..16 as in the figure.
	FPsByReceivers map[int]int
	TotalFPs       int
}

// Fig5 compares MAnycast2-style sequential probing (13-minute and 1-minute
// inter-probe intervals) with LACeS synchronized probing (1 s and 0 s).
func (e *Env) Fig5() ([]Fig5Series, error) {
	truth := e.gTruth(dayFig5, false)
	series := []Fig5Series{
		{Label: "MAnycast2 13m", Interval: 13 * time.Minute},
		{Label: "MAnycast2 1m", Interval: time.Minute},
		{Label: "LACeS 1s (synchronous)", Interval: time.Second},
		{Label: "LACeS 0s (synchronous)", Interval: 0},
	}
	for i := range series {
		res, err := e.anycastRun(e.Tangled, dayFig5, false, series[i].Interval, uint16(0x50+i))
		if err != nil {
			return nil, err
		}
		series[i].FPsByReceivers = make(map[int]int)
		for _, obs := range res.Observations {
			if !obs.IsCandidate() || truth[obs.TargetID] {
				continue
			}
			series[i].TotalFPs++
			if n := obs.NumReceivers(); n <= 16 {
				series[i].FPsByReceivers[n]++
			}
		}
	}
	return series, nil
}

// RenderFig5 prints the figure as a table of FP counts per receiving
// bucket.
func RenderFig5(w io.Writer, series []Fig5Series) error {
	t := stats.Table{
		Title:  "Fig 5: false positives by number of receiving VPs and probe interval",
		Header: []string{"# receiving"},
	}
	for _, s := range series {
		t.Header = append(t.Header, s.Label)
	}
	for n := 2; n <= 16; n++ {
		cells := []any{n}
		for _, s := range series {
			cells = append(cells, s.FPsByReceivers[n])
		}
		t.Add(cells...)
	}
	cells := []any{"total FPs"}
	for _, s := range series {
		cells = append(cells, fmtInt(s.TotalFPs))
	}
	t.Add(cells...)
	return t.Render(w)
}

// ---------------------------------------------------------------------------
// Fig 6 — site-enumeration CDF, Ark vs RIPE Atlas (§5.2, App B)

// Fig6Result holds the two platform CDFs plus the hypergiant markers.
type Fig6Result struct {
	ArkVPs     int
	AtlasVPs   int
	Ark        *stats.CDF
	Atlas      *stats.CDF
	Hypergiant map[string]int // operator → max sites enumerated (Ark)
}

// Fig6 runs GCD towards the day's anycast candidates on both platforms and
// builds the per-prefix site-count distributions.
func (e *Env) Fig6() (*Fig6Result, error) {
	c, err := e.DailyCensus(dayFig6, false)
	if err != nil {
		return nil, err
	}
	// Restrict to ICMP-responsive candidates (both platforms ping).
	var ids []int
	for _, id := range c.Candidates() {
		if e.World.TargetAt(false, id).Responsive[packet.ICMP] {
			ids = append(ids, id)
		}
	}
	ark, err := platform.Ark(e.World, dayFig6, false)
	if err != nil {
		return nil, err
	}
	atlasAll, err := platform.Atlas(e.World, 100)
	if err != nil {
		return nil, err
	}
	atlas := platform.Participating(atlasAll, 0xa71a5, 0.93)

	at := netsim.DayTime(dayFig6)
	out := &Fig6Result{ArkVPs: len(ark), AtlasVPs: len(atlas), Hypergiant: make(map[string]int)}
	for platformIdx, vps := range [][]netsim.VP{ark, atlas} {
		rep := gcdmeas.Run(e.World, ids, false, gcdmeas.Campaign{VPs: vps, Proto: packet.ICMP, At: at})
		var counts []int
		for id, o := range rep.Outcomes {
			if !o.Result.Anycast {
				continue
			}
			n := o.Result.NumSites()
			counts = append(counts, n) //laces:allow maporder stats.NewCDF sorts a copy of the values, so accumulation order never reaches the output
			if platformIdx == 0 {
				tg := e.World.TargetAt(false, id)
				if tg.Operator >= 0 {
					name := e.World.Operators[tg.Operator].Name
					if n > out.Hypergiant[name] {
						out.Hypergiant[name] = n
					}
				}
			}
		}
		if platformIdx == 0 {
			out.Ark = stats.NewCDF(counts)
		} else {
			out.Atlas = stats.NewCDF(counts)
		}
	}
	return out, nil
}

// RenderFig6 prints quantiles of both CDFs and the hypergiant markers.
func RenderFig6(w io.Writer, r *Fig6Result) error {
	t := stats.Table{
		Title: fmt.Sprintf("Fig 6: sites detected per prefix — Ark (%d VPs) vs RIPE Atlas (%d VPs)",
			r.ArkVPs, r.AtlasVPs),
		Header: []string{"quantile", "Ark", "Atlas"},
	}
	for _, q := range []float64{0.25, 0.5, 0.75, 0.9, 0.99, 1.0} {
		t.Add(fmt.Sprintf("p%02.0f", q*100), r.Ark.Quantile(q), r.Atlas.Quantile(q))
	}
	if err := t.Render(w); err != nil {
		return err
	}
	t2 := stats.Table{
		Title:  "Hypergiant enumeration (Ark)",
		Header: []string{"operator", "max sites"},
	}
	names := make([]string, 0, len(r.Hypergiant))
	for n := range r.Hypergiant {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		t2.Add(n, r.Hypergiant[n])
	}
	return t2.Render(w)
}

// ---------------------------------------------------------------------------
// Fig 7 / Fig 13 (IPv4) and Fig 14 (IPv6) — protocol coverage (§5.3)

// ProtocolVennResult is the UpSet decomposition of per-protocol candidate
// sets.
type ProtocolVennResult struct {
	V6     bool
	Totals map[string]int
	Rows   []stats.UpSetRow
}

// ProtocolVenn runs the anycast-based stage per protocol and intersects
// the candidate sets.
func (e *Env) ProtocolVenn(v6 bool) (*ProtocolVennResult, error) {
	hl := hitlist.ForDay(e.World, v6, dayFig7)
	results, err := manycast.MultiProtocol(e.World, e.Tangled, hl, manycast.Options{
		Start:         netsim.DayTime(dayFig7),
		Offset:        time.Second,
		MeasurementID: 0x70,
	}, packet.Protocols())
	if err != nil {
		return nil, err
	}
	fam := "v4"
	if v6 {
		fam = "v6"
	}
	names := []string{"ICMP" + fam, "TCP" + fam, "DNS" + fam}
	sets := []stats.Set{
		stats.NewSet(results[packet.ICMP].Candidates()),
		stats.NewSet(results[packet.TCP].Candidates()),
		stats.NewSet(results[packet.DNS].Candidates()),
	}
	out := &ProtocolVennResult{V6: v6, Totals: make(map[string]int)}
	for i, n := range names {
		out.Totals[n] = len(sets[i])
	}
	out.Rows = stats.UpSet(names, sets)
	return out, nil
}

// RenderProtocolVenn prints the UpSet rows.
func RenderProtocolVenn(w io.Writer, r *ProtocolVennResult) error {
	fig := "Fig 7/13"
	if r.V6 {
		fig = "Fig 14"
	}
	t := stats.Table{
		Title:  fig + ": anycast candidates per protocol (exclusive intersections)",
		Header: []string{"set", "count", "share"},
	}
	names := make([]string, 0, len(r.Totals))
	for n := range r.Totals {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		t.Add("total "+n, fmtInt(r.Totals[n]), "")
	}
	for _, row := range r.Rows {
		t.Add(row.Label(), fmtInt(row.Count), fmt.Sprintf("%.1f%%", 100*row.Share))
	}
	return t.Render(w)
}

// ---------------------------------------------------------------------------
// Fig 8 — routing policies (BGP communities, §5.6)

// Fig8Result decomposes candidate sets across announcement policies.
type Fig8Result struct {
	Totals       map[string]int
	GCDConfirmed map[string]int
	Rows         []stats.UpSetRow
}

// Fig8 measures under the three Vultr announcement policies and audits
// each candidate set against ground truth GCD.
func (e *Env) Fig8() (*Fig8Result, error) {
	truth := e.gTruth(dayFig8, false)
	policies := []netsim.RoutingPolicy{netsim.PolicyUnmodified, netsim.PolicyTransitsOnly, netsim.PolicyIXPsOnly}
	names := make([]string, len(policies))
	sets := make([]stats.Set, len(policies))
	out := &Fig8Result{Totals: make(map[string]int), GCDConfirmed: make(map[string]int)}
	for i, pol := range policies {
		d, err := platform.Tangled(e.World, pol)
		if err != nil {
			return nil, err
		}
		res, err := e.anycastRun(d, dayFig8, false, time.Second, uint16(0x80+i))
		if err != nil {
			return nil, err
		}
		names[i] = pol.String()
		sets[i] = stats.NewSet(res.Candidates())
		out.Totals[names[i]] = len(sets[i])
		for id := range sets[i] {
			if truth[id] {
				out.GCDConfirmed[names[i]]++
			}
		}
	}
	out.Rows = stats.UpSet(names, sets)
	return out, nil
}

// RenderFig8 prints policy totals and intersections.
func RenderFig8(w io.Writer, r *Fig8Result) error {
	t := stats.Table{
		Title:  "Fig 8: anycast candidates under different routing policies",
		Header: []string{"announcement", "ACs", "GCD-confirmed"},
	}
	for _, n := range []string{"Unmodified", "Transits-only", "IXPs-only"} {
		t.Add(n, fmtInt(r.Totals[n]), fmtInt(r.GCDConfirmed[n]))
	}
	if err := t.Render(w); err != nil {
		return err
	}
	t2 := stats.Table{
		Title:  "Exclusive intersections",
		Header: []string{"set", "count"},
	}
	for _, row := range r.Rows {
		t2.Add(row.Label(), fmtInt(row.Count))
	}
	return t2.Render(w)
}

// ---------------------------------------------------------------------------
// Fig 11 — RIPE Atlas inter-node distance vs cost and enumeration (App B)

// Fig11Row is one thinning step.
type Fig11Row struct {
	SpacingKm   float64
	VPs         int
	Credits     int64
	CostPct     float64 // probing-cost increase relative to 1000 km
	Enumeration int     // sites enumerated for the reference CDN prefix
	EnumPct     float64 // enumeration increase relative to 1000 km
}

// Fig11 sweeps the Atlas inter-node spacing from 1000 km down to 100 km,
// measuring a wide Cloudflare-like prefix.
func (e *Env) Fig11() ([]Fig11Row, error) {
	// Reference prefix: widest Cloudflare-like deployment.
	cf := e.World.OperatorByName("Cloudflare")
	refID := -1
	wk := e.World.Walker(false)
	for id := range e.World.NumTargets(false) {
		if tg := wk.At(id); tg.Operator == cf && tg.Responsive[packet.ICMP] {
			refID = id
			break
		}
	}
	if refID < 0 {
		return nil, fmt.Errorf("experiments: no Cloudflare-like reference prefix")
	}
	spacings := []float64{1000, 800, 600, 400, 200, 100}
	rows := make([]Fig11Row, 0, len(spacings))
	at := netsim.DayTime(dayFig6)
	for _, sp := range spacings {
		vps, err := platform.Atlas(e.World, sp)
		if err != nil {
			return nil, err
		}
		rep := gcdmeas.Run(e.World, []int{refID}, false, gcdmeas.Campaign{VPs: vps, Proto: packet.ICMP, At: at})
		rows = append(rows, Fig11Row{
			SpacingKm:   sp,
			VPs:         len(vps),
			Credits:     platform.AtlasCredits(1, len(vps), 1),
			Enumeration: rep.Outcomes[refID].Result.NumSites(),
		})
	}
	base := rows[0]
	for i := range rows {
		rows[i].CostPct = 100 * (float64(rows[i].VPs)/float64(base.VPs) - 1)
		rows[i].EnumPct = 100 * (float64(rows[i].Enumeration)/float64(base.Enumeration) - 1)
	}
	return rows, nil
}

// RenderFig11 prints the thinning sweep.
func RenderFig11(w io.Writer, rows []Fig11Row) error {
	t := stats.Table{
		Title:  "Fig 11: probing cost and enumeration vs Atlas inter-node distance",
		Header: []string{"spacing (km)", "VPs", "credits/target", "cost +%", "sites", "enum +%"},
	}
	for _, r := range rows {
		t.Add(int(r.SpacingKm), r.VPs, fmtInt(int(r.Credits)),
			fmt.Sprintf("%+.0f%%", r.CostPct), r.Enumeration, fmt.Sprintf("%+.0f%%", r.EnumPct))
	}
	return t.Render(w)
}

// ---------------------------------------------------------------------------
// Fig 12 — CHAOS vs anycast-based vs GCD enumeration (App C)

// Fig12Row groups nameservers by unique-CHAOS-record count and averages
// the enumeration of the other two methods.
type Fig12Row struct {
	ChaosRecords int
	Nameservers  int
	AvgAnycast   float64 // mean receiving-VP count (anycast-based)
	AvgGCD       float64 // mean GCD site count
}

// Fig12Result carries the rows plus the App C census statistics.
type Fig12Result struct {
	Rows  []Fig12Row
	Stats chaosdns.Stats
}

// Fig12 runs the three methodologies side by side on the nameserver
// hitlist with the same 32-VP deployment.
func (e *Env) Fig12() (*Fig12Result, error) {
	hl := hitlist.ForDay(e.World, false, dayChaos)
	at := netsim.DayTime(dayChaos)
	chaos, _ := chaosdns.Census(e.World, e.Tangled, hl, at, nil, 0, nil)

	// Anycast-based receiving counts (DNS probing).
	res, err := manycast.Run(e.World, e.Tangled, hl, manycast.Options{
		Protocol:      packet.DNS,
		Start:         at.Add(2 * time.Hour),
		Offset:        time.Second,
		MeasurementID: 0xc0,
	})
	if err != nil {
		return nil, err
	}
	recv := make(map[int]int)
	for _, obs := range res.Observations {
		recv[obs.TargetID] = obs.NumReceivers()
	}

	// GCD enumeration with the same deployment's sites as unicast VPs.
	var vps []netsim.VP
	for i, name := range platform.TangledCities() {
		vp, err := e.World.NewVP(fmt.Sprintf("tangled-gcd-%02d", i), name, 0)
		if err != nil {
			return nil, err
		}
		vps = append(vps, vp)
	}
	var dnsIDs []int
	for id, obs := range chaos {
		if obs.Supported && e.World.TargetAt(false, id).Responsive[packet.ICMP] {
			dnsIDs = append(dnsIDs, id)
		}
	}
	// Probe in ascending ID order, not map order, so the campaign is
	// byte-reproducible run to run.
	sort.Ints(dnsIDs)
	rep := gcdmeas.Run(e.World, dnsIDs, false, gcdmeas.Campaign{VPs: vps, Proto: packet.ICMP, At: at})

	type acc struct {
		n, any, gcd int
	}
	buckets := make(map[int]*acc)
	for id, obs := range chaos {
		if !obs.Supported {
			continue
		}
		k := obs.UniqueRecords()
		b, ok := buckets[k]
		if !ok {
			b = &acc{}
			buckets[k] = b
		}
		b.n++
		b.any += recv[id]
		if o, ok := rep.Outcomes[id]; ok {
			b.gcd += o.Result.NumSites()
		}
	}
	out := &Fig12Result{Stats: chaosdns.Summarize(chaos)}
	keys := make([]int, 0, len(buckets))
	for k := range buckets {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	for _, k := range keys {
		b := buckets[k]
		out.Rows = append(out.Rows, Fig12Row{
			ChaosRecords: k,
			Nameservers:  b.n,
			AvgAnycast:   float64(b.any) / float64(b.n),
			AvgGCD:       float64(b.gcd) / float64(b.n),
		})
	}
	return out, nil
}

// RenderFig12 prints the comparison.
func RenderFig12(w io.Writer, r *Fig12Result) error {
	t := stats.Table{
		Title: fmt.Sprintf("Fig 12: enumeration by methodology (nameservers=%d, no CHAOS=%d, multi-record=%d)",
			r.Stats.Probed, r.Stats.Unsupported, r.Stats.MultiRecord),
		Header: []string{"unique CHAOS records", "nameservers", "avg anycast-based VPs", "avg GCD sites"},
	}
	for _, row := range r.Rows {
		t.Add(row.ChaosRecords, row.Nameservers,
			fmt.Sprintf("%.1f", row.AvgAnycast), fmt.Sprintf("%.1f", row.AvgGCD))
	}
	return t.Render(w)
}

// ---------------------------------------------------------------------------
// §5.7 — GCD_IPv4 /32 sweep: partial anycast

// SweepResult summarises the address-granularity sweep.
type SweepResult struct {
	AnycastPrefixes int // /24s with any anycast address
	Partial         int // of which the representative is unicast
	PartialPct      float64
	Probes          int64
}

// PartialAnycastSweep runs the GCD_IPv4-style sweep with 13 VPs over all
// prefixes originated by operators with global backbones (the candidate
// population for partial anycast) plus a unicast control sample.
func (e *Env) PartialAnycastSweep() (*SweepResult, error) {
	ark, err := platform.Ark(e.World, daySweep, false)
	if err != nil {
		return nil, err
	}
	vps := ark[:13] // §5.7: "we used 13 VPs spanning multiple continents"
	var ids []int
	e.World.IterTargets(false, 0, func(batch []netsim.Target) bool {
		for i := range batch {
			if tg := &batch[i]; tg.Operator >= 0 || tg.Kind == netsim.PartialAnycast {
				ids = append(ids, tg.ID)
			}
		}
		return true
	})
	outcomes, probes, _ := gcdmeas.SweepAddrs(e.World, ids, false, gcdmeas.DefaultSweepOffsets(),
		gcdmeas.Campaign{VPs: vps, Proto: packet.ICMP, At: netsim.DayTime(daySweep)})
	res := &SweepResult{Probes: probes}
	for _, o := range outcomes {
		res.AnycastPrefixes++
		if o.Partial() {
			res.Partial++
		}
	}
	if res.AnycastPrefixes > 0 {
		res.PartialPct = 100 * float64(res.Partial) / float64(res.AnycastPrefixes)
	}
	return res, nil
}

// RenderSweep prints the §5.7 summary.
func RenderSweep(w io.Writer, r *SweepResult) error {
	_, err := fmt.Fprintf(w, "GCD_IPv4 sweep (§5.7): %s /24s with anycast addresses, %s partial anycast (%.1f%%), %s probes\n",
		fmtInt(r.AnycastPrefixes), fmtInt(r.Partial), r.PartialPct, fmtInt(int(r.Probes)))
	return err
}
