// Package longitudinal runs the 17+month daily census of §5.1.6 and §7:
// it drives the core pipeline day by day across the census timeline,
// injects the operational events the paper reports (the Sep–Dec 2024 DNS
// tooling bug, pre-July-2025 worker disconnections, periodic GCD_LS
// reruns, Ark growth), and aggregates the per-day series and persistence
// statistics behind Figures 9 and 10.
package longitudinal

import (
	"fmt"
	"sort"

	"github.com/laces-project/laces/internal/archive"
	"github.com/laces-project/laces/internal/chaos"
	"github.com/laces-project/laces/internal/core"
	"github.com/laces-project/laces/internal/netsim"
	"github.com/laces-project/laces/internal/packet"
	"github.com/laces-project/laces/internal/platform"
	"github.com/laces-project/laces/internal/stats"
)

// Events configures the operational incidents of the census period.
//
// For backwards compatibility, Run substitutes DefaultEvents() when it
// receives an all-zero Events value; callers that want a genuinely
// incident-free census say so explicitly with NoEvents() (the None field),
// instead of the former workaround of passing -1 sentinels.
type Events struct {
	// None explicitly requests an incident-free census: Run applies no
	// default calendar and every other field is ignored.
	None bool
	// DNSOutage is the window during which the tooling incorrectly
	// flagged all DNS replies invalid (§7: Sep 19 – Dec 24, 2024 ≈ census
	// days 182–278). The zero range means no outage.
	DNSOutage netsim.DayRange
	// WorkerLossFixDay is the day automatic reconnects shipped (§7,
	// July 2025); before it, workers intermittently drop out.
	WorkerLossFixDay int
	// WorkerLossPeriod spaces the pre-fix loss events (days).
	WorkerLossPeriod int
	// GCDLSDays are the census days on which a full-hitlist GCD_LS sweep
	// reruns and reseeds the feedback loop (§5.1.1: Feb '24, Dec '24,
	// Aug '25 — the first lands before census start, modelled as day 0).
	GCDLSDays []int
}

// DefaultEvents returns the paper's event calendar.
func DefaultEvents() Events {
	return Events{
		DNSOutage:        netsim.DayRange{From: 182, To: 278},
		WorkerLossFixDay: 480,
		WorkerLossPeriod: 23,
		GCDLSDays:        []int{0, 270, 510},
	}
}

// NoEvents returns an explicitly empty event calendar: Run executes a
// clean census instead of substituting DefaultEvents().
func NoEvents() Events { return Events{None: true} }

// isZero reports whether the calendar is the ambiguous all-zero value.
func (ev Events) isZero() bool {
	return !ev.None && ev.WorkerLossPeriod == 0 && ev.WorkerLossFixDay == 0 &&
		len(ev.GCDLSDays) == 0 && ev.DNSOutage == (netsim.DayRange{})
}

// Scenario re-expresses the calendar's operational incidents as a chaos
// scenario bundle over the census timeline: the DNS tooling bug becomes a
// DNS-scoped blackhole and each pre-fix worker-loss day a one-day site
// outage — the same faults the per-day booleans used to inject, now
// composable with any other impairment. `sites` is the deployment size the
// loss events are drawn over.
func (ev Events) Scenario(sites int) chaos.Scenario {
	sc := chaos.Scenario{
		Name:        "paper-incidents",
		Description: "the operational incidents of the paper's 17-month census (§7)",
	}
	if ev.None {
		return sc
	}
	if ev.DNSOutage != (netsim.DayRange{}) {
		sc.Impairments = append(sc.Impairments, chaos.Impairment{
			Kind:  chaos.Blackhole,
			Scope: chaos.Scope{Days: ev.DNSOutage, Protocols: []packet.Protocol{packet.DNS}},
		})
	}
	for day := 0; day < ev.WorkerLossFixDay; day++ {
		missing := missingWorkers(ev, day, sites)
		if len(missing) == 0 {
			continue
		}
		workers := make([]int, 0, len(missing))
		for wk := range missing {
			workers = append(workers, wk)
		}
		sort.Ints(workers)
		sc.Impairments = append(sc.Impairments, chaos.Impairment{
			Kind:  chaos.SiteOutage,
			Scope: chaos.Scope{Days: chaos.Days(day, day), Workers: workers},
		})
	}
	return sc
}

// Config parameterises a longitudinal run.
type Config struct {
	// Days is the census length (default 534, §5.1.6).
	Days int
	// Stride runs every Nth day; 1 is a full daily census. Larger strides
	// keep experiment wall-clock bounded; persistence counts scale by the
	// stride.
	Stride int
	// Families selects address families; default both.
	V4Only bool
	Events Events
	// Sink, when set, receives each finished day's published document as
	// it completes — typically an archive.Writer, which delta-encodes the
	// stream to disk. The runner itself never retains a census beyond the
	// day it ran: History is built from per-day summaries, so peak memory
	// stays O(1) in census size regardless of the day count.
	Sink archive.Sink
}

// DaySummary is the per-day census digest feeding Fig 9.
type DaySummary struct {
	Day     int
	V6      bool
	Hitlist int
	Workers int
	// AC counts per anycast-based protocol.
	AC map[packet.Protocol]int
	// GCD-confirmed counts split by the latency protocol used.
	GCD map[packet.Protocol]int
	// Totals.
	GTotal, MTotal int
	Alerts         int
}

// History is the outcome of a longitudinal run.
type History struct {
	Cfg  Config
	Days []int // the executed census days

	SummariesV4 []DaySummary
	SummariesV6 []DaySummary

	// daysAnycast counts, per family and target, the number of executed
	// runs in which the census carried the prefix as anycast (𝒢 ∪ ℳ) —
	// the basis of Fig 10.
	daysAnycast [2]map[int]int
	// daysG is the same restricted to GCD confirmation (§5.1.6).
	daysG [2]map[int]int

	// GCDLS records the periodic sweep sizes (§7's 13,684 / 13,692 /
	// 13,514 sequence at paper scale).
	GCDLS []GCDLSRun
}

// GCDLSRun records one periodic full sweep.
type GCDLSRun struct {
	Day     int
	V6      bool
	Anycast int
}

func famIdx(v6 bool) int {
	if v6 {
		return 1
	}
	return 0
}

// Run executes the longitudinal census over the configured day range.
func Run(w *netsim.World, cfg Config) (*History, error) {
	if cfg.Days <= 0 {
		cfg.Days = 534
	}
	if cfg.Stride <= 0 {
		cfg.Stride = 1
	}
	if cfg.Events.isZero() {
		cfg.Events = DefaultEvents()
	}
	dep, err := platform.Tangled(w, netsim.PolicyUnmodified)
	if err != nil {
		return nil, err
	}
	pipe, err := core.NewPipeline(w, core.Config{
		Deployment: dep,
		GCDVPs: func(day int, v6 bool) ([]netsim.VP, error) {
			// The first two census months used TANGLED itself for GCD;
			// since June 2024 (≈ day 72) the pipeline uses Ark (§4.3).
			if day < 72 {
				return vultrVPs(w)
			}
			vps, err := platform.Ark(w, day, v6)
			if err != nil {
				return nil, err
			}
			// Day-to-day monitor participation varies, with occasional
			// platform-wide bad days (the paper's monitoring "warns when
			// few VPs participate"). Marginally confirmed prefixes drop
			// out of 𝒢 on those days, which is why the paper's GCD core
			// is 58% of its union rather than ~100% (§5.1.6).
			return platform.Participating(vps, uint64(day)*0x9e37+uint64(famIdx(v6)), arkParticipation(day)), nil
		},
	})
	if err != nil {
		return nil, err
	}

	h := &History{Cfg: cfg}
	h.daysAnycast[0] = make(map[int]int)
	h.daysAnycast[1] = make(map[int]int)
	h.daysG[0] = make(map[int]int)
	h.daysG[1] = make(map[int]int)

	families := []bool{false}
	if !cfg.V4Only {
		families = []bool{false, true}
	}
	gcdlsAt := make(map[int]bool, len(cfg.Events.GCDLSDays))
	for _, d := range cfg.Events.GCDLSDays {
		gcdlsAt[d] = true
	}

	// The calendar's incidents, re-expressed once as a chaos scenario
	// bundle; the pipeline resolves the impairments active on each day.
	incidents := cfg.Events.Scenario(dep.NumSites())

	for day := 0; day < cfg.Days; day += cfg.Stride {
		// Periodic GCD_LS sweeps reseed the feedback loop.
		if covered(gcdlsAt, day, cfg.Stride) {
			for _, v6 := range families {
				vps, err := platform.Ark(w, day, v6)
				if err != nil {
					return nil, err
				}
				ls := core.RunGCDLS(w, vps, v6, day)
				pipe.SeedFeedback(v6, ls.IDs())
				h.GCDLS = append(h.GCDLS, GCDLSRun{Day: day, V6: v6, Anycast: len(ls.Anycast)})
			}
		}
		var opts core.DayOptions
		if incidents.ActiveOn(day) {
			// Only incident days pay for the fault-injection hook; clean
			// days keep the nil-impairer fast path.
			opts.Chaos = &incidents
		}
		for _, v6 := range families {
			c, err := pipe.RunDaily(day, v6, opts)
			if err != nil {
				return nil, fmt.Errorf("longitudinal: day %d v6=%v: %w", day, v6, err)
			}
			h.record(c)
			if cfg.Sink != nil {
				if err := cfg.Sink.Append(day, c.Document()); err != nil {
					return nil, fmt.Errorf("longitudinal: archiving day %d v6=%v: %w", day, v6, err)
				}
			}
		}
		h.Days = appendUnique(h.Days, day)
	}
	return h, nil
}

// covered reports whether an event day falls inside the stride window
// starting at day.
func covered(at map[int]bool, day, stride int) bool {
	for d := day; d < day+stride; d++ {
		if at[d] {
			return true
		}
	}
	return false
}

// arkParticipation returns the fraction of the Ark pool returning samples
// on a census day: normally 92–98%, with platform-wide bad days (roughly
// one day in 23) dipping to 55–80%.
func arkParticipation(day int) float64 {
	h := uint64(day)*0x9e3779b97f4a7c15 + 0x1ace5
	h ^= h >> 29
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 32
	u := float64(h>>11) / (1 << 53)
	if day%23 == 17 {
		return 0.55 + 0.25*u
	}
	return 0.92 + 0.06*u
}

// vultrVPs returns unicast VPs co-located with the TANGLED sites (the
// early-census GCD platform).
func vultrVPs(w *netsim.World) ([]netsim.VP, error) {
	var out []netsim.VP
	for i, name := range platformVultrMetros() {
		vp, err := w.NewVP(fmt.Sprintf("tangled-vp-%02d", i), name, 0)
		if err != nil {
			return nil, err
		}
		out = append(out, vp)
	}
	return out, nil
}

// missingWorkers models the pre-fix worker disconnections (§7): before
// WorkerLossFixDay, every WorkerLossPeriod-th day loses a deterministic
// handful of sites. Events.Scenario compiles these into SiteOutage
// impairments.
func missingWorkers(ev Events, day, sites int) map[int]bool {
	if ev.WorkerLossPeriod <= 0 || day >= ev.WorkerLossFixDay {
		return nil
	}
	if day%ev.WorkerLossPeriod != ev.WorkerLossPeriod/2 {
		return nil
	}
	// Deterministic selection: 2 + day%7 lost sites.
	n := 2 + day%7
	out := make(map[int]bool, n)
	for i := 0; i < n; i++ {
		out[(day*7+i*5)%sites] = true
	}
	return out
}

// record folds one daily census into the history.
func (h *History) record(c *core.DailyCensus) {
	s := DaySummary{
		Day:     c.DayIndex,
		V6:      c.V6,
		Hitlist: c.HitlistSize,
		Workers: c.Workers,
		AC:      make(map[packet.Protocol]int),
		GCD:     make(map[packet.Protocol]int),
		Alerts:  len(c.Alerts),
	}
	fam := famIdx(c.V6)
	for _, e := range c.Entries {
		for p := range e.ACProtocols {
			if e.ACProtocols[p] {
				s.AC[packet.Protocol(p)]++
			}
		}
		if e.InG() {
			s.GCD[e.GCDProto]++
			s.GTotal++
			h.daysG[fam][e.TargetID]++
		}
		if e.InG() || e.InM() {
			h.daysAnycast[fam][e.TargetID]++
		}
		if e.InM() {
			s.MTotal++
		}
	}
	if c.V6 {
		h.SummariesV6 = append(h.SummariesV6, s)
	} else {
		h.SummariesV4 = append(h.SummariesV4, s)
	}
}

// Summaries returns the per-day series for one family.
func (h *History) Summaries(v6 bool) []DaySummary {
	if v6 {
		return h.SummariesV6
	}
	return h.SummariesV4
}

// SeriesAC returns the Fig 9 (top) series: AC counts per day for one
// protocol.
func (h *History) SeriesAC(v6 bool, p packet.Protocol) (days, counts []int) {
	for _, s := range h.Summaries(v6) {
		days = append(days, s.Day)
		counts = append(counts, s.AC[p])
	}
	return
}

// SeriesGCD returns the Fig 9 (bottom) series: GCD-confirmed counts per
// day for one latency protocol.
func (h *History) SeriesGCD(v6 bool, p packet.Protocol) (days, counts []int) {
	for _, s := range h.Summaries(v6) {
		days = append(days, s.Day)
		counts = append(counts, s.GCD[p])
	}
	return
}

// PersistenceCDF returns the Fig 10 distribution: for each prefix ever
// seen as anycast, the number of executed runs it was detected on
// (multiply by the stride for calendar days).
func (h *History) PersistenceCDF(v6 bool) *stats.CDF {
	var vals []int
	for _, n := range h.daysAnycast[famIdx(v6)] {
		vals = append(vals, n) //laces:allow maporder stats.NewCDF sorts a copy of the values, so accumulation order never reaches the output
	}
	return stats.NewCDF(vals)
}

// UnionAnycast returns how many prefixes were carried as anycast on at
// least one run (§5.1.6's 203 k at paper scale), and how many on every
// run.
func (h *History) UnionAnycast(v6 bool) (union, everyDay int) {
	runs := len(h.Summaries(v6))
	for _, n := range h.daysAnycast[famIdx(v6)] {
		union++
		if n == runs {
			everyDay++
		}
	}
	return
}

// UnionG returns the same statistics restricted to GCD confirmation.
func (h *History) UnionG(v6 bool) (union, everyDay int) {
	runs := len(h.Summaries(v6))
	for _, n := range h.daysG[famIdx(v6)] {
		union++
		if n == runs {
			everyDay++
		}
	}
	return
}

// DaysDetected exposes the per-target run counts for one family.
func (h *History) DaysDetected(v6 bool) map[int]int {
	return h.daysAnycast[famIdx(v6)]
}

func appendUnique(s []int, v int) []int {
	if len(s) > 0 && s[len(s)-1] == v {
		return s
	}
	return append(s, v)
}

// platformVultrMetros avoids an import cycle with the cities package by
// delegating to platform's canonical list.
func platformVultrMetros() []string { return platform.TangledCities() }
