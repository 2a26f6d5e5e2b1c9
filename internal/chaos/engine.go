package chaos

import (
	"time"

	"github.com/laces-project/laces/internal/cities"
	"github.com/laces-project/laces/internal/netsim"
	"github.com/laces-project/laces/internal/packet"
)

// Engine is a Scenario compiled against a World: it implements
// netsim.Impairer, turning scope lists into constant-time set lookups.
// Install it with World.SetImpairer (the census pipeline does this for the
// duration of a day's run when DayOptions carries a chaos plan).
//
// Every verdict is a pure function of (world seed, impairment position,
// probe identity): two runs with the same seed and scenario impair exactly
// the same probes.
type Engine struct {
	seed   uint64
	sc     Scenario
	comp   []compiled
	contOf []cities.Continent // continent per world city index
}

// compiled is one impairment with its scope lists turned into lookups.
type compiled struct {
	kind                Kind
	frac                float64
	delay, jitter, skew time.Duration

	days    netsim.DayRange
	allDays bool
	salt    uint64

	workers      map[int]bool // nil = all sites
	workerScoped bool         // site-index scope set (anycast-only)
	protoMask    uint8        // 0 = all protocols
	wCont        uint8        // worker continent bitmask, 0 = all
}

// NewEngine compiles a scenario against a world.
func NewEngine(w *netsim.World, sc Scenario) *Engine {
	all := w.DB.All()
	e := &Engine{seed: w.Seed(), sc: sc, contOf: make([]cities.Continent, len(all))}
	for i, c := range all {
		e.contOf[i] = c.Continent
	}
	e.comp = make([]compiled, 0, len(sc.Impairments))
	for i, imp := range sc.Impairments {
		c := compiled{
			kind:    imp.Kind,
			frac:    imp.Frac,
			delay:   imp.Delay,
			jitter:  imp.Jitter,
			skew:    imp.Skew,
			days:    imp.Scope.Days,
			allDays: allDays(imp.Scope.Days),
			// The salt folds the impairment's position and kind so two
			// impairments of one scenario never share hash streams.
			salt: mix(0xc4a05, uint64(i), uint64(imp.Kind)),
		}
		if imp.Scope.Workers != nil {
			c.workerScoped = true
			c.workers = make(map[int]bool, len(imp.Scope.Workers))
			for _, wk := range imp.Scope.Workers {
				c.workers[wk] = true
			}
		}
		for _, p := range imp.Scope.Protocols {
			c.protoMask |= 1 << uint(p)
		}
		for _, ct := range imp.Scope.WorkerContinents {
			c.wCont |= 1 << uint(ct)
		}
		e.comp = append(e.comp, c)
	}
	return e
}

// matchCommon checks the day window and the protocol scope.
func (c *compiled) matchCommon(day int, proto packet.Protocol) bool {
	return (c.allDays || c.days.Contains(day)) &&
		(c.protoMask == 0 || c.protoMask&(1<<uint(proto)) != 0)
}

// ImpairAnycast implements netsim.Impairer for the anycast-based stage.
func (e *Engine) ImpairAnycast(d *netsim.Deployment, worker int, tg *netsim.Target, ctx netsim.ProbeCtx) netsim.ProbeImpairment {
	day := netsim.DayOf(ctx.At)
	at := uint64(ctx.At.UnixNano())
	var out netsim.ProbeImpairment
	for i := range e.comp {
		c := &e.comp[i]
		if !c.matchCommon(day, ctx.Flow.Proto) {
			continue
		}
		if c.workers != nil && !c.workers[worker] {
			continue
		}
		if c.wCont != 0 && c.wCont&(1<<uint(e.contOf[d.Sites[worker].CityIdx])) == 0 {
			continue
		}
		switch c.kind {
		case Blackhole, Partition, SiteOutage:
			// SiteOutage here covers direct engine installs; the census
			// pipeline additionally resolves outages via MissingWorkers so
			// replies routed towards dead sites are lost too.
			out.Drop = true
			return out
		case Loss:
			if chance(mix(e.seed, c.salt, uint64(tg.ID), uint64(worker), at), c.frac) {
				out.Drop = true
				return out
			}
		case Throttle:
			// Coarse keying: a throttled (target, worker) pair stays
			// throttled for the day — sustained rate limiting.
			if chance(mix(e.seed, c.salt, uint64(tg.ID), uint64(worker), uint64(day)), c.frac) {
				out.Drop = true
				return out
			}
		case Delay:
			out.ExtraRTT += c.delay +
				time.Duration(unitFloat(mix(e.seed, c.salt, uint64(tg.ID), uint64(worker), at))*float64(c.jitter))
		case ClockSkew:
			out.TimeShift += c.skew
		case RouteFlap:
			h := mix(e.seed, c.salt, uint64(tg.ID), uint64(worker), uint64(ctx.At.Unix()/60))
			if chance(h, c.frac) {
				// Shift uniformly in (-Skew, +Skew): probes land in
				// neighbouring stability epochs, so workers disagree.
				out.TimeShift += time.Duration((unitFloat(splitmix64(h))*2 - 1) * float64(c.skew))
			}
		}
	}
	return out
}

// ImpairUnicast implements netsim.Impairer for the latency (GCD) stage.
// Worker-index scopes and the worker-only kinds (SiteOutage, ClockSkew,
// RouteFlap) never apply to unicast vantage points.
func (e *Engine) ImpairUnicast(vp netsim.VP, tg *netsim.Target, proto packet.Protocol, at time.Time) netsim.ProbeImpairment {
	day := netsim.DayOf(at)
	atKey := uint64(at.UnixNano())
	vpKey := uint64(0) // hashed lazily: most probes match no impairment
	var out netsim.ProbeImpairment
	for i := range e.comp {
		c := &e.comp[i]
		if c.workerScoped {
			continue
		}
		switch c.kind {
		case SiteOutage, ClockSkew, RouteFlap, AbuseComplaint:
			continue
		}
		if !c.matchCommon(day, proto) {
			continue
		}
		if c.wCont != 0 && c.wCont&(1<<uint(e.contOf[vp.CityIdx])) == 0 {
			continue
		}
		if vpKey == 0 {
			vpKey = hashString(vp.Name)
		}
		switch c.kind {
		case Blackhole, Partition:
			out.Drop = true
			return out
		case Loss:
			if chance(mix(e.seed, c.salt, uint64(tg.ID), vpKey, atKey), c.frac) {
				out.Drop = true
				return out
			}
		case Throttle:
			if chance(mix(e.seed, c.salt, uint64(tg.ID), vpKey, uint64(day)), c.frac) {
				out.Drop = true
				return out
			}
		case Delay:
			out.ExtraRTT += c.delay +
				time.Duration(unitFloat(mix(e.seed, c.salt, uint64(tg.ID), vpKey, atKey))*float64(c.jitter))
		}
	}
	return out
}

// MissingWorkers resolves the deployment sites disconnected on census day
// `day` by active SiteOutage impairments, as the site mask (bit i = site
// i) manycast.Options.MissingWorkers takes; zero when none are. The
// census pipeline feeds it into the measurement so dead sites neither
// transmit nor capture.
func (e *Engine) MissingWorkers(d *netsim.Deployment, day int) uint64 {
	var out uint64
	for i := range e.comp {
		c := &e.comp[i]
		if c.kind != SiteOutage || (!c.allDays && !c.days.Contains(day)) {
			continue
		}
		for wk := 0; wk < d.NumSites(); wk++ {
			if c.workers != nil && !c.workers[wk] {
				continue
			}
			if c.wCont != 0 && c.wCont&(1<<uint(e.contOf[d.Sites[wk].CityIdx])) == 0 {
				continue
			}
			out |= 1 << uint(wk)
		}
	}
	return out
}

// ComplaintsOn counts the AbuseComplaint impairments active on census
// day `day` — the signal the governance layer's adaptive rate controller
// (budget.StepRate) consumes. Complaints never impair individual probes;
// they only step the day's effective probing rate down.
func (e *Engine) ComplaintsOn(day int) int {
	n := 0
	for i := range e.comp {
		c := &e.comp[i]
		if c.kind == AbuseComplaint && (c.allDays || c.days.Contains(day)) {
			n++
		}
	}
	return n
}

// ---------------------------------------------------------------------------
// Deterministic hashing, mirroring netsim's conventions (netsim keeps its
// mixers private; the streams here are salted differently anyway so the
// engine never replays a routing decision's hash).

// splitmix64 is the SplitMix64 finalizer.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// mix hashes a sequence of 64-bit values into one.
func mix(vals ...uint64) uint64 {
	h := uint64(0x9e6c63d0876a9a47)
	for _, v := range vals {
		h = splitmix64(h ^ v)
	}
	return h
}

// unitFloat maps a hash to [0, 1).
func unitFloat(h uint64) float64 { return float64(h>>11) / (1 << 53) }

// chance reports whether the event keyed by h occurs with probability p.
func chance(h uint64, p float64) bool { return unitFloat(h) < p }

// hashString folds a string into a uint64 (FNV-1a).
func hashString(s string) uint64 {
	var h uint64 = 0xcbf29ce484222325
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 0x100000001b3
	}
	return h
}
