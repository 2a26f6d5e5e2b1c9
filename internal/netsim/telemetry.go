package netsim

import "github.com/laces-project/laces/internal/obs"

// telReply and telMiss are the high packed field of one telemetry add:
// each probe, probe train or cache lookup lands as a single striped
// atomic update carrying both halves of its event pair — probes issued +
// replies delivered, or lookup + miss — so the instrumented hot path pays
// one atomic per call, not two. obs.Striped.Split unpacks per stripe, so
// the 32-bit fields are good for ~2.7×10^11 events at uniform spread.
const (
	telReply = int64(1) << 32
	telMiss  = int64(1) << 32
)

// Telemetry is the simulator's probe-level accounting: issued probes,
// delivered replies and routing-cache hit/miss counts, all striped
// counters so the parallel census engine updates them without
// contention. A World carries no telemetry by default; SetTelemetry
// installs it under the same contract as SetImpairer (swap only
// between measurements), and the probe hot path pays a single nil
// check when disabled — the allocation guard in telemetry_test.go pins
// both paths at zero allocs.
//
// Counting never feeds back into routing, latency or responsiveness
// decisions, so census output is byte-identical with telemetry on or
// off.
type Telemetry struct {
	anycast obs.Striped // lo: probes issued, hi: replies delivered
	unicast obs.Striped // lo: probes issued, hi: replies delivered

	// Routing-cache lookups, counted where they happen. The reply cache
	// is consulted once per plan of a single-location target — so once
	// per steady probe train — and once per probe of an Anycast or
	// GlobalUnicast one. A target-catchment lookup is the resolution of
	// one entry of a target's row: a hit when the entry was present, a
	// miss when it was computed. The anycast stage resolves one per probe
	// of an Anycast or GlobalUnicast target, the GCD stage one per VP that
	// passes the day's loss draw to such a target (not one per attempt);
	// a probe train or fan adds its resolutions in one go.
	cacheReply obs.Striped // lo: lookups, hi: misses
	cacheSite  obs.Striped // lo: lookups, hi: misses

	// walk counts Walker derivations on lazy worlds; eager worlds never
	// touch it.
	walk obs.Striped
}

// countProbe records one probe (and its reply, when delivered) with a
// single striped add.
//
//laces:hotpath one atomic add per probe
func countProbe(s *obs.Striped, key uint64, ok bool) {
	n := int64(1)
	if ok {
		n |= telReply
	}
	s.Add(key, n)
}

// countLookup records one cache lookup (and whether it missed) with a
// single striped add.
//
//laces:hotpath one atomic add per cache lookup
func countLookup(s *obs.Striped, key uint64, hit bool) {
	n := int64(1)
	if !hit {
		n |= telMiss
	}
	s.Add(key, n)
}

// ProbesAnycast returns the number of anycast-stage probes issued.
func (t *Telemetry) ProbesAnycast() int64 {
	if t == nil {
		return 0
	}
	p, _ := t.anycast.Split()
	return p
}

// RepliesAnycast returns the number of anycast-stage replies delivered.
func (t *Telemetry) RepliesAnycast() int64 {
	if t == nil {
		return 0
	}
	_, r := t.anycast.Split()
	return r
}

// ProbesUnicast returns the number of unicast (GCD/sweep) probes issued.
func (t *Telemetry) ProbesUnicast() int64 {
	if t == nil {
		return 0
	}
	p, _ := t.unicast.Split()
	return p
}

// RepliesUnicast returns the number of unicast replies delivered.
func (t *Telemetry) RepliesUnicast() int64 {
	if t == nil {
		return 0
	}
	_, r := t.unicast.Split()
	return r
}

// CacheHitsReply returns reply-catchment cache lookups answered from cache.
func (t *Telemetry) CacheHitsReply() int64 {
	if t == nil {
		return 0
	}
	n, m := t.cacheReply.Split()
	return n - m
}

// CacheMissesReply returns reply-catchment cache lookups that recomputed.
func (t *Telemetry) CacheMissesReply() int64 {
	if t == nil {
		return 0
	}
	_, m := t.cacheReply.Split()
	return m
}

// CacheHitsSite returns target-catchment cache lookups answered from cache.
func (t *Telemetry) CacheHitsSite() int64 {
	if t == nil {
		return 0
	}
	n, m := t.cacheSite.Split()
	return n - m
}

// CacheMissesSite returns target-catchment cache lookups that recomputed.
func (t *Telemetry) CacheMissesSite() int64 {
	if t == nil {
		return 0
	}
	_, m := t.cacheSite.Split()
	return m
}

// WalkDerivations returns the targets Walkers derived.
func (t *Telemetry) WalkDerivations() int64 {
	if t == nil {
		return 0
	}
	return t.walk.Value()
}

// Register exposes the telemetry as func-backed registry series, read
// at scrape/snapshot time.
func (t *Telemetry) Register(r *obs.Registry) {
	if t == nil || r == nil {
		return
	}
	probes := "Probes issued against the simulated Internet."
	replies := "Probe replies delivered by the simulated Internet."
	hits := "Routing-cache lookups answered from cache."
	misses := "Routing-cache lookups that recomputed the route."
	r.CounterFunc("laces_netsim_probes_total", probes,
		func() float64 { return float64(t.ProbesAnycast()) }, obs.L("kind", "anycast"))
	r.CounterFunc("laces_netsim_probes_total", probes,
		func() float64 { return float64(t.ProbesUnicast()) }, obs.L("kind", "unicast"))
	r.CounterFunc("laces_netsim_replies_total", replies,
		func() float64 { return float64(t.RepliesAnycast()) }, obs.L("kind", "anycast"))
	r.CounterFunc("laces_netsim_replies_total", replies,
		func() float64 { return float64(t.RepliesUnicast()) }, obs.L("kind", "unicast"))
	r.CounterFunc("laces_netsim_cache_hits_total", hits,
		func() float64 { return float64(t.CacheHitsReply()) }, obs.L("cache", "reply"))
	r.CounterFunc("laces_netsim_cache_hits_total", hits,
		func() float64 { return float64(t.CacheHitsSite()) }, obs.L("cache", "site"))
	r.CounterFunc("laces_netsim_cache_misses_total", misses,
		func() float64 { return float64(t.CacheMissesReply()) }, obs.L("cache", "reply"))
	r.CounterFunc("laces_netsim_cache_misses_total", misses,
		func() float64 { return float64(t.CacheMissesSite()) }, obs.L("cache", "site"))
	r.CounterFunc("laces_netsim_walk_derivations_total",
		"Targets derived by walkers on a lazy world.",
		func() float64 { return float64(t.WalkDerivations()) })
}
