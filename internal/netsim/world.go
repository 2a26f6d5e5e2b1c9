package netsim

import (
	"fmt"
	"time"

	"github.com/laces-project/laces/internal/cities"
	"github.com/laces-project/laces/internal/obs"
	"github.com/laces-project/laces/internal/packet"
)

// World is the simulated Internet: ASes, targets (the hitlist universe),
// modelled operators, BGP announcements, and a deterministic routing and
// latency model on top. A World is immutable after New and safe for
// concurrent use — the routing memoisation behind probes is sharded
// (see cache.go), so the parallel census engine can probe from every core
// without serialising on a global lock. The exceptions remain SetImpairer
// and Instrument: they swap the fault-injection and telemetry hooks and
// must not race with in-flight probes.
type World struct {
	Cfg Config
	DB  *cities.DB

	ASes      []AS
	Operators []Operator

	seed    uint64
	opASNs  map[ASN]bool
	asIdx   map[ASN]int
	cityIdx map[string]int
	nCities int
	dist    []float64 // nCities × nCities great circle km

	// Per-city placement tables (buildCities), indexed by database index.
	cityHash   []uint64  // hashString(Name)
	cityWeight []float64 // Population^0.25, generic placement's score weight
	popCum     []int64   // running population sum, sampleCityWeighted's CDF
	globalPool []int     // every city by descending population, then name
	contPools  [][]int   // globalPool split by Continent, same order

	// The target universe per address family, indexed by famIndex; reach
	// it through the streaming accessors (stream.go).
	fams [2]family

	imp Impairer
	reg *obs.Registry
	tel *telemetry

	cache routingCache
}

// ProbeImpairment is an Impairer's verdict on a single probe.
type ProbeImpairment struct {
	// Drop loses the probe (or its reply): the measurement records no
	// response from this target for this transmission.
	Drop bool
	// ExtraRTT is added latency (impaired paths, queueing under load).
	ExtraRTT time.Duration
	// TimeShift offsets the probe's effective transmit time before routing
	// decisions are made: worker clock skew and route-flap amplification
	// both work by moving probes across churn/stability epochs.
	TimeShift time.Duration
}

// Impairer injects probe-level faults into the simulation — the chaos
// engine's hook (internal/chaos implements it). Implementations must be
// deterministic pure functions of the world seed and the probe's identity
// so impaired measurements stay byte-for-byte reproducible.
type Impairer interface {
	// ImpairAnycast rules on one anycast-stage probe: worker `worker` of
	// deployment d probing tg.
	ImpairAnycast(d *Deployment, worker int, tg *Target, ctx ProbeCtx) ProbeImpairment
	// ImpairUnicast rules on one latency-stage (GCD) probe from vp to tg.
	ImpairUnicast(vp VP, tg *Target, proto packet.Protocol, at time.Time) ProbeImpairment
}

// SetImpairer installs (or, with nil, removes) the fault-injection hook.
// Call it only between measurements: probes in flight on other goroutines
// must not race with the swap. With no impairer installed the probe hot
// path pays a single nil check.
func (w *World) SetImpairer(i Impairer) { w.imp = i }

// Impairer returns the currently installed fault-injection hook, or nil.
func (w *World) Impairer() Impairer { return w.imp }

// Instrument attaches reg to the world, the one place a telemetry
// registry attaches: it installs fresh probe accounting registered on
// reg as the laces_netsim_* series, and keeps reg for everything that
// runs on the world (a census pipeline reports each day it runs to it).
// Instrument(nil) detaches. Like SetImpairer, call it only between
// measurements. With no registry attached the probe hot path pays a
// single nil check; counting never alters measurement results.
func (w *World) Instrument(reg *obs.Registry) {
	w.reg, w.tel = reg, nil
	if reg != nil {
		w.tel = newTelemetry(reg)
	}
	w.cache.tel = w.tel
}

// Registry returns the registry Instrument attached, or nil.
func (w *World) Registry() *obs.Registry { return w.reg }

// Seed exposes the world's derived seed so deterministic subsystems
// (internal/chaos) can key their hash decisions off it.
func (w *World) Seed() uint64 { return w.seed }

// cityIndex returns the database index of a city by name.
func (w *World) cityIndex(name string) (int, error) {
	i, ok := w.cityIdx[name]
	if !ok {
		return 0, fmt.Errorf("netsim: unknown city %q", name)
	}
	return i, nil
}

// distKm returns the precomputed great circle distance between two city
// indices.
func (w *World) distKm(a, b int) float64 {
	return w.dist[a*w.nCities+b]
}

// CityAt returns the city with the given database index.
func (w *World) CityAt(i int) cities.City { return w.DB.All()[i] }

// ASByNumber returns the AS with the given number.
func (w *World) ASByNumber(n ASN) (AS, bool) {
	i, ok := w.asIdx[n]
	if !ok {
		return AS{}, false
	}
	return w.ASes[i], true
}

// OperatorByName returns the index of a modelled operator, or -1.
func (w *World) OperatorByName(name string) int {
	for i, op := range w.Operators {
		if op.Name == name {
			return i
		}
	}
	return -1
}

// NewDeployment builds a measurement deployment whose sites are at the
// named cities (which must exist in the world's city database).
func (w *World) NewDeployment(name string, cityNames []string, policy RoutingPolicy) (*Deployment, error) {
	var cs []cities.City
	for _, n := range cityNames {
		i, err := w.cityIndex(n)
		if err != nil {
			return nil, err
		}
		cs = append(cs, w.DB.All()[i])
	}
	d := NewDeployment(name, cs, policy)
	for i := range d.Sites {
		idx, _ := w.cityIndex(d.Sites[i].City.Name)
		d.Sites[i].CityIdx = idx
	}
	return d, nil
}

// NewVP builds a unicast vantage point at the named city. The host AS is
// chosen deterministically from the world's AS population by name.
func (w *World) NewVP(name, cityName string) (VP, error) {
	idx, err := w.cityIndex(cityName)
	if err != nil {
		return VP{}, err
	}
	h := mix(w.seed, hashString("vp-host"), hashString(name))
	return VP{
		Name:    name,
		Loc:     w.DB.All()[idx].Location,
		CityIdx: idx,
		Host:    w.ASes[pick(h, len(w.ASes))].Number,
	}, nil
}

// SampleCity picks a population-weighted city index deterministically
// from (salt, index); platform builders use it to place vantage points.
func (w *World) SampleCity(i uint64, salt string) int {
	return w.sampleCityWeighted(mix(w.seed, hashString(salt), i))
}

// GroundTruthAnycast returns the IDs of targets whose representative
// address is truly anycast on census day d — the oracle §6 validates
// against.
func (w *World) GroundTruthAnycast(v6 bool, day int) map[int]bool {
	out := make(map[int]bool)
	w.IterTargets(v6, 0, func(batch []Target) bool {
		for i := range batch {
			if batch[i].IsAnycastAt(day) {
				out[batch[i].ID] = true
			}
		}
		return true
	})
	return out
}

// hashString folds a string into a uint64 for seeding.
func hashString(s string) uint64 {
	var h uint64 = 0xcbf29ce484222325
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 0x100000001b3
	}
	return h
}
