// Package experiments regenerates every table and figure of the paper's
// evaluation (§5–§7, appendices) against the simulated world. Each
// experiment is a method on Env returning typed rows plus a Render
// function printing the paper-style table; Catalog is the index that pairs
// them, and what cmd/laces-experiments and the root benchmark range over.
package experiments

import (
	"fmt"
	"sync"
	"time"

	"github.com/laces-project/laces/internal/core"
	"github.com/laces-project/laces/internal/hitlist"
	"github.com/laces-project/laces/internal/longitudinal"
	"github.com/laces-project/laces/internal/manycast"
	"github.com/laces-project/laces/internal/netsim"
	"github.com/laces-project/laces/internal/obs"
	"github.com/laces-project/laces/internal/packet"
	"github.com/laces-project/laces/internal/platform"
)

// Env bundles the world and the cached expensive intermediates shared
// between experiments (GCD_LS sweeps, daily censuses).
type Env struct {
	World   *netsim.World
	Tangled *netsim.Deployment
	// Obs, when set before the first experiment runs, receives telemetry
	// from every census pipeline the environment builds. Results are
	// byte-identical with or without it.
	Obs *obs.Registry

	mu       sync.Mutex
	gcdls    map[lsKey]*core.GCDLSResult
	censuses map[lsKey]*core.DailyCensus

	histOnce sync.Once
	hist     *longitudinal.History
	histErr  error

	mdecompOnce sync.Once
	mdecomp     *MDecompResult
	mdecompErr  error
}

type lsKey struct {
	day int
	v6  bool
}

// NewEnv builds an experiment environment from a world configuration.
func NewEnv(cfg netsim.Config) (*Env, error) {
	w, err := netsim.New(cfg)
	if err != nil {
		return nil, err
	}
	d, err := platform.Tangled(w, netsim.PolicyUnmodified)
	if err != nil {
		return nil, err
	}
	return &Env{
		World:    w,
		Tangled:  d,
		gcdls:    make(map[lsKey]*core.GCDLSResult),
		censuses: make(map[lsKey]*core.DailyCensus),
	}, nil
}

// GCDLS returns the (cached) full-hitlist GCD sweep for a day and family,
// using the Ark pool grown to that day plus a thinned Atlas complement —
// ~230 VPs, matching the paper's 227-VP December 2024 sweep.
func (e *Env) GCDLS(day int, v6 bool) (*core.GCDLSResult, error) {
	key := lsKey{day, v6}
	e.mu.Lock()
	if r, ok := e.gcdls[key]; ok {
		e.mu.Unlock()
		return r, nil
	}
	e.mu.Unlock()
	vps, err := e.GCDLSVPs(day, v6)
	if err != nil {
		return nil, err
	}
	r := core.RunGCDLS(e.World, vps, v6, day)
	e.mu.Lock()
	e.gcdls[key] = r
	e.mu.Unlock()
	return r, nil
}

// GCDLSVPs returns the large VP pool used for GCD_LS sweeps.
func (e *Env) GCDLSVPs(day int, v6 bool) ([]netsim.VP, error) {
	ark, err := platform.Ark(e.World, day, v6)
	if err != nil {
		return nil, err
	}
	atlas, err := platform.Atlas(e.World, 400)
	if err != nil {
		return nil, err
	}
	return append(ark, atlas...), nil
}

// DailyCensus returns the (cached) daily census for a day and family,
// produced by a fresh pipeline seeded with that day's GCD_LS sweep —
// mirroring the production pipeline state around that date.
func (e *Env) DailyCensus(day int, v6 bool) (*core.DailyCensus, error) {
	key := lsKey{day, v6}
	e.mu.Lock()
	if c, ok := e.censuses[key]; ok {
		e.mu.Unlock()
		return c, nil
	}
	e.mu.Unlock()

	ls, err := e.GCDLS(day, v6)
	if err != nil {
		return nil, err
	}
	pipe, err := core.NewPipeline(e.World, core.Config{
		Deployment: e.Tangled,
		GCDVPs: func(day int, v6 bool) ([]netsim.VP, error) {
			return platform.Ark(e.World, day, v6)
		},
		Obs: e.Obs,
	})
	if err != nil {
		return nil, err
	}
	pipe.SeedFeedback(v6, ls.IDs())
	c, err := pipe.RunDaily(day, v6, core.DayOptions{})
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	e.censuses[key] = c
	e.mu.Unlock()
	return c, nil
}

// anycastRun executes one anycast-based ICMP measurement with the given
// deployment at a day and returns the result.
func (e *Env) anycastRun(d *netsim.Deployment, day int, v6 bool, offset time.Duration, id uint16) (*manycast.Result, error) {
	hl := hitlist.ForDay(e.World, v6, day)
	return manycast.Run(e.World, d, hl, manycast.Options{
		Protocol:      packet.ICMP,
		Start:         netsim.DayTime(day),
		Offset:        offset,
		MeasurementID: id,
	})
}

// gTruth returns the ground-truth anycast oracle for a day.
func (e *Env) gTruth(day int, v6 bool) map[int]bool {
	return e.World.GroundTruthAnycast(v6, day)
}

// Experiment days, aligned with the paper's roadmap (Fig 4).
const (
	dayFig5        = 30  // synchronous probing study (early, pre-census)
	dayFig7        = 45  // protocol coverage
	dayTable2      = 180 // Sep '24
	dayFig6        = 180 // Ark=164 vs Atlas comparison, Sep '24
	dayTable4      = 270 // Dec '24 (GCD_LS month)
	dayTable6      = 274 // Dec 20, '24 BGPTools comparison
	dayTable3      = 300 // Jan '25 ccTLD replicability
	dayTable5      = 291 // Jan 6, '25 hypergiant ranking
	daySweep       = 240 // Nov '24 GCD_IPv4 sweep
	dayFig8        = 420 // May '25 routing communities
	dayTable1      = 510 // Aug '25 GCD_LS comparison
	dayChaos       = 150 // CHAOS side-by-side
	dayGroundTruth = 291
)

// fmtInt renders an int with thousands separators for table output.
func fmtInt(n int) string {
	if n < 0 {
		return "-" + fmtInt(-n)
	}
	s := fmt.Sprint(n)
	out := ""
	for i, c := range s {
		if i > 0 && (len(s)-i)%3 == 0 {
			out += ","
		}
		out += string(c)
	}
	return out
}
