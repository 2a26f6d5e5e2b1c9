// Package orchestrator is the fence corpus for the fabric rows: a wire
// series registered through a constant, a parser taken as a function
// value, and a map-typed missing-site set.
package orchestrator

import (
	"net/netip"

	"github.com/laces-project/laces/internal/obs"
)

const wireFrames = "laces_wire_frames_total"

func register(reg *obs.Registry, fn func() float64) {
	reg.CounterFunc("laces_wire_x", "help", fn) // want `one wire endpoint: internal/obs.Registry.CounterFunc\("laces_wire_"…\)`
	reg.CounterFunc(wireFrames, "help", fn)     // want `one wire endpoint: internal/obs.Registry.CounterFunc`
	reg.CounterFunc("laces_rate_waits_total", "help", fn)
}

var parse = netip.ParseAddr // want `one wire endpoint: net/netip.ParseAddr — addresses are netip.Addr`

var parsePrefix = netip.ParsePrefix

type options struct {
	MissingWorkers map[int]bool // want `one census day: map named MissingWorkers — the missing-site set is a mask`
}

type mask struct {
	MissingWorkers uint64
}

func (m mask) missing() uint64 { return m.MissingWorkers }

func (o options) missing() int { return len(o.MissingWorkers) } // want `one census day: map named MissingWorkers`
