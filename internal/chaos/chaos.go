// Package chaos is a deterministic fault-injection engine for the census
// pipeline. The paper's headline claims — responsible, fast, longitudinal —
// were earned by surviving 17 months of real operational incidents (the
// Sep–Dec 2024 DNS tooling bug, pre-July-2025 worker disconnections, route
// churn events), but a reproduction that models failures as two hardcoded
// booleans cannot ask "what if" questions. This package generalises the
// failure model in the style of tc-netem/litmus impairment harnesses:
//
//   - an Impairment is one fault (packet loss, delay+jitter, blackhole,
//     site outage, regional partition, route-flap amplification, worker
//     clock skew, reply throttling) bounded by a Scope (target set, origin
//     AS, worker site, protocol, continent, day range);
//   - a Scenario is a named schedule of impairments over the census
//     timeline; the suite is the fixed Builtins list (see registry.go);
//   - an Engine compiles a scenario against a world and implements
//     netsim.Impairer, the nil-checked hook on the probe hot path;
//   - a Report compares census accuracy (precision/recall of 𝒢 and ℳ
//     against the simulator's ground truth) under chaos with a clean
//     baseline — the resilience table of `laces-experiments chaos`.
//
// Everything is a pure function of (world seed, impairment index, probe
// identity): the same seed and scenario always yield a byte-identical
// census, so chaos runs are reproducible experiments, not flaky tests.
package chaos

import (
	"fmt"
	"sort"
	"time"

	"github.com/laces-project/laces/internal/cities"
	"github.com/laces-project/laces/internal/netsim"
	"github.com/laces-project/laces/internal/packet"
)

// Kind classifies an impairment.
type Kind uint8

// Impairment kinds.
const (
	// Loss drops a fraction (Frac) of matching probes independently.
	Loss Kind = iota
	// Delay adds Delay ± Jitter of latency to matching probes.
	Delay
	// Blackhole drops every matching probe.
	Blackhole
	// SiteOutage disconnects the scoped deployment sites: they neither
	// transmit probes nor capture replies (the pre-July-2025 worker-loss
	// events). The census pipeline resolves it via Engine.MissingWorkers;
	// at the probe hook it drops the scoped workers' transmissions.
	SiteOutage
	// Partition drops traffic between the scoped worker/VP continents and
	// the scoped target continents — a regional blackout.
	Partition
	// RouteFlap amplifies route churn: matching probes are shifted across
	// routing stability epochs (by up to ±Skew, with probability Frac), so
	// workers observe disagreeing path states — the upstream-flapping
	// false-positive mechanism of Fig 5 turned up to eleven.
	RouteFlap
	// ClockSkew offsets the scoped workers' clocks by Skew: their probes
	// are stamped into the wrong churn epochs (and, for large skews, the
	// wrong census day).
	ClockSkew
	// Throttle drops a fraction (Frac) of matching replies with coarse
	// per-(target, worker, day) keying — sustained target-side rate
	// limiting rather than random loss.
	Throttle
	// AbuseComplaint models a network operator complaining about being
	// probed. It never touches individual probes: the governance layer
	// (internal/budget) counts the complaints active on a census day via
	// Engine.ComplaintsOn and steps the effective probing rate down one
	// power of two per complaint — the paper's 1/8th-rate operating
	// point (§5.5.2) after three.
	AbuseComplaint
)

// String names the kind as used in scenario catalogs.
func (k Kind) String() string {
	switch k {
	case Loss:
		return "loss"
	case Delay:
		return "delay"
	case Blackhole:
		return "blackhole"
	case SiteOutage:
		return "site-outage"
	case Partition:
		return "partition"
	case RouteFlap:
		return "route-flap"
	case ClockSkew:
		return "clock-skew"
	case Throttle:
		return "throttle"
	case AbuseComplaint:
		return "abuse-complaint"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Scope bounds where and when an impairment applies. The zero value
// matches everything: every field is a filter that, when empty, does not
// constrain.
type Scope struct {
	// Days is the inclusive census-day window. The zero value means the
	// whole timeline; build windows with Days(from, to), which keeps a
	// day-0-only window distinct from the zero value.
	Days netsim.DayRange
	// Workers lists deployment site indices; nil matches all sites.
	// Worker-scoped impairments never apply to unicast (GCD) probes.
	Workers []int
	// TargetIDs lists target IDs; nil matches all targets.
	TargetIDs []int
	// Origins lists origin ASNs; nil matches all.
	Origins []netsim.ASN
	// Protocols lists probe protocols; nil matches all.
	Protocols []packet.Protocol
	// WorkerContinents constrains the probing side (deployment site or
	// unicast VP) by continent; nil matches all.
	WorkerContinents []cities.Continent
	// TargetContinents constrains the responder side by the target's
	// canonical location; nil matches all.
	TargetContinents []cities.Continent
}

// Days builds an inclusive day window. A window of [0, 0] would collide
// with the zero DayRange (which Scope treats as "the whole timeline"), so
// it is encoded with From = -1: census days are never negative, which
// keeps the window matching exactly day 0 while staying distinct from the
// zero value. Always build windows with this constructor, not literals.
func Days(from, to int) netsim.DayRange {
	if from == 0 && to == 0 {
		from = -1
	}
	return netsim.DayRange{From: from, To: to}
}

// allDays reports whether the scope covers the whole timeline.
func allDays(r netsim.DayRange) bool { return r == (netsim.DayRange{}) }

// ActiveOn reports whether the scope's day window covers census day d.
func (s Scope) ActiveOn(d int) bool { return allDays(s.Days) || s.Days.Contains(d) }

// Impairment is one fault: a kind, its parameters, and the scope it
// applies in.
type Impairment struct {
	Kind  Kind
	Scope Scope

	// Frac is the drop (Loss, Throttle) or trigger (RouteFlap)
	// probability in (0, 1].
	Frac float64
	// Delay and Jitter parameterise added latency (Delay kind).
	Delay  time.Duration
	Jitter time.Duration
	// Skew is the clock offset (ClockSkew) or the maximum epoch shift
	// (RouteFlap).
	Skew time.Duration
}

// Scenario is a named, ordered schedule of impairments over the census
// timeline. The order is part of the scenario's identity: per-impairment
// hash salts derive from the position, so reordering hash-consuming
// impairments changes which individual probes are hit (never whether the
// run is deterministic).
type Scenario struct {
	Name        string
	Description string
	Impairments []Impairment
}

// ActiveOn reports whether any impairment applies on census day d.
func (s Scenario) ActiveOn(day int) bool {
	for _, imp := range s.Impairments {
		if imp.Scope.ActiveOn(day) {
			return true
		}
	}
	return false
}

// FirstActiveDay returns the earliest census day (from 0) on which the
// scenario has an active impairment, or -1 when it never fires in
// [0, horizon).
func (s Scenario) FirstActiveDay(horizon int) int {
	for day := 0; day < horizon; day++ {
		if s.ActiveOn(day) {
			return day
		}
	}
	return -1
}

// Lookup returns a built-in scenario by name.
func Lookup(name string) (Scenario, bool) {
	for _, s := range Builtins() {
		if s.Name == name {
			return s, true
		}
	}
	return Scenario{}, false
}

// Names returns the built-in scenario names, sorted.
func Names() []string {
	var out []string
	for _, s := range Scenarios() {
		out = append(out, s.Name)
	}
	return out
}

// Scenarios returns the built-in scenarios in name order.
func Scenarios() []Scenario {
	out := Builtins()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
