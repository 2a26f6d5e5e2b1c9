// Package bgpmon implements the trigger-based anycast detection the paper
// names as future work (§9: "we intend to further extend LACeS by
// including a trigger-based detection of anycast not visible with daily
// census granularity, e.g., using BGP route collectors ... Finally, we are
// planning to use LACeS to detect suspected BGP hijacking").
//
// A route-collector feed is watched for events that change where a prefix
// may be served from — new origins, anycast turn-up/turn-down, suspected
// hijacks. Each interesting event triggers an immediate, targeted GCD
// measurement instead of waiting for the next daily census, which is what
// catches the paper's single-day events (§7 found 191 prefixes anycast
// for one day only, suspected misconfigurations or hijacks), asking the
// same responsible-probing gate every census stage asks (Monitor.Gate).
//
// The feed itself is derived from the simulated world's ground truth: the
// simulator plays the role of RouteViews/RIS, emitting one update per
// routing-visible change.
package bgpmon

import (
	"fmt"
	"net/netip"
	"time"

	"github.com/laces-project/laces/internal/budget"
	"github.com/laces-project/laces/internal/gcdmeas"
	"github.com/laces-project/laces/internal/netsim"
	"github.com/laces-project/laces/internal/packet"
)

// EventKind classifies a route-collector observation.
type EventKind uint8

// Event kinds.
const (
	// AnycastTurnUp: a prefix previously served from one location starts
	// being announced from several (temporary anycast activating, a
	// deployment growing, or a hijack).
	AnycastTurnUp EventKind = iota
	// AnycastTurnDown: a previously replicated prefix collapses back to a
	// single origin location.
	AnycastTurnDown
)

// String names the kind.
func (k EventKind) String() string {
	switch k {
	case AnycastTurnUp:
		return "turn-up"
	case AnycastTurnDown:
		return "turn-down"
	default:
		return fmt.Sprintf("EventKind(%d)", uint8(k))
	}
}

// Event is one route-collector observation.
type Event struct {
	Day      int
	Kind     EventKind
	TargetID int
	Prefix   netip.Prefix
	Origin   netsim.ASN
}

// Feed replays the routing-visible changes of one census day, in
// ascending target ID order (IterTargets' own) — the simulated
// equivalent of a RouteViews/RIS update stream.
func Feed(w *netsim.World, v6 bool, day int) []Event {
	var out []Event
	w.IterTargets(v6, 0, func(batch []netsim.Target) bool {
		for i := range batch {
			tg := &batch[i]
			was := tg.IsAnycastAt(day - 1)
			now := tg.IsAnycastAt(day)
			if was == now {
				continue
			}
			kind := AnycastTurnUp
			if was {
				kind = AnycastTurnDown
			}
			out = append(out, Event{
				Day: day, Kind: kind,
				TargetID: tg.ID, Prefix: tg.Prefix, Origin: tg.Origin,
			})
		}
		return true
	})
	return out
}

// Finding is the outcome of one triggered measurement.
type Finding struct {
	Event   Event
	Anycast bool
	Sites   int
	// SuspectedHijack marks turn-ups confirmed anycast for a prefix whose
	// origin is not a known anycast operator: the "unicast location plus
	// one anomalous second location" signature of §7.
	SuspectedHijack bool
}

// Monitor consumes route-collector events and triggers targeted GCD
// measurements.
type Monitor struct {
	World *netsim.World
	VPs   []netsim.VP
	// KnownAnycastOrigins suppresses hijack suspicion for operators that
	// legitimately toggle anycast (Imperva-style on-demand DDoS
	// mitigation).
	KnownAnycastOrigins map[netsim.ASN]bool
	// Gate admits each triggered target (nil admits everything); a denied
	// one is not measured, and its finding carries no verdict.
	Gate *budget.Gate
}

// React processes one day's feed: every turn-up triggers an immediate GCD
// measurement of the affected prefix.
func (m *Monitor) React(v6 bool, events []Event) []Finding {
	var ids []int
	byID := make(map[int]Event, len(events))
	for _, ev := range events {
		if ev.Kind != AnycastTurnUp {
			continue
		}
		ids = append(ids, ev.TargetID)
		byID[ev.TargetID] = ev
	}
	if len(ids) == 0 {
		return nil
	}
	// Trigger within the event day, hours after the change — not the next
	// census.
	at := netsim.DayTime(events[0].Day).Add(3 * time.Hour)
	rep := gcdmeas.Run(m.World, ids, v6, gcdmeas.Campaign{
		VPs:   m.VPs,
		Proto: packet.ICMP,
		At:    at,
		Gate:  m.Gate,
	})
	var out []Finding
	for _, id := range ids {
		ev := byID[id]
		f := Finding{Event: ev}
		if o, ok := rep.Outcomes[id]; ok {
			f.Anycast = o.Result.Anycast
			f.Sites = o.Result.NumSites()
		}
		if f.Anycast && !m.KnownAnycastOrigins[ev.Origin] && f.Sites == 2 {
			f.SuspectedHijack = true
		}
		out = append(out, f)
	}
	return out
}

// KnownOperators builds the suppression set from the world's modelled
// operators.
func KnownOperators(w *netsim.World) map[netsim.ASN]bool {
	out := make(map[netsim.ASN]bool, len(w.Operators))
	for _, op := range w.Operators {
		out[op.ASN] = true
	}
	return out
}
