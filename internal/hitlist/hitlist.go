// Package hitlist assembles the census input (§4.1 of the paper): the set
// of responsive prefixes LACeS probes, one representative address per /24
// (IPv4) or /48 (IPv6).
//
// A day's list is every simulated target that is in the day's quarterly
// snapshot (HitlistFromDay <= QuarterOf(day)) and answers at least one
// probing protocol, in target-ID order, each entry flagged with the
// protocols it answers.
//
// The paper builds the same set as a union of per-protocol sources,
// refreshed quarterly: ISI's ping-responsive ranking (IPv4) and the TUM
// hitlist (IPv6) contribute the ICMP-responsive prefixes, Zmap scans the
// TCP-responsive ones and OpenINTEL's nameserver addresses the
// DNS-responsive ones. In the simulator a target's Responsive flags
// already say which of those sources would have found it, so the union
// is one pass over the universe.
package hitlist

import (
	"net/netip"

	"github.com/laces-project/laces/internal/netsim"
	"github.com/laces-project/laces/internal/packet"
)

// Entry is one hitlist row: a prefix and its representative probe address.
type Entry struct {
	TargetID int
	Prefix   netip.Prefix
	Addr     netip.Addr
	// Protocols records which probing protocols this entry is expected to
	// answer.
	Protocols [3]bool
}

// EntryOf is the row a target makes on any list that carries it.
func EntryOf(tg *netsim.Target) Entry {
	return Entry{TargetID: tg.ID, Prefix: tg.Prefix, Addr: tg.Addr, Protocols: tg.Responsive}
}

// Hitlist is an ordered set of entries for one address family.
type Hitlist struct {
	V6      bool
	Day     int // quarterly snapshot day the list was built for
	Entries []Entry
}

// Len returns the number of entries.
func (h *Hitlist) Len() int { return len(h.Entries) }

// QuarterOf floors a census day to its quarterly hitlist refresh day
// (§4.1: "we update hitlists quarterly, in sync with ISI's").
func QuarterOf(day int) int {
	if day < 0 {
		return 0
	}
	return day - day%90
}

// ForDay builds the hitlist for a census day: one entry per target that
// is in the day's quarterly snapshot and answers at least one protocol,
// in target-ID order. Entries is allocated once, for the whole universe:
// nearly every target is on the list, and counting first would derive a
// lazy world twice.
func ForDay(w *netsim.World, v6 bool, day int) *Hitlist {
	h := &Hitlist{V6: v6, Day: QuarterOf(day), Entries: make([]Entry, 0, w.NumTargets(v6))}
	w.IterTargets(v6, 0, func(batch []netsim.Target) bool {
		for i := range batch {
			tg := &batch[i]
			if tg.HitlistFromDay > h.Day || tg.Responsive == ([3]bool{}) {
				continue
			}
			h.Entries = append(h.Entries, EntryOf(tg))
		}
		return true
	})
	return h
}

// FilterProtocol returns the entries answering the given protocol — the
// per-protocol probe list of a measurement.
func (h *Hitlist) FilterProtocol(p packet.Protocol) []Entry {
	n := 0
	for i := range h.Entries {
		if h.Entries[i].Protocols[p] {
			n++
		}
	}
	out := make([]Entry, 0, n)
	for i := range h.Entries {
		if h.Entries[i].Protocols[p] {
			out = append(out, h.Entries[i])
		}
	}
	return out
}

// IDs returns all target IDs on the list.
func (h *Hitlist) IDs() []int {
	out := make([]int, len(h.Entries))
	for i, e := range h.Entries {
		out[i] = e.TargetID
	}
	return out
}

// Stats summarises a hitlist.
type Stats struct {
	Total   int
	ByProto [3]int
}

// Stats computes summary counts.
func (h *Hitlist) Stats() Stats {
	s := Stats{Total: len(h.Entries)}
	for _, e := range h.Entries {
		for p := range e.Protocols {
			if e.Protocols[p] {
				s.ByProto[p]++
			}
		}
	}
	return s
}
