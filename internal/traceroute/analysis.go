package traceroute

import "github.com/laces-project/laces/internal/netsim"

// Fanout summarises traces to one target from many vantage points.
type Fanout struct {
	TargetID int
	// IngressCities are the distinct metros of the target operator's
	// edge routers observed on forward paths (the ingress PoPs of
	// §5.1.3).
	IngressCities map[int]bool
	// PoPRouters are the distinct operator edge-router labels — the
	// ACE-style site fingerprints.
	PoPRouters map[string]bool
	// ServerCities are the distinct final-responder metros; a single
	// entry with multiple ingress PoPs is the global-BGP unicast
	// signature.
	ServerCities map[int]bool
	// Traces and Reached count the attempted and completed traces.
	Traces, Reached int
	// ProbesSent accounts probing cost (R3).
	ProbesSent int64
}

// MultiIngress reports whether forward paths enter the operator network
// at two or more distinct PoPs.
func (f *Fanout) MultiIngress() bool { return len(f.IngressCities) >= 2 }

// GlobalBGP reports the §5.1.3 confirmation: traffic ingresses at
// multiple PoPs yet always terminates at one server — a globally
// announced, internally unicast prefix.
func (f *Fanout) GlobalBGP() bool {
	return f.MultiIngress() && len(f.ServerCities) == 1
}

// Measure traces the target from every vantage point and aggregates the
// fan-out evidence.
func Measure(w *netsim.World, vps []netsim.VP, tg *netsim.Target, opts Options) (*Fanout, error) {
	f := &Fanout{
		TargetID:      tg.ID,
		IngressCities: make(map[int]bool),
		PoPRouters:    make(map[string]bool),
		ServerCities:  make(map[int]bool),
	}
	for _, vp := range vps {
		p, err := Run(w, vp, tg, opts)
		if err != nil {
			return nil, err
		}
		f.Traces++
		f.ProbesSent += p.ProbesSent
		for _, h := range p.Hops {
			if h.PoP && h.Owner == tg.Origin {
				f.IngressCities[h.CityIdx] = true
				f.PoPRouters[h.Router] = true
			}
			if h.Dest {
				f.ServerCities[h.CityIdx] = true
			}
		}
		if p.Reached {
			f.Reached++
		}
	}
	return f, nil
}

// EnumerateSites returns the ACE-style site count for an anycast target:
// the number of distinct site fingerprints observed across vantage points
// (§2.3; §5.2 names this the future-work route to better enumeration).
// Each trace contributes the operator edge router's label when it
// replied, falling back to the terminal responder's metro when the edge
// router stayed silent — combining evidence the way ACE combined CHAOS
// records with traceroute. Router fingerprints separate sites in nearby
// metros that GCD merges (§6's Prague/Bratislava/Vienna case).
func EnumerateSites(w *netsim.World, vps []netsim.VP, tg *netsim.Target, opts Options) (int, error) {
	// Two evidence tiers, never mixed per site: the terminal responder's
	// metro when the trace completes, and the edge router's label when
	// the target itself stays silent. A completed trace subsumes the
	// router evidence for its site, so the union cannot double-count.
	metros := make(map[int]bool)
	routers := make(map[string]int) // label → metro (-1 when unknown)
	for _, vp := range vps {
		p, err := Run(w, vp, tg, opts)
		if err != nil {
			return 0, err
		}
		var popLabel string
		popCity := -1
		for _, h := range p.Hops {
			if h.PoP && h.Owner == tg.Origin && h.Router != "" {
				popLabel, popCity = h.Router, h.CityIdx
			}
			if h.Dest {
				metros[h.CityIdx] = true
			}
		}
		if popLabel != "" {
			routers[popLabel] = popCity
		}
	}
	n := len(metros)
	for _, city := range routers {
		if city >= 0 && !metros[city] {
			n++
		}
	}
	return n, nil
}
