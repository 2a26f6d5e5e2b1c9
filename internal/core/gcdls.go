package core

import (
	"fmt"
	"sort"

	"github.com/laces-project/laces/internal/gcdmeas"
	"github.com/laces-project/laces/internal/hitlist"
	"github.com/laces-project/laces/internal/netsim"
)

// GCDLSResult is the outcome of a large-scale GCD sweep over the entire
// hitlist (§5.1.1): the accuracy gold standard that seeds the feedback
// loop, run only periodically because of its probing cost.
type GCDLSResult struct {
	Day        int
	V6         bool
	Hitlist    int
	Anycast    map[int]bool
	ProbesSent int64
	VPs        int
}

// RunGCDLS performs a full-hitlist GCD sweep with the given VP pool at a
// responsible low rate (the paper probed at 100 pps over several days; the
// modelled duration is reported through the probe count).
func RunGCDLS(w *netsim.World, vps []netsim.VP, v6 bool, day int) *GCDLSResult {
	hl := hitlist.ForDay(w, v6, day)
	// The protocol rule is the daily pipeline's (gcdmeas.Confirm): ICMP
	// covers most of the hitlist, TCP mops up the remainder.
	rep := gcdmeas.Confirm(w, hl.IDs(), v6, gcdmeas.Campaign{VPs: vps, At: netsim.DayTime(day)})
	return &GCDLSResult{
		Day:        day,
		V6:         v6,
		Hitlist:    hl.Len(),
		Anycast:    rep.Anycast(),
		ProbesSent: rep.ProbesSent,
		VPs:        len(vps),
	}
}

// IDs returns the sorted anycast target IDs.
func (r *GCDLSResult) IDs() []int {
	out := make([]int, 0, len(r.Anycast))
	for id := range r.Anycast {
		out = append(out, id)
	}
	sort.Ints(out)
	return out
}

// Compare summarises the agreement between anycast-based candidates and a
// GCD_LS sweep — the Table 1 computation: intersection, anycast-based
// false negatives (with rate), and candidates GCD_LS calls unicast.
type Compare struct {
	ACs          int
	GCDLS        int
	Intersection int
	FNs          int     // GCD_LS anycast missed by the anycast-based stage
	FNRate       float64 // FNs / GCDLS
	NotGCDLS     int     // candidates not confirmed by GCD_LS (mostly FPs)
}

// CompareACsToGCDLS computes Table 1's row for a candidate set (feedback
// excluded) against a GCD_LS sweep.
func CompareACsToGCDLS(acs map[int]bool, ls *GCDLSResult) Compare {
	c := Compare{ACs: len(acs), GCDLS: len(ls.Anycast)}
	for id := range ls.Anycast {
		if acs[id] {
			c.Intersection++
		} else {
			c.FNs++
		}
	}
	if c.GCDLS > 0 {
		c.FNRate = float64(c.FNs) / float64(c.GCDLS)
	}
	c.NotGCDLS = c.ACs - c.Intersection
	return c
}

// String renders the comparison as a Table 1 row.
func (c Compare) String() string {
	return fmt.Sprintf("AC=%d GCDLS=%d AC∩GCDLS=%d (%.1f%%) FNs=%d (%.1f%%) ¬GCDLS=%d",
		c.ACs, c.GCDLS, c.Intersection, 100*float64(c.Intersection)/max1(c.GCDLS),
		c.FNs, 100*c.FNRate, c.NotGCDLS)
}

func max1(n int) float64 {
	if n < 1 {
		return 1
	}
	return float64(n)
}
