package experiments

import (
	"io"
	"sort"

	"github.com/laces-project/laces/internal/core"
	"github.com/laces-project/laces/internal/netsim"
	"github.com/laces-project/laces/internal/stats"
)

// ---------------------------------------------------------------------------
// §5.1.3 — decomposing ℳ with traceroute (and the paper's future work of
// publishing global-BGP unicast in the census)

// MOriginRow is one origin AS's share of ℳ.
type MOriginRow struct {
	Origin netsim.ASN
	Name   string
	// M counts the AS's prefixes in today's ℳ.
	M int
	// GlobalBGP counts those confirmed as globally announced unicast by
	// the traceroute screening stage.
	GlobalBGP int
}

// MDecompResult decomposes one day's ℳ set.
type MDecompResult struct {
	Day    int
	MTotal int
	// GlobalBGP is the number of ℳ prefixes carrying the traceroute
	// confirmation flag.
	GlobalBGP int
	// TopOrigins lists the largest contributing ASes (descending ℳ).
	TopOrigins []MOriginRow
	// TracerouteProbes is the screening stage's probing cost.
	TracerouteProbes int64
}

// MDecomposition runs a daily census with the traceroute screening stage
// enabled and decomposes ℳ by origin AS. The paper observes that > 70% of
// ℳ on any given day originates from Microsoft's AS 8075, confirms the
// ingress pattern with traceroute, and names including global BGP in the
// census as future work (§5.1.3) — this experiment is that pipeline.
func (e *Env) MDecomposition() (*MDecompResult, error) {
	e.mdecompOnce.Do(func() {
		e.mdecomp, e.mdecompErr = e.runMDecomposition(dayTable2)
	})
	return e.mdecomp, e.mdecompErr
}

func (e *Env) runMDecomposition(day int) (*MDecompResult, error) {
	// Seed the feedback loop from the census-start sweep (the sweeps that
	// chronologically precede the measurement day). Seeding never changes
	// ℳ — feedback-only entries carry no anycast-based candidacy — so the
	// decomposition itself is seeding-independent.
	ls, err := e.GCDLS(0, false)
	if err != nil {
		return nil, err
	}
	pipe, err := e.pipeline(true)
	if err != nil {
		return nil, err
	}
	pipe.SeedFeedback(false, ls.IDs())
	c, err := pipe.RunDaily(day, false, core.DayOptions{})
	if err != nil {
		return nil, err
	}

	r := &MDecompResult{Day: day, TracerouteProbes: c.ProbesTracerouteStage}
	perAS := make(map[netsim.ASN]*MOriginRow)
	for _, id := range c.M() {
		e2 := c.Entries[id]
		r.MTotal++
		row, ok := perAS[e2.Origin]
		if !ok {
			row = &MOriginRow{Origin: e2.Origin}
			if a, found := e.World.ASByNumber(e2.Origin); found {
				row.Name = a.Name
			}
			perAS[e2.Origin] = row
		}
		row.M++
		if e2.GlobalBGP {
			r.GlobalBGP++
			row.GlobalBGP++
		}
	}
	for _, row := range perAS {
		r.TopOrigins = append(r.TopOrigins, *row)
	}
	sort.Slice(r.TopOrigins, func(i, j int) bool {
		if r.TopOrigins[i].M != r.TopOrigins[j].M {
			return r.TopOrigins[i].M > r.TopOrigins[j].M
		}
		return r.TopOrigins[i].Origin < r.TopOrigins[j].Origin
	})
	if len(r.TopOrigins) > 8 {
		r.TopOrigins = r.TopOrigins[:8]
	}
	return r, nil
}

// RenderMDecomposition prints the ℳ decomposition.
func RenderMDecomposition(w io.Writer, r *MDecompResult) error {
	t := stats.Table{
		Title:  "§5.1.3: traceroute decomposition of M (anycast-based only, not GCD-confirmed)",
		Header: []string{"origin AS", "name", "prefixes in M", "global-BGP confirmed"},
	}
	for _, row := range r.TopOrigins {
		t.Add(int(row.Origin), row.Name, fmtInt(row.M), fmtInt(row.GlobalBGP))
	}
	if err := t.Render(w); err != nil {
		return err
	}
	_, err := io.WriteString(w, "  M total "+fmtInt(r.MTotal)+
		"; global-BGP confirmed "+fmtInt(r.GlobalBGP)+
		"; traceroute probes "+fmtInt(int(r.TracerouteProbes))+"\n")
	return err
}
