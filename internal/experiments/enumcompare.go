package experiments

import (
	"io"
	"sort"

	"github.com/laces-project/laces/internal/gcdmeas"
	"github.com/laces-project/laces/internal/netsim"
	"github.com/laces-project/laces/internal/packet"
	"github.com/laces-project/laces/internal/platform"
	"github.com/laces-project/laces/internal/stats"
	"github.com/laces-project/laces/internal/traceroute"
)

// ---------------------------------------------------------------------------
// §5.2 future work — traceroute-assisted enumeration vs GCD

// EnumCompareRow compares site-enumeration methods for one operator.
type EnumCompareRow struct {
	Operator string
	// TrueSites is the generator's ground truth.
	TrueSites int
	// GCDSites is iGreedy's disjoint-disc lower bound.
	GCDSites int
	// TracerouteSites is the ACE-style router-fingerprint count.
	TracerouteSites int
}

// EnumComparison measures one representative prefix per modelled operator
// with both enumeration methods from the same Ark pool. The paper names
// traceroute the future-work route to better enumeration (§5.2, citing
// Fan et al.) because GCD merges sites in nearby metros — the §6
// Prague/Bratislava/Vienna case; router fingerprints separate them.
func (e *Env) EnumComparison() ([]EnumCompareRow, error) {
	day := dayGroundTruth
	vps, err := platform.Ark(e.World, day, false)
	if err != nil {
		return nil, err
	}
	at := netsim.DayTime(day)
	var rows []EnumCompareRow
	for oi := range e.World.Operators {
		op := &e.World.Operators[oi]
		if len(op.Sites) < 2 {
			continue
		}
		tg := e.representativePrefix(oi, day)
		if tg == nil {
			continue
		}
		rep := gcdmeas.Run(e.World, []int{tg.ID}, false, gcdmeas.Campaign{VPs: vps, Proto: packet.ICMP, At: at})
		gcdSites := 0
		if out, ok := rep.Outcomes[tg.ID]; ok && out.Result.Anycast {
			gcdSites = out.Result.NumSites()
		}
		trSites, err := traceroute.EnumerateSites(e.World, vps, tg, traceroute.Options{At: at})
		if err != nil {
			return nil, err
		}
		rows = append(rows, EnumCompareRow{
			Operator:        op.Name,
			TrueSites:       len(op.Sites),
			GCDSites:        gcdSites,
			TracerouteSites: trSites,
		})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].TrueSites > rows[j].TrueSites })
	return rows, nil
}

// representativePrefix returns an ICMP-responsive prefix of the operator
// that is anycast on the measurement day, as a copy.
func (e *Env) representativePrefix(oi, day int) *netsim.Target {
	wk := e.World.Walker(false)
	for id := range e.World.NumTargets(false) {
		if tg := wk.At(id); tg.Operator == oi && tg.Responsive[packet.ICMP] && tg.KindAt(day) == netsim.Anycast {
			found := *tg // the walker reuses its target
			return &found
		}
	}
	return nil
}

// RenderEnumComparison prints the method comparison.
func RenderEnumComparison(w io.Writer, rows []EnumCompareRow) error {
	t := stats.Table{
		Title:  "§5.2 future work: site enumeration — GCD vs traceroute fingerprints (one prefix per operator)",
		Header: []string{"operator", "true sites", "GCD", "traceroute"},
	}
	for _, r := range rows {
		t.Add(r.Operator, r.TrueSites, r.GCDSites, r.TracerouteSites)
	}
	if err := t.Render(w); err != nil {
		return err
	}
	_, err := io.WriteString(w,
		"  both are lower bounds; traceroute separates nearby sites that GCD merges (§6)\n")
	return err
}
