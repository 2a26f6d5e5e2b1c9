package experiments

import (
	"io"
	"sort"

	"github.com/laces-project/laces/internal/netsim"
	"github.com/laces-project/laces/internal/packet"
	"github.com/laces-project/laces/internal/stats"
)

// ---------------------------------------------------------------------------
// §6 — ground-truth validation per operator

// ValidationRow audits the census against one operator's ground truth.
type ValidationRow struct {
	Operator string
	// Prefixes is the operator's anycast prefix count on the hitlist
	// (measurable with ICMP or TCP).
	Prefixes int
	// InG counts prefixes the census confirms with GCD.
	InG int
	// InM counts prefixes only the anycast-based stage flags.
	InM int
	// Missed counts prefixes absent from both.
	Missed int
	// FPs counts census 𝒢 prefixes of this operator that ground truth
	// says are unicast today.
	FPs int
}

// GroundTruth compares the daily census against the generator's oracle per
// modelled operator, reproducing the §6 validation (Cloudflare: "no FPs
// and no FNs"; ccTLDs: regional deployments partially missed; G-Root:
// DNS-only).
func (e *Env) GroundTruth(v6 bool) ([]ValidationRow, error) {
	c, err := e.DailyCensus(dayGroundTruth, v6)
	if err != nil {
		return nil, err
	}
	inG := stats.NewSet(c.G())
	inM := stats.NewSet(c.M())
	truth := e.gTruth(dayGroundTruth, v6)

	rows := make(map[int]*ValidationRow)
	e.World.IterTargets(v6, 0, func(batch []netsim.Target) bool {
		for i := range batch {
			tg := &batch[i]
			if tg.Operator < 0 {
				continue
			}
			row, ok := rows[tg.Operator]
			if !ok {
				row = &ValidationRow{Operator: e.World.Operators[tg.Operator].Name}
				rows[tg.Operator] = row
			}
			anycastToday := truth[tg.ID]
			if anycastToday && (tg.Responsive[packet.ICMP] || tg.Responsive[packet.TCP]) {
				row.Prefixes++
				switch {
				case inG[tg.ID]:
					row.InG++
				case inM[tg.ID]:
					row.InM++
				default:
					row.Missed++
				}
			}
			if !anycastToday && inG[tg.ID] {
				row.FPs++
			}
		}
		return true
	})
	out := make([]ValidationRow, 0, len(rows))
	for _, r := range rows {
		if r.Prefixes > 0 || r.FPs > 0 {
			out = append(out, *r)
		}
	}
	// Largest operator first; ties by name, so the table does not inherit
	// the map's iteration order.
	sort.Slice(out, func(i, j int) bool {
		if out[i].Prefixes != out[j].Prefixes {
			return out[i].Prefixes > out[j].Prefixes
		}
		return out[i].Operator < out[j].Operator
	})
	return out, nil
}

// RenderValidation prints the per-operator audit.
func RenderValidation(w io.Writer, rows []ValidationRow, v6 bool) error {
	fam := "IPv4"
	if v6 {
		fam = "IPv6"
	}
	t := stats.Table{
		Title:  "§6 ground-truth validation (" + fam + ")",
		Header: []string{"operator", "anycast prefixes", "in G", "in M only", "missed", "FPs"},
	}
	for _, r := range rows {
		t.Add(r.Operator, fmtInt(r.Prefixes), fmtInt(r.InG), fmtInt(r.InM), fmtInt(r.Missed), fmtInt(r.FPs))
	}
	return t.Render(w)
}
