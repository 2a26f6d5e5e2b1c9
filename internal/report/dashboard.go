package report

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"github.com/laces-project/laces/internal/core"
)

// DashboardBuilder accumulates a census-document stream into the text
// dashboard, holding O(1) documents no matter how many days flow
// through: per-snapshot trend rows are tiny digests, and only the last
// two documents are retained (composition and churn need them). Feed
// days in date order — exactly what an archive.Range delivers.
type DashboardBuilder struct {
	rows         []trendRow
	prev, latest *core.Document
	// Cumulative R3 probing cost over the stream (the published
	// responsible-use ledger).
	probesAnycast, probesGCD, probesTraceroute int64
	// Cumulative governance accounting over the stream, plus how many
	// snapshots carried a responsibility block at all.
	governedDays                          int
	respDemanded, respSpent, respSkipped  int64
	respOptOutTargets, respBudgetTargets  int
	respOptOutProbes                      int64
	respRateSteppedDays, respMaxRateSteps int
}

// trendRow is the per-snapshot digest behind the detection-trend bars.
type trendRow struct {
	date string
	g, m int
}

// NewDashboardBuilder returns an empty builder.
func NewDashboardBuilder() *DashboardBuilder { return &DashboardBuilder{} }

// Add folds one day's document into the dashboard. The builder retains
// doc until the next Add; callers must not mutate it.
func (b *DashboardBuilder) Add(doc *core.Document) {
	b.rows = append(b.rows, trendRow{date: doc.Date, g: doc.GCount, m: doc.MCount})
	b.probesAnycast += doc.ProbesAnycastStage
	b.probesGCD += doc.ProbesGCDStage
	b.probesTraceroute += doc.ProbesTracerouteStage
	if r := doc.Responsibility; r != nil {
		b.governedDays++
		b.respDemanded += r.ProbesDemanded
		b.respSpent += r.ProbesSpent
		b.respSkipped += r.ProbesSkipped
		b.respOptOutTargets += r.OptOutTargets
		b.respOptOutProbes += r.OptOutProbes
		b.respBudgetTargets += r.BudgetTargets
		if r.RateSteps > 0 {
			b.respRateSteppedDays++
			if r.RateSteps > b.respMaxRateSteps {
				b.respMaxRateSteps = r.RateSteps
			}
		}
	}
	b.prev, b.latest = b.latest, doc
}

// Render writes the dashboard.
func (b *DashboardBuilder) Render(w io.Writer) error {
	if b.latest == nil {
		return fmt.Errorf("report: dashboard needs at least one census document")
	}
	latest := b.latest
	if _, err := fmt.Fprintf(w, "LACeS census dashboard — %s (%s), %d snapshots\n\n",
		latest.Date, latest.Family, len(b.rows)); err != nil {
		return err
	}

	// Trend: G and M counts per snapshot as scaled bars.
	maxCount := 1
	for _, row := range b.rows {
		if row.g+row.m > maxCount {
			maxCount = row.g + row.m
		}
	}
	if _, err := fmt.Fprintln(w, "detections per snapshot (█ GCD-confirmed, ░ anycast-based only):"); err != nil {
		return err
	}
	for _, row := range b.rows {
		const width = 48
		g := row.g * width / maxCount
		m := row.m * width / maxCount
		if _, err := fmt.Fprintf(w, "  %s  %s%s %6d G %6d M\n",
			row.date, strings.Repeat("█", g), strings.Repeat("░", m), row.g, row.m); err != nil {
			return err
		}
	}

	// Composition of the latest snapshot.
	var conf2, conf3, confMore, partial, globalBGP int
	perAS := make(map[uint32]int)
	for i := range latest.Entries {
		e := &latest.Entries[i]
		switch {
		case e.MaxReceivers == 2:
			conf2++
		case e.MaxReceivers == 3:
			conf3++
		case e.MaxReceivers > 3:
			confMore++
		}
		if e.PartialAnycast {
			partial++
		}
		if e.GlobalBGP {
			globalBGP++
		}
		if e.InG() {
			perAS[e.OriginASN]++
		}
	}
	if _, err := fmt.Fprintf(w, "\nconfidence (receiving VPs): 2 → %d (low, §5.1.3), 3 → %d, 4+ → %d\n",
		conf2, conf3, confMore); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "annotations: partial-anycast %d, global-BGP unicast %d\n",
		partial, globalBGP); err != nil {
		return err
	}

	// R3 probing cost, from the published per-stage accounting: the
	// responsible-use budget is visible in the artifact, not just in the
	// runner's memory.
	if _, err := fmt.Fprintf(w, "probing cost (R3): latest day %s probes; Σ %d snapshots: %s anycast + %s gcd + %s traceroute\n",
		fmtCount(latest.ProbesTotal()), len(b.rows),
		fmtCount(b.probesAnycast), fmtCount(b.probesGCD), fmtCount(b.probesTraceroute)); err != nil {
		return err
	}

	// Responsible-probing governance (the R3 pillar beyond raw cost):
	// budget reconciliation, opt-out honouring and rate feedback, from
	// the documents' published responsibility blocks.
	if b.governedDays > 0 {
		if _, err := fmt.Fprintf(w, "governance: %d of %d snapshots governed; demand %s → spent %s, skipped %s (opt-out %d decisions / %s probes, budget %d decisions)\n",
			b.governedDays, len(b.rows), fmtCount(b.respDemanded), fmtCount(b.respSpent),
			fmtCount(b.respSkipped), b.respOptOutTargets, fmtCount(b.respOptOutProbes),
			b.respBudgetTargets); err != nil {
			return err
		}
		if r := latest.Responsibility; r != nil {
			rem := "unlimited"
			if r.BudgetRemaining >= 0 {
				rem = fmtCount(r.BudgetRemaining) + " probes"
			}
			if _, err := fmt.Fprintf(w, "governance: latest day budget remaining %s", rem); err != nil {
				return err
			}
			if r.RateSteps > 0 {
				if _, err := fmt.Fprintf(w, "; rate stepped down %d× to %.0f targets/s", r.RateSteps, r.RateEffective); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintln(w); err != nil {
				return err
			}
		}
		if b.respRateSteppedDays > 0 {
			if _, err := fmt.Fprintf(w, "governance: abuse-complaint rate feedback on %d snapshots (deepest step 1/%d rate)\n",
				b.respRateSteppedDays, 1<<b.respMaxRateSteps); err != nil {
				return err
			}
		}
	}

	// Top origins (the Table 5 view).
	type asCount struct {
		asn uint32
		n   int
	}
	tops := make([]asCount, 0, len(perAS))
	for asn, n := range perAS {
		tops = append(tops, asCount{asn, n})
	}
	sort.Slice(tops, func(i, j int) bool {
		if tops[i].n != tops[j].n {
			return tops[i].n > tops[j].n
		}
		return tops[i].asn < tops[j].asn
	})
	if len(tops) > 5 {
		tops = tops[:5]
	}
	if _, err := fmt.Fprintln(w, "\nlargest origin ASes in G:"); err != nil {
		return err
	}
	for i, t := range tops {
		if _, err := fmt.Fprintf(w, "  %d. AS%-8d %d prefixes\n", i+1, t.asn, t.n); err != nil {
			return err
		}
	}

	// Churn between the last two snapshots.
	if b.prev != nil {
		d := Diff(b.prev, latest)
		if _, err := fmt.Fprintf(w, "\nchurn %s → %s: +%d appeared, −%d withdrawn, %d confirmed, %d unconfirmed\n",
			d.From, d.To, d.Counts[Appeared], d.Counts[Withdrawn],
			d.Counts[Confirmed], d.Counts[Unconfirmed]); err != nil {
			return err
		}
	}
	return nil
}

// fmtCount renders a probe count with thousands separators.
func fmtCount(n int64) string {
	s := fmt.Sprintf("%d", n)
	if len(s) <= 3 {
		return s
	}
	var b strings.Builder
	lead := len(s) % 3
	if lead > 0 {
		b.WriteString(s[:lead])
	}
	for i := lead; i < len(s); i += 3 {
		if b.Len() > 0 {
			b.WriteByte(',')
		}
		b.WriteString(s[i : i+3])
	}
	return b.String()
}

// Dashboard renders a text dashboard over a materialized slice of census
// documents — the information the paper's public dashboard surfaces:
// detection-count trends per method, the largest origin ASes, confidence
// composition, churn between consecutive snapshots, and the published R3
// probing budget. Streaming consumers (the archive CLI, the HTTP layer)
// should feed a DashboardBuilder day by day instead of materializing
// every document.
func Dashboard(w io.Writer, docs []*core.Document) error {
	if len(docs) == 0 {
		return fmt.Errorf("report: dashboard needs at least one census document")
	}
	sorted := make([]*core.Document, len(docs))
	copy(sorted, docs)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Date < sorted[j].Date })
	b := NewDashboardBuilder()
	for _, d := range sorted {
		b.Add(d)
	}
	return b.Render(w)
}
