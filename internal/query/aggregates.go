package query

// Materialized aggregates: the dashboard-shaped hot queries — per-day
// aggregate series, churn summary, stability histogram — computed while
// Build writes the rows and kept in a small JSON sidecar next to
// timeline.idx. The serving tier answers GET /v1/aggregates from this
// file without touching row storage. The sidecar carries the index
// fingerprint; it is read and checked on the first Aggregates or
// AggregatesPrecomputed call, not at Open, so that opening an index
// reads nothing it does not need. A stale or hand-edited sidecar is
// ignored: Aggregates then computes the set from the rows once and
// caches it.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"github.com/laces-project/laces/internal/archive"
)

// aggSchema names the sidecar's JSON schema version.
const aggSchema = "laces-aggregates/v1"

// AggregatesPath returns the aggregates sidecar path for a timeline
// index at idxPath.
func AggregatesPath(idxPath string) string { return idxPath + ".agg" }

// StabilityBucket is one bar of the stability-score histogram: prefixes
// whose score falls in (previous LE, LE].
type StabilityBucket struct {
	LE    float64 `json:"le"`
	Count int     `json:"count"`
}

// ChurnSummary totals one family's longitudinal events across every
// indexed prefix, plus the mean per-day membership churn rate.
type ChurnSummary struct {
	Onsets        int     `json:"onsets"`
	Offsets       int     `json:"offsets"`
	Flaps         int     `json:"flaps"`
	SiteChanges   int     `json:"site_changes"`
	GeoShifts     int     `json:"geo_shifts"`
	Events        int     `json:"events"`
	MeanChurnRate float64 `json:"mean_churn_rate"`
}

// StabilitySummary is the family-wide stability distribution: ten
// equal-width score buckets over (0, 1] plus the mean score.
type StabilitySummary struct {
	Buckets []StabilityBucket `json:"buckets"`
	Mean    float64           `json:"mean"`
}

// FamilyAggregates is one family's materialized dashboard block.
type FamilyAggregates struct {
	Family    string           `json:"family"`
	Days      int              `json:"days"`
	Prefixes  int              `json:"prefixes"`
	Series    []SeriesPoint    `json:"series"`
	Churn     ChurnSummary     `json:"churn"`
	Stability StabilitySummary `json:"stability"`
}

// Aggregates is the full materialized set, bound to one index build by
// its fingerprint.
type Aggregates struct {
	Schema      string             `json:"schema"`
	Fingerprint string             `json:"fingerprint"`
	Families    []FamilyAggregates `json:"families"`
}

// Family returns one family's block, or nil if the family is absent.
func (ag *Aggregates) Family(name string) *FamilyAggregates {
	for i := range ag.Families {
		if ag.Families[i].Family == name {
			return &ag.Families[i]
		}
	}
	return nil
}

// Aggregates returns the materialized dashboard aggregates for every
// family. When Build wrote a sidecar matching this index (the common
// case), the answer comes straight from it — no row is read. Otherwise
// the set is computed from rows exactly once and cached for the life of
// the Index. The result is shared; treat it as immutable.
func (ix *Index) Aggregates() (*Aggregates, error) {
	if ag := ix.sidecar(); ag != nil {
		return ag, nil
	}
	ix.aggOnce.Do(func() { ix.agg, ix.aggErr = ix.computeAggregates() })
	return ix.agg, ix.aggErr
}

// AggregatesPrecomputed reports whether Aggregates is backed by the
// build-time sidecar (true) or would need a row scan (false).
func (ix *Index) AggregatesPrecomputed() bool { return ix.sidecar() != nil }

// sidecar reads the aggregates sidecar on first use: nil when the index
// has none that matches it.
func (ix *Index) sidecar() *Aggregates {
	ix.sideOnce.Do(func() {
		if ix.aggPath != "" {
			ix.side = loadAggregates(ix.aggPath, ix.fingerprint)
		}
	})
	return ix.side
}

// computeAggregates derives the full set from the TOC columns and one
// streaming pass over every row. Detection options are the defaults, so
// the result is a pure function of the index bytes — the same
// fingerprint always yields byte-identical aggregates.
func (ix *Index) computeAggregates() (*Aggregates, error) {
	ag := &Aggregates{Schema: aggSchema, Fingerprint: ix.fingerprint}
	var (
		buf  []byte
		scan row
		err  error
	)
	for _, family := range ix.order {
		fam := ix.fams[family]
		agg := newFamAgg(family, fam)
		for _, ref := range fam.prefixes {
			if buf, err = ix.readRow(buf, ref); err != nil {
				return nil, err
			}
			if err := scan.load(ref, len(fam.days), buf); err != nil {
				return nil, err
			}
			agg.add(scan.score(family, ref.prefix, fam.days, EventOptions{}))
		}
		ag.Families = append(ag.Families, agg.done())
	}
	return ag, nil
}

// famAgg accumulates one family's block from its per-day columns and
// its rows' stability records, added in canonical order: the one
// accumulator of the aggregates pass and of Build.
type famAgg struct {
	fa       FamilyAggregates
	scoreSum float64
}

func newFamAgg(family string, fam *famIndex) *famAgg {
	agg := &famAgg{fa: FamilyAggregates{Family: family, Days: len(fam.days), Series: fam.series()}}
	var churnSum float64
	for _, p := range agg.fa.Series {
		churnSum += p.ChurnRate
	}
	if n := len(agg.fa.Series); n > 0 {
		agg.fa.Churn.MeanChurnRate = round4(churnSum / float64(n))
	}
	buckets := make([]StabilityBucket, 10)
	for b := range buckets {
		buckets[b].LE = round4(float64(b+1) / 10)
	}
	agg.fa.Stability.Buckets = buckets
	return agg
}

// add counts one row's stability record.
func (agg *famAgg) add(st Stability) {
	c, buckets := &agg.fa.Churn, agg.fa.Stability.Buckets
	c.Onsets += st.Onsets
	c.Offsets += st.Offsets
	c.Flaps += st.Flaps
	c.SiteChanges += st.SiteChanges
	c.GeoShifts += st.GeoShifts
	agg.scoreSum += st.Score
	bi := 0
	for bi < len(buckets)-1 && st.Score > buckets[bi].LE {
		bi++
	}
	buckets[bi].Count++
	agg.fa.Prefixes++
}

// done returns the family's block once every row is added.
func (agg *famAgg) done() FamilyAggregates {
	fa := agg.fa
	fa.Churn.Events = fa.Churn.Onsets + fa.Churn.Offsets + fa.Churn.Flaps + fa.Churn.SiteChanges + fa.Churn.GeoShifts
	if fa.Prefixes > 0 {
		fa.Stability.Mean = round4(agg.scoreSum / float64(fa.Prefixes))
	}
	return fa
}

// writeAggregates commits the sidecar like the index itself: it appears
// complete or not at all.
func writeAggregates(path string, ag *Aggregates) error {
	b, err := json.MarshalIndent(ag, "", " ")
	if err != nil {
		return fmt.Errorf("query: encoding aggregates: %w", err)
	}
	if err := archive.CommitFile(path, func(w io.Writer) error {
		_, err := w.Write(append(b, '\n'))
		return err
	}); err != nil {
		return fmt.Errorf("query: writing aggregates: %w", err)
	}
	return nil
}

// loadAggregates reads a sidecar and validates it against the opened
// index's fingerprint. Any failure — absent file, bad JSON, schema or
// fingerprint mismatch — returns nil: the sidecar is an accelerator,
// never a correctness dependency.
func loadAggregates(path, fingerprint string) *Aggregates {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil
	}
	var ag Aggregates
	if err := json.Unmarshal(b, &ag); err != nil {
		return nil
	}
	if ag.Schema != aggSchema || ag.Fingerprint != fingerprint {
		return nil
	}
	return &ag
}
