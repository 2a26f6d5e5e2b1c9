package query

// Materialized aggregates: the dashboard-shaped hot queries — per-day
// aggregate series, churn summary, stability histogram — precomputed at
// index-build time into a small JSON sidecar next to timeline.idx. The
// serving tier answers GET /v1/aggregates from this file without
// touching row storage; the sidecar carries the index fingerprint, so a
// stale or hand-edited file is detected at Open and silently ignored
// (Aggregates then recomputes from rows once and caches the result).

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
	ix.aggOnce.Do(func() {
		if ix.agg != nil {
			return // preloaded from the sidecar at Open
		}
		ix.agg, ix.aggErr = ix.computeAggregates()
	})
	return ix.agg, ix.aggErr
}

// AggregatesPrecomputed reports whether Aggregates is backed by the
// build-time sidecar (true) or would need a row scan (false).
func (ix *Index) AggregatesPrecomputed() bool { return ix.aggFromDisk }

// computeAggregates derives the full set from the TOC columns and one
// streaming pass over every row. Detection options are the defaults, so
// the result is a pure function of the index bytes — the same
// fingerprint always yields byte-identical aggregates.
func (ix *Index) computeAggregates() (*Aggregates, error) {
	ag := &Aggregates{Schema: aggSchema, Fingerprint: ix.fingerprint}
	var (
		buf  []byte
		scan row
	)
	for _, family := range ix.order {
		fam := ix.fams[family]
		fa := FamilyAggregates{Family: family, Days: len(fam.days), Prefixes: len(fam.prefixes)}

		series, err := ix.Series(family)
		if err != nil {
			return nil, err
		}
		fa.Series = series
		var churnSum float64
		for _, p := range series {
			churnSum += p.ChurnRate
		}
		if len(series) > 0 {
			fa.Churn.MeanChurnRate = round4(churnSum / float64(len(series)))
		}

		buckets := make([]StabilityBucket, 10)
		for b := range buckets {
			buckets[b].LE = round4(float64(b+1) / 10)
		}
		var scoreSum float64
		for _, ref := range fam.prefixes {
			if buf, err = ix.readRow(buf, ref); err != nil {
				return nil, err
			}
			if err := scan.load(ref, len(fam.days), buf); err != nil {
				return nil, err
			}
			st := scan.score(family, ref.prefix, fam.days, EventOptions{})
			fa.Churn.Onsets += st.Onsets
			fa.Churn.Offsets += st.Offsets
			fa.Churn.Flaps += st.Flaps
			fa.Churn.SiteChanges += st.SiteChanges
			fa.Churn.GeoShifts += st.GeoShifts
			scoreSum += st.Score
			bi := 0
			for bi < len(buckets)-1 && st.Score > buckets[bi].LE {
				bi++
			}
			buckets[bi].Count++
		}
		fa.Churn.Events = fa.Churn.Onsets + fa.Churn.Offsets + fa.Churn.Flaps +
			fa.Churn.SiteChanges + fa.Churn.GeoShifts
		fa.Stability.Buckets = buckets
		if len(fam.prefixes) > 0 {
			fa.Stability.Mean = round4(scoreSum / float64(len(fam.prefixes)))
		}
		ag.Families = append(ag.Families, fa)
	}
	return ag, nil
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
