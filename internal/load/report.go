package load

// The loadgen report: BENCH_api.json. Quantiles are interpolated from
// the fixed-bucket latency histograms, so the report is cheap to
// produce, stable to diff, and needs no raw-sample retention.

import (
	"encoding/json"
	"io"
	"math"
	"sort"
	"time"

	"github.com/laces-project/laces/internal/obs"
)

// ReportSchema versions the BENCH_api.json document.
const ReportSchema = "laces-loadgen/v1"

// OpStats is the per-op-kind section of the report.
type OpStats struct {
	Op          string  `json:"op"`
	Requests    int64   `json:"requests"`
	Errors      int64   `json:"errors"`
	NotModified int64   `json:"not_modified"`
	P50Ms       float64 `json:"p50_ms"`
	P95Ms       float64 `json:"p95_ms"`
	P99Ms       float64 `json:"p99_ms"`
}

// Report is the whole BENCH_api.json document.
type Report struct {
	Schema          string    `json:"schema"`
	Target          string    `json:"target"` // "in-process" or the base URL
	Family          string    `json:"family"`
	Days            int       `json:"days"`
	Prefixes        int       `json:"prefixes"`
	Seed            int64     `json:"seed"`
	Workers         int       `json:"workers"`
	RatePerSec      float64   `json:"rate_per_sec"` // 0 = closed loop
	Revalidate      float64   `json:"revalidate_fraction"`
	ScheduledOps    int       `json:"scheduled_ops"`
	Requests        int64     `json:"requests"`
	Errors          int64     `json:"errors"`
	NotModified     int64     `json:"not_modified"`
	NotModifiedRate float64   `json:"not_modified_rate"`
	WallSeconds     float64   `json:"wall_seconds"`
	ReqPerSec       float64   `json:"req_per_sec"`
	P50Ms           float64   `json:"p50_ms"`
	P95Ms           float64   `json:"p95_ms"`
	P99Ms           float64   `json:"p99_ms"`
	AllocPerOp      float64   `json:"alloc_bytes_per_op"` // 0 when not in-process
	DeterminismOK   bool      `json:"determinism_ok"`
	DeterminismNote string    `json:"determinism_note,omitempty"`
	Ops             []OpStats `json:"ops"`
}

// WriteJSON emits the report as indented JSON with a trailing newline.
func (r *Report) WriteJSON(w io.Writer) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// quantile interpolates the q-quantile (0 < q < 1) in seconds from a
// fixed-bucket histogram: linear within the bucket that crosses the
// target rank. The +Inf bucket clamps to the last finite bound — a
// deliberate under-report that keeps the value finite and the report
// diffable.
func quantile(h *obs.Histogram, q float64) float64 {
	total := h.Count()
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	bounds := h.Bounds()
	counts := h.BucketCounts()
	var cum float64
	lower := 0.0
	for i, c := range counts {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if next >= rank {
			if i >= len(bounds) {
				return bounds[len(bounds)-1]
			}
			upper := bounds[i]
			frac := (rank - cum) / float64(c)
			return lower + frac*(upper-lower)
		}
		cum = next
		if i < len(bounds) {
			lower = bounds[i]
		}
	}
	if len(bounds) > 0 {
		return bounds[len(bounds)-1]
	}
	return 0
}

// merge folds a set of histograms into one (shared bounds assumed) for
// the report's overall quantiles.
func mergedQuantile(hists map[string]*obs.Histogram, q float64) float64 {
	var bounds []float64
	var counts []int64
	for _, h := range hists {
		b, c := h.Bounds(), h.BucketCounts()
		if counts == nil {
			bounds = b
			counts = make([]int64, len(c))
		}
		for i, v := range c {
			counts[i] += v
		}
	}
	var total int64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum float64
	lower := 0.0
	for i, c := range counts {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if next >= rank {
			if i >= len(bounds) {
				return bounds[len(bounds)-1]
			}
			frac := (rank - cum) / float64(c)
			return lower + frac*(bounds[i]-lower)
		}
		cum = next
		if i < len(bounds) {
			lower = bounds[i]
		}
	}
	return bounds[len(bounds)-1]
}

func ms(seconds float64) float64 { return round3(seconds * 1e3) }

func round3(v float64) float64 { return math.Round(v*1e3) / 1e3 }

// buildReport assembles the final document from the run's tallies.
func buildReport(cfg Config, total int, wall time.Duration, allocPerOp float64,
	pr *probeResult, hists map[string]*obs.Histogram, tallies *[5]opTally) *Report {
	target := "in-process"
	if cfg.BaseURL != "" {
		target = cfg.BaseURL
	}
	rep := &Report{
		Schema:          ReportSchema,
		Target:          target,
		Family:          cfg.Family,
		Days:            len(cfg.Days),
		Prefixes:        len(cfg.Prefixes),
		Seed:            cfg.Seed,
		Workers:         cfg.Workers,
		RatePerSec:      cfg.Rate,
		Revalidate:      cfg.Revalidate,
		ScheduledOps:    total,
		WallSeconds:     round3(wall.Seconds()),
		AllocPerOp:      math.Round(allocPerOp),
		DeterminismOK:   pr.detOK,
		DeterminismNote: pr.detNote,
	}
	for kind, h := range hists {
		t := &tallies[opIndex(kind)]
		reqs := t.requests.Load()
		if reqs == 0 {
			continue
		}
		rep.Requests += reqs
		rep.Errors += t.errors.Load()
		rep.NotModified += t.notModified.Load()
		rep.Ops = append(rep.Ops, OpStats{
			Op:          kind,
			Requests:    reqs,
			Errors:      t.errors.Load(),
			NotModified: t.notModified.Load(),
			P50Ms:       ms(quantile(h, 0.50)),
			P95Ms:       ms(quantile(h, 0.95)),
			P99Ms:       ms(quantile(h, 0.99)),
		})
	}
	sort.Slice(rep.Ops, func(i, j int) bool { return rep.Ops[i].Op < rep.Ops[j].Op })
	if rep.Requests > 0 {
		rep.NotModifiedRate = round3(float64(rep.NotModified) / float64(rep.Requests))
	}
	if wall > 0 {
		rep.ReqPerSec = round3(float64(rep.Requests) / wall.Seconds())
	}
	rep.P50Ms = ms(mergedQuantile(hists, 0.50))
	rep.P95Ms = ms(mergedQuantile(hists, 0.95))
	rep.P99Ms = ms(mergedQuantile(hists, 0.99))
	return rep
}
