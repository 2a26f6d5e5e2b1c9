package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// runSeconds is BENCHMARK.json's run_seconds: the timed reps of a run last
// about this long on the 2-core reference box (12 to 30 s by workload). Work
// is bounded by count, never by the clock, so -seconds only scales the rep
// counts (options.reps).
const runSeconds = 20

// metricDef names one metric; BENCHMARK.json carries the same list and
// bench_test.go holds the two together.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: tolerated relative worsening of the median
}

// endToEnd is what a user of the system sees. Every workload reports all six;
// a workload whose operation is the rep itself (a census day) has one latency
// sample per rep, so its p50_ms and p95_ms both read the median rep.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"work_per_s", "1/s", "higher", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"out_bytes_per_unit", "B", "lower", 0.05},
	{"p50_ms", "ms", "lower", 0.25},
	{"p95_ms", "ms", "lower", 0.25},
}

// perLayer is what the traced run adds: one layer each, named module.metric.
// A workload reports 0 for a layer it does not execute.
var perLayer = []metricDef{
	{Name: "netsim.world_build_s", Unit: "s", Better: "lower"},
	{Name: "netsim.iter_targets_per_s", Unit: "1/s", Better: "higher"},
	{Name: "netsim.target_at_ns", Unit: "ns", Better: "lower"},
	{Name: "netsim.probe_anycast_ns", Unit: "ns", Better: "lower"},
	{Name: "netsim.probe_unicast_ns", Unit: "ns", Better: "lower"},
	{Name: "packet.icmp_ns", Unit: "ns", Better: "lower"},
	{Name: "packet.tcp_ns", Unit: "ns", Better: "lower"},
	{Name: "packet.dns_ns", Unit: "ns", Better: "lower"},
	{Name: "hitlist.for_day_s", Unit: "s", Better: "lower"},
	{Name: "manycast.icmp_s", Unit: "s", Better: "lower"},
	{Name: "manycast.tcp_s", Unit: "s", Better: "lower"},
	{Name: "manycast.dns_s", Unit: "s", Better: "lower"},
	{Name: "manycast.probes", Unit: "count", Better: "lower"},
	{Name: "gcdmeas.run_s", Unit: "s", Better: "lower"},
	{Name: "gcdmeas.targets", Unit: "count", Better: "lower"},
	{Name: "gcdmeas.probes", Unit: "count", Better: "lower"},
	{Name: "gcdmeas.sweep_s", Unit: "s", Better: "lower"},
	{Name: "chaosdns.census_s", Unit: "s", Better: "lower"},
	{Name: "igreedy.analyze_ns", Unit: "ns", Better: "lower"},
	{Name: "igreedy.detect_ns", Unit: "ns", Better: "lower"},
	{Name: "cities.highest_population_ns", Unit: "ns", Better: "lower"},
	{Name: "geo.distance_ns", Unit: "ns", Better: "lower"},
	{Name: "core.run_daily_s", Unit: "s", Better: "lower"},
	{Name: "core.self_share", Unit: "share", Better: "lower"},
	{Name: "core.document_encode_s", Unit: "s", Better: "lower"},
	{Name: "core.par_speedup", Unit: "x", Better: "higher"},
	{Name: "core.alloc_kb_per_target", Unit: "KB", Better: "lower"},
	{Name: "core.allocs_per_target", Unit: "count", Better: "lower"},
	{Name: "longitudinal.generate_s", Unit: "s", Better: "lower"},
	{Name: "archive.append_ms", Unit: "ms", Better: "lower"},
	{Name: "archive.verify_s", Unit: "s", Better: "lower"},
	{Name: "archive.stored_kb_per_day", Unit: "KB", Better: "lower"},
	{Name: "archive.stored_ratio", Unit: "share", Better: "lower"},
	{Name: "archive.decode_cold_ms", Unit: "ms", Better: "lower"},
	{Name: "archive.range_days_per_s", Unit: "1/s", Better: "higher"},
	{Name: "query.build_full_s", Unit: "s", Better: "lower"},
	{Name: "query.build_daily_s", Unit: "s", Better: "lower"},
	{Name: "query.open_ms", Unit: "ms", Better: "lower"},
	{Name: "query.index_kb", Unit: "KB", Better: "lower"},
	{Name: "query.timeline_us", Unit: "us", Better: "lower"},
	{Name: "query.stability_us", Unit: "us", Better: "lower"},
	{Name: "query.aggregates_us", Unit: "us", Better: "lower"},
	{Name: "query.events_ms", Unit: "ms", Better: "lower"},
	{Name: "api.timeline_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "api.stability_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "api.aggregates_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "api.aggregates_304_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "api.day_hot_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "api.day_hot_304_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "api.day_cold_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "api.events_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "api.range_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "api.not_modified_share", Unit: "share", Better: "higher"},
	{Name: "api.alloc_kb_per_req", Unit: "KB", Better: "lower"},
	{Name: "archive.decodes", Unit: "count", Better: "lower"},
	{Name: "archive.lru_hit_share", Unit: "share", Better: "higher"},
	{Name: "query.lookups", Unit: "count", Better: "lower"},
	{Name: "query.cache_hit_share", Unit: "share", Better: "higher"},
	{Name: "query.decode_fallbacks", Unit: "count", Better: "lower"},
	{Name: "query.events_scanned", Unit: "count", Better: "lower"},
	{Name: "query.events_pruned", Unit: "count", Better: "higher"},
	{Name: "trace_overhead_share", Unit: "share", Better: "lower"},
	{Name: "trace_coverage_share", Unit: "share", Better: "higher"},
}

// exactLayer marks the per-layer counts that must repeat exactly between two
// traced runs of one seed: -compare refuses result sets where they do not.
var exactLayer = map[string]bool{
	"manycast.probes": true, "gcdmeas.targets": true, "gcdmeas.probes": true,
	"api.not_modified_share": true, "archive.decodes": true, "archive.lru_hit_share": true,
	"query.lookups": true, "query.cache_hit_share": true, "query.decode_fallbacks": true,
	"query.events_scanned": true, "query.events_pruned": true,
}

// result is one run of one workload.
type result struct {
	Workload   string `json:"workload"`
	Seed       int    `json:"seed"`
	Traced     bool   `json:"traced"`
	GoMaxProcs int    `json:"gomaxprocs"`
	Unit       string `json:"unit"` // what work_per_s counts
	Reps       int    `json:"reps"`

	Ops    int `json:"ops"`    // operations attempted: reps, or requests
	Failed int `json:"failed"` // operations that erred or failed their output check

	OutSHA256 string    `json:"out_sha256"` // over everything the workload published
	RepS      []float64 `json:"rep_s"`      // wall time of every rep that succeeded

	// Problems lists every correctness check that failed.
	Problems []string `json:"problems,omitempty"`

	Metrics map[string]float64 `json:"metrics"`
}

func (r *result) fail(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

func (r *result) correct() bool { return len(r.Problems) == 0 && r.Failed == 0 }

// reported returns the metric list this run owes: end-to-end metrics from an
// untraced run, per-layer metrics from a traced one.
func (r *result) reported() []metricDef {
	if r.Traced {
		return perLayer
	}
	return endToEnd
}

// print writes the metrics by name with their units, then the one-line JSON
// object the benchmark contract asks for as the last line.
func (r *result) print(w io.Writer) {
	fmt.Fprintf(w, "== %s  seed=%d traced=%v gomaxprocs=%d reps=%d unit=%s\n",
		r.Workload, r.Seed, r.Traced, r.GoMaxProcs, r.Reps, r.Unit)
	for _, d := range r.reported() {
		v, ok := r.Metrics[d.Name]
		if !ok {
			continue // a layer this workload does not execute
		}
		fmt.Fprintf(w, "%-32s %16.6g %s\n", d.Name, v, d.Unit)
	}
	fmt.Fprintf(w, "%-32s %16d\n%-32s %16d\n", "ops", r.Ops, "failed", r.Failed)
	q1, q3 := quartiles(r.RepS)
	fmt.Fprintf(w, "%-32s %16.6g s\n%-32s %16.6g s\n", "rep_q1_s", q1, "rep_q3_s", q3)
	fmt.Fprintf(w, "%-32s %s\n", "out_sha256", r.OutSHA256)
	for _, p := range r.Problems {
		fmt.Fprintf(w, "FAILED CHECK: %s\n", p)
	}
	fmt.Fprintln(w, r.contractLine())
}

type contractValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// contractLine is the run's result as the benchmark contract reads it.
func (r *result) contractLine() string {
	attempted := r.Ops
	if attempted < 1 {
		attempted = 1
	}
	out := struct {
		Correct   bool                     `json:"correct"`
		Attempted int                      `json:"attempted"`
		Failed    int                      `json:"failed"`
		Metrics   map[string]contractValue `json:"metrics"`
	}{r.correct(), attempted, r.Failed, make(map[string]contractValue)}
	for _, d := range r.reported() {
		v := r.Metrics[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
			out.Correct = false
		}
		out.Metrics[d.Name] = contractValue{v, d.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err) // only numbers, strings and bools: cannot fail
	}
	return string(b)
}
