// Package laces is a from-scratch Go implementation of LACeS — the
// Longitudinal Anycast Census System of Hendriks et al. (ACM IMC 2025) —
// over a deterministic simulated Internet. This package re-exports what
// the programs under examples/ use; README.md maps the rest of the tree.
//
// # Quick start
//
//	world, _ := laces.NewWorld(laces.TestConfig())
//	dep, _ := laces.Tangled(world)
//	pipe, _ := laces.NewPipeline(world, laces.PipelineConfig{
//	        Deployment: dep,
//	        GCDVPs:     laces.ArkVPs(world),
//	})
//	census, _ := pipe.RunDaily(0, false, laces.DayOptions{})
//	fmt.Println(census.CountG(), "GCD-confirmed anycast /24s")
package laces

import (
	"github.com/laces-project/laces/internal/api"
	"github.com/laces-project/laces/internal/archive"
	"github.com/laces-project/laces/internal/budget"
	"github.com/laces-project/laces/internal/chaos"
	"github.com/laces-project/laces/internal/core"
	"github.com/laces-project/laces/internal/hitlist"
	"github.com/laces-project/laces/internal/load"
	"github.com/laces-project/laces/internal/longitudinal"
	"github.com/laces-project/laces/internal/netsim"
	"github.com/laces-project/laces/internal/obs"
	"github.com/laces-project/laces/internal/packet"
	"github.com/laces-project/laces/internal/platform"
	"github.com/laces-project/laces/internal/query"
	"github.com/laces-project/laces/internal/report"
)

// Core world types.
type (
	// World is the simulated Internet: targets, ASes, operators and the
	// routing/latency model.
	World = netsim.World
	// WorldConfig parameterises world generation.
	WorldConfig = netsim.Config
	// Deployment is an anycast measurement deployment (the Worker
	// platform).
	Deployment = netsim.Deployment
	// VP is a unicast vantage point for latency measurements.
	VP = netsim.VP
	// Target is one probed prefix with its ground truth.
	Target = netsim.Target
)

// Pipeline types.
type (
	// Pipeline is the daily census pipeline — the paper's contribution.
	Pipeline = core.Pipeline
	// PipelineConfig parameterises the pipeline.
	PipelineConfig = core.Config
	// DayOptions injects per-day operational events.
	DayOptions = core.DayOptions
	// DailyCensus is one day's published census.
	DailyCensus = core.DailyCensus
	// Hitlist is the census input (§4.1).
	Hitlist = hitlist.Hitlist
	// History is a longitudinal census run.
	History = longitudinal.History
	// CensusDocument is the published JSON form of one census day.
	CensusDocument = core.Document
	// CensusDiff summarises day-over-day census changes.
	CensusDiff = report.DiffResult
)

// Archive (longitudinal census store) types.
type (
	// CensusArchive reads an append-only, delta-encoded census store.
	CensusArchive = archive.Archive
	// CensusArchiveWriter appends days to a census store.
	CensusArchiveWriter = archive.Writer
	// CensusArchiveOptions parameterises archive creation.
	CensusArchiveOptions = archive.Options
	// CensusSink consumes finished census days as they complete (a
	// CensusArchiveWriter is one; RunLongitudinalInto streams into it).
	CensusSink = archive.Sink
)

// Longitudinal query engine types (the columnar prefix-timeline index
// over a census archive).
type (
	// CensusTimelineIndex answers longitudinal queries — timelines,
	// events, stability, aggregate series — from the columnar index
	// alone, without decoding archived documents.
	CensusTimelineIndex = query.Index
	// PrefixTimeline is one prefix's full longitudinal record.
	PrefixTimeline = query.Timeline
	// TimelineEvent is one detected longitudinal event (onset, offset,
	// flap, site-churn, geo-shift).
	TimelineEvent = query.Event
	// TimelineEventKind names an event class.
	TimelineEventKind = query.EventKind
	// PrefixStability is one prefix's longitudinal stability score.
	PrefixStability = query.Stability
	// CensusIndexBuild summarises one index build.
	CensusIndexBuild = query.BuildResult
	// CensusAggregates is the materialized dashboard block — per-day
	// aggregate series, churn summary, stability histogram — written as
	// a sidecar at index-build time and served without row reads.
	CensusAggregates = query.Aggregates
)

// Responsible-probing governance types (the R3 layer: probe budgets,
// opt-outs, adaptive rate feedback).
type (
	// ProbeBudget caps a census day's probing: global, per-origin-AS and
	// per-prefix; the zero value is unlimited. Set it on
	// PipelineConfig.Budget.
	ProbeBudget = budget.Budget
	// OptOutRegistry holds networks that asked not to be measured, with
	// a Touched() audit trail. Load one with LoadOptOutRegistry and set it on
	// PipelineConfig.OptOut.
	OptOutRegistry = budget.Registry
)

// LoadOptOutRegistry loads an opt-out registry file (prefix and AS
// entries, # comments).
func LoadOptOutRegistry(path string) (*OptOutRegistry, error) {
	return budget.LoadRegistryFile(path)
}

// Chaos (fault-injection) types.
type (
	// ChaosScenario is a named schedule of impairments over the census
	// timeline; set it on DayOptions.Chaos.
	ChaosScenario = chaos.Scenario
	// ChaosReport is the resilience table: census accuracy per scenario
	// against the clean baseline.
	ChaosReport = chaos.Report
	// ChaosOutcome is one scored census run inside a ChaosReport.
	ChaosOutcome = chaos.Outcome
	// ChaosMethodStats holds precision/recall counts for one census method.
	ChaosMethodStats = chaos.MethodStats
)

// ChaosScore compares a claimed target-ID set against a ground-truth set.
func ChaosScore(claimed, truth map[int]bool) ChaosMethodStats { return chaos.Score(claimed, truth) }

// Probing protocols.
const (
	ICMP = packet.ICMP
	TCP  = packet.TCP
	DNS  = packet.DNS
)

// NewWorld generates a simulated Internet from the configuration.
func NewWorld(cfg WorldConfig) (*World, error) { return netsim.New(cfg) }

// TestConfig returns a small world configuration for fast runs.
func TestConfig() WorldConfig { return netsim.TestConfig() }

// Tangled returns the 32-site TANGLED measurement deployment.
func Tangled(w *World) (*Deployment, error) {
	return platform.Tangled(w, netsim.PolicyUnmodified)
}

// NewPipeline builds the census pipeline.
func NewPipeline(w *World, cfg PipelineConfig) (*Pipeline, error) {
	return core.NewPipeline(w, cfg)
}

// ArkVPs returns a GCD VP source backed by the (growing) Ark platform
// model, suitable for PipelineConfig.GCDVPs.
func ArkVPs(w *World) func(day int, v6 bool) ([]VP, error) {
	return func(day int, v6 bool) ([]VP, error) {
		return platform.Ark(w, day, v6)
	}
}

// HitlistForDay builds the hitlist for a census day (§4.1): every target
// in the day's quarterly snapshot that answers at least one protocol, in
// target-ID order, each flagged with the protocols it answers.
func HitlistForDay(w *World, v6 bool, day int) *Hitlist {
	return hitlist.ForDay(w, v6, day)
}

// ChaosScenarios lists the built-in chaos scenario names, sorted.
func ChaosScenarios() []string { return chaos.Names() }

// ChaosScenarioByName looks up a built-in chaos scenario.
func ChaosScenarioByName(name string) (ChaosScenario, bool) { return chaos.Lookup(name) }

// RunLongitudinal executes a multi-day census (§7). Stride 1 is a full
// daily census; larger strides sample the timeline.
func RunLongitudinal(w *World, days, stride int) (*History, error) {
	return longitudinal.Run(w, longitudinal.Config{
		Days:   days,
		Stride: stride,
		Events: longitudinal.DefaultEvents(),
	})
}

// RunLongitudinalInto executes a multi-day census and streams each
// finished day's published document into the sink (typically a
// CensusArchiveWriter). Peak memory stays O(1) in census size: History
// holds per-day summaries only, never the censuses themselves.
func RunLongitudinalInto(w *World, days, stride int, sink CensusSink) (*History, error) {
	return longitudinal.Run(w, longitudinal.Config{
		Days:   days,
		Stride: stride,
		Events: longitudinal.DefaultEvents(),
		Sink:   sink,
	})
}

// CreateArchive initialises a new delta-encoded census store at dir.
func CreateArchive(dir string, opts CensusArchiveOptions) (*CensusArchiveWriter, error) {
	return archive.Create(dir, opts)
}

// OpenArchive opens a census store for reading.
func OpenArchive(dir string) (*CensusArchive, error) { return archive.Open(dir) }

// BuildCensusIndex materializes the columnar prefix-timeline index of
// the archive at dir next to its index.jsonl (as timeline.idx). A
// timeline.idx already there is extended by the days appended since — it
// decodes those days' delta chains, not the history — to the same bytes
// a build from nothing writes.
func BuildCensusIndex(dir string) (*CensusIndexBuild, error) { return query.BuildDir(dir) }

// OpenCensusIndex opens the timeline index of the archive at dir, with
// the archive attached for full-entry fallback queries.
func OpenCensusIndex(dir string) (*CensusTimelineIndex, error) { return query.OpenDir(dir) }

// QueryTimeline answers one prefix's longitudinal timeline from the
// index alone — no archived document is decoded.
func QueryTimeline(ix *CensusTimelineIndex, family, prefix string) (*PrefixTimeline, error) {
	return ix.Timeline(family, prefix)
}

// QueryEvents scans a family's timelines for longitudinal events of
// the given kinds (nil means all) with effect days in [from, to]
// (to < 0: through the last indexed day), using default hysteresis.
func QueryEvents(ix *CensusTimelineIndex, family string, kinds []TimelineEventKind, from, to int) ([]TimelineEvent, error) {
	return ix.Events(family, kinds, from, to, query.EventOptions{})
}

// QueryStability scores one prefix's longitudinal steadiness.
func QueryStability(ix *CensusTimelineIndex, family, prefix string) (*PrefixStability, error) {
	return ix.Stability(family, prefix)
}

// QueryAggregates returns the index's materialized aggregates —
// precomputed at build time (the timeline.idx.agg sidecar) or computed
// once on demand when the sidecar is absent.
func QueryAggregates(ix *CensusTimelineIndex) (*CensusAggregates, error) {
	return ix.Aggregates()
}

// HTTP serving tier types (the internal/api server and the
// internal/load workload generator that drives it).
type (
	// CensusAPIServer serves the census, archive and longitudinal query
	// layers over HTTP with conditional-request caching, cursor
	// pagination and snapshot-isolated reads (Reload publishes a new
	// generation; in-flight requests keep theirs).
	CensusAPIServer = api.Server
	// LoadConfig parameterises one deterministic load run.
	LoadConfig = load.Config
	// LoadMix weights the workload by op kind (day fetch, timeline,
	// events, stability, aggregates).
	LoadMix = load.Mix
	// LoadReport is the BENCH_api.json document: sustained req/s,
	// interpolated p50/p95/p99, 304 hit rate, alloc/op and the
	// determinism-probe verdict.
	LoadReport = load.Report
)

// NewCensusAPIServer builds the HTTP serving tier over a world and its
// deployment. Attach an archive and timeline index via the Server's
// fields (or Reload) to light up the archived-day and longitudinal
// routes.
func NewCensusAPIServer(w *World, d *Deployment, gcdVPs func(day int, v6 bool) ([]VP, error), clock func() int) (*CensusAPIServer, error) {
	return api.NewServer(w, d, gcdVPs, clock)
}

// RunLoadTest drives a serving tier (in-process handler or live base
// URL) with a deterministic mixed workload and returns the measured
// report. The schedule is a pure function of the config, and the run's
// probe phase verifies stable ETags and reproducible pagination.
func RunLoadTest(cfg LoadConfig) (*LoadReport, error) { return load.Run(cfg) }

// DiffCensus compares two published census documents day-over-day.
func DiffCensus(old, cur *CensusDocument) *CensusDiff {
	return report.Diff(old, cur)
}

// ObsRegistry is the telemetry root: counters, gauges, histograms, spans
// and census progress. A nil registry disables every instrument at one
// branch per call site, and census output is byte-identical with or
// without one — set it on PipelineConfig.Obs.
type ObsRegistry = obs.Registry

// NewObsRegistry returns an empty telemetry registry.
func NewObsRegistry() *ObsRegistry { return obs.New() }
