// Package laces is a from-scratch Go implementation of LACeS — the
// Longitudinal Anycast Census System of Hendriks et al. (ACM IMC 2025) —
// together with every substrate the paper's evaluation depends on.
//
// LACeS combines two complementary anycast measurement methodologies:
//
//   - the anycast-based detection of MAnycast2: probe every hitlist target
//     once from each site of an anycast deployment; targets whose replies
//     arrive at two or more sites become anycast candidates;
//   - the latency-based Great-Circle-Distance confirmation of iGreedy:
//     RTTs from dispersed vantage points draw discs the responder must lie
//     in; disjoint discs prove anycast, a greedy independent set of discs
//     enumerates sites, and the highest-population city in each disc
//     geolocates them.
//
// The pipeline feeds candidates (plus a feedback loop of previously
// confirmed prefixes) into the latency stage and publishes 𝒢 (confirmed)
// and ℳ (anycast-based only) daily.
//
// Because a measurement study cannot ship the Internet, this module ships
// a deterministic simulated Internet (see internal/netsim) that reproduces
// every phenomenon the paper analyses — ECMP tie-splitting, route churn,
// Microsoft-style globally announced unicast, temporary and partial
// anycast, regional deployments, backing-anycast traffic engineering —
// while the Orchestrator/Worker/CLI measurement plane runs over real TCP
// sockets and real packet codecs.
//
// On top of the simulator sits a deterministic chaos layer (see
// internal/chaos): composable impairments — packet loss, delay, blackhole,
// site outage, regional partition, route-flap amplification, clock skew,
// reply throttling — scoped by target, AS, worker, protocol and day range,
// bundled into named scenarios and injected through DayOptions.Chaos. The
// same world seed and scenario always produce a byte-identical census, so
// failure drills are reproducible experiments;
// `laces-experiments -only chaos` scores every built-in scenario against
// the clean baseline.
//
// The "responsible" pillar (R3) goes beyond rate limiting: a
// probe-budget ledger (per-day global, per-AS and per-prefix caps), an
// opt-out registry with an audit trail, and an adaptive rate controller
// that halves the probing rate per abuse complaint (floored at the
// paper's 1/8th-rate accuracy point, §5.5.2) govern every measurement
// stage. Governed documents publish a `responsibility` block whose
// accounting reconciles exactly (spent + skipped == demanded); see the
// README's "Responsible probing" section.
//
// The pipeline's hot measurement loops run on a sharded worker pool
// (PipelineConfig.Parallelism; default all cores) whose output is
// byte-identical to the sequential run at every worker count — see the
// README's "Concurrency model" section for the determinism contract.
//
// Longitudinal runs stream into an append-only, delta-encoded census
// store (see internal/archive): full snapshots every K days, deltas in
// between, and a CRC-verified guarantee that unpacking reproduces every
// day's published JSON byte-for-byte. The HTTP API, the dashboard and
// the diff tooling all serve straight from the store — see the README's
// "Longitudinal census archive" section.
//
// Longitudinal questions — per-prefix timelines, onset/offset/flap and
// site-churn events, stability scores, daily churn series — are
// answered by a columnar prefix-timeline index built over the store
// (see internal/query): one streaming indexing pass — extended day by
// day afterwards, each step decoding only the appended days — then every
// query runs from the index alone without decoding a single archived day.
// BuildCensusIndex / OpenCensusIndex / QueryTimeline are the facade;
// the README's "Querying the archive" section has the CLI and HTTP
// tour.
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
//
// The examples/ directory contains runnable programs; cmd/laces is the
// distributed measurement CLI and cmd/laces-experiments regenerates every
// table and figure of the paper.
package laces

import (
	"io"
	"time"

	"github.com/laces-project/laces/internal/api"
	"github.com/laces-project/laces/internal/archive"
	"github.com/laces-project/laces/internal/budget"
	"github.com/laces-project/laces/internal/chaos"
	"github.com/laces-project/laces/internal/core"
	"github.com/laces-project/laces/internal/geo"
	"github.com/laces-project/laces/internal/hitlist"
	"github.com/laces-project/laces/internal/igreedy"
	"github.com/laces-project/laces/internal/load"
	"github.com/laces-project/laces/internal/longitudinal"
	"github.com/laces-project/laces/internal/netsim"
	"github.com/laces-project/laces/internal/obs"
	"github.com/laces-project/laces/internal/packet"
	"github.com/laces-project/laces/internal/platform"
	"github.com/laces-project/laces/internal/query"
	"github.com/laces-project/laces/internal/report"
	"github.com/laces-project/laces/internal/traceroute"
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
	// Coordinate is a geographic point (decimal degrees).
	Coordinate = geo.Coordinate
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
	// CensusEntry is one published census row.
	CensusEntry = core.Entry
	// GCDLSResult is a periodic full-hitlist GCD sweep.
	GCDLSResult = core.GCDLSResult
)

// Measurement types.
type (
	// Hitlist is the census input (§4.1).
	Hitlist = hitlist.Hitlist
	// Protocol selects ICMP, TCP or DNS probing.
	Protocol = packet.Protocol
	// GCDSample is one latency observation for iGreedy analysis.
	GCDSample = igreedy.Sample
	// GCDResult is an iGreedy detection/enumeration/geolocation outcome.
	GCDResult = igreedy.Result
	// History is a longitudinal census run.
	History = longitudinal.History
)

// Traceroute and census-consumer types (the paper's §5.1.3/§5.2 future
// work and published-dataset tooling).
type (
	// TracePath is one TTL-based forward-path measurement.
	TracePath = traceroute.Path
	// TraceOptions configures a trace.
	TraceOptions = traceroute.Options
	// Fanout aggregates traces to one target from many vantage points;
	// Fanout.GlobalBGP reports the multi-PoP-ingress single-server
	// signature.
	Fanout = traceroute.Fanout
	// CensusDocument is the published JSON form of one census day.
	CensusDocument = core.Document
	// CensusDocumentDelta is the day-over-day difference between two
	// published documents (the archive's between-snapshot encoding).
	CensusDocumentDelta = core.DocumentDelta
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
	// CensusSink consumes finished census days as they complete (an
	// ArchiveWriter is one; RunLongitudinalInto streams into it).
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
	// TimelineEventOptions tunes event detection (hysteresis, site
	// churn threshold).
	TimelineEventOptions = query.EventOptions
	// PrefixStability is one prefix's longitudinal stability score.
	PrefixStability = query.Stability
	// CensusSeriesPoint is one day of the aggregate census series.
	CensusSeriesPoint = query.SeriesPoint
	// CensusIndexBuild summarises one index build.
	CensusIndexBuild = query.BuildResult
	// CensusAggregates is the materialized dashboard block — per-day
	// aggregate series, churn summary, stability histogram — written as
	// a sidecar at index-build time and served without row reads.
	CensusAggregates = query.Aggregates
	// CensusFamilyAggregates is one family's materialized block.
	CensusFamilyAggregates = query.FamilyAggregates
	// CensusChurnSummary totals a family's longitudinal events.
	CensusChurnSummary = query.ChurnSummary
	// CensusStabilitySummary is a family's stability-score histogram.
	CensusStabilitySummary = query.StabilitySummary
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
	// ProbeLedger is the per-day budget accountant behind a governed
	// pipeline (Pipeline.Ledger exposes it).
	ProbeLedger = budget.Ledger
	// BudgetUsage is one stage's governance accounting (demanded /
	// spent / skipped budget units).
	BudgetUsage = budget.Usage
	// CensusResponsibility is the published governance block of a
	// census document (Document.Responsibility).
	CensusResponsibility = core.Responsibility
)

// ParseProbeBudget parses a budget spec such as "250000" or
// "daily:250000,as:5000,prefix:200".
func ParseProbeBudget(s string) (ProbeBudget, error) { return budget.ParseBudget(s) }

// LoadOptOutRegistry loads an opt-out registry file (prefix and AS
// entries, # comments).
func LoadOptOutRegistry(path string) (*OptOutRegistry, error) {
	return budget.LoadRegistryFile(path)
}

// StepProbeRate is the adaptive rate controller: each abuse-complaint
// signal halves the probing rate, floored at 1/8th (§5.5.2's accuracy
// operating point). The census pipeline applies it automatically when a
// chaos scenario carries AbuseComplaint impairments.
func StepProbeRate(base float64, complaints int) (float64, int) {
	return budget.StepRate(base, complaints, 0)
}

// Chaos (fault-injection) types.
type (
	// ChaosImpairment is one scoped fault (loss, delay, blackhole, site
	// outage, partition, route flap, clock skew, throttle).
	ChaosImpairment = chaos.Impairment
	// ChaosScope bounds where and when an impairment applies.
	ChaosScope = chaos.Scope
	// ChaosScenario is a named schedule of impairments over the census
	// timeline; set it on DayOptions.Chaos.
	ChaosScenario = chaos.Scenario
	// ChaosEngine is a scenario compiled against a world — the
	// netsim-level probe impairer.
	ChaosEngine = chaos.Engine
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

// CensusEpoch is day 0 of the census timeline (March 21, 2024).
var CensusEpoch = netsim.CensusEpoch

// NewWorld generates a simulated Internet from the configuration.
func NewWorld(cfg WorldConfig) (*World, error) { return netsim.New(cfg) }

// DefaultConfig returns the experiment-scale world configuration.
func DefaultConfig() WorldConfig { return netsim.DefaultConfig() }

// TestConfig returns a small world configuration for fast runs.
func TestConfig() WorldConfig { return netsim.TestConfig() }

// PaperScaleConfig returns an Internet-scale world configuration (~1M
// IPv4 /24s, 150k IPv6 /48s, 80k ASes) with lazy target generation:
// targets are derived on demand from the seed through a bounded arena,
// so peak memory is independent of the hitlist size. Census results are
// byte-identical to an eager world with the same configuration.
func PaperScaleConfig() WorldConfig { return netsim.PaperScaleConfig() }

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

// CityLocation looks up a city's coordinates in the world's geolocation
// database.
func CityLocation(w *World, name string) (Coordinate, bool) {
	c, ok := w.DB.ByName(name)
	if !ok {
		return Coordinate{}, false
	}
	return c.Location, true
}

// AnalyzeGCD runs the iGreedy analysis over latency samples: detection,
// site enumeration and geolocation.
func AnalyzeGCD(samples []GCDSample) GCDResult {
	return igreedy.Analyze(samples, igreedy.Options{})
}

// RunGCDLS performs a full-hitlist GCD sweep (§5.1.1) for seeding the
// pipeline's feedback loop.
func RunGCDLS(w *World, vps []VP, v6 bool, day int) *GCDLSResult {
	return core.RunGCDLS(w, vps, v6, day)
}

// ChaosScenarios lists the registered chaos scenario names (the built-in
// suite plus anything added with RegisterChaosScenario).
func ChaosScenarios() []string { return chaos.Names() }

// ChaosScenarioByName looks up a registered chaos scenario.
func ChaosScenarioByName(name string) (ChaosScenario, bool) { return chaos.Lookup(name) }

// RegisterChaosScenario adds a custom scenario to the registry.
func RegisterChaosScenario(s ChaosScenario) { chaos.Register(s) }

// NewChaosEngine compiles a scenario against a world. The census pipeline
// does this automatically for DayOptions.Chaos; use it directly (with
// World.SetImpairer) to impair raw netsim probing.
func NewChaosEngine(w *World, s ChaosScenario) *ChaosEngine { return chaos.NewEngine(w, s) }

// NoEvents is the explicitly empty longitudinal event calendar: a clean
// census with no substituted default incidents.
func NoEvents() longitudinal.Events { return longitudinal.NoEvents() }

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

// OpenArchiveWriter resumes appending to an existing census store.
func OpenArchiveWriter(dir string, opts CensusArchiveOptions) (*CensusArchiveWriter, error) {
	return archive.OpenWriter(dir, opts)
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
	return ix.Events(family, kinds, from, to, TimelineEventOptions{})
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

// Traceroute measures the TTL-based forward path from a vantage point to
// a hitlist target at a point on the census timeline.
func Traceroute(w *World, vp VP, tg *Target, at time.Time) (*TracePath, error) {
	return traceroute.Run(w, vp, tg, TraceOptions{At: at})
}

// MeasureFanout traces a target from every vantage point and aggregates
// the ingress-PoP/server evidence (§5.1.3: Fanout.GlobalBGP is the
// globally-announced-unicast confirmation).
func MeasureFanout(w *World, vps []VP, tg *Target, at time.Time) (*Fanout, error) {
	return traceroute.Measure(w, vps, tg, TraceOptions{At: at})
}

// DiffCensus compares two published census documents day-over-day.
func DiffCensus(old, cur *CensusDocument) *CensusDiff {
	return report.Diff(old, cur)
}

// RenderDashboard writes the text dashboard over a series of published
// census documents.
func RenderDashboard(w io.Writer, docs []*CensusDocument) error {
	return report.Dashboard(w, docs)
}

// ParseCensusDocument reads a census JSON document written by
// DailyCensus.WriteJSON.
func ParseCensusDocument(r io.Reader) (*CensusDocument, error) {
	return core.ParseDocument(r)
}

// Observability types (the internal/obs zero-alloc telemetry core).
type (
	// ObsRegistry is the telemetry root: counters, gauges, histograms,
	// spans and census progress. A nil registry disables every
	// instrument at one branch per call site, and census output is
	// byte-identical with or without one — set it on
	// PipelineConfig.Obs.
	ObsRegistry = obs.Registry
	// ObsSnapshot is the end-of-run telemetry dump: every series' final
	// value plus the span tree and retained events (what `laces census
	// -obs` writes and `laces metrics` renders).
	ObsSnapshot = obs.Snapshot
	// NetsimTelemetry counts probes, replies and routing-cache traffic
	// inside the simulator; attach with World.SetTelemetry and expose
	// with NetsimTelemetry.Register.
	NetsimTelemetry = netsim.Telemetry
)

// NewObsRegistry returns an empty telemetry registry.
func NewObsRegistry() *ObsRegistry { return obs.New() }

// ReadObsSnapshot parses a snapshot written by ObsSnapshot.WriteJSON.
func ReadObsSnapshot(r io.Reader) (*ObsSnapshot, error) { return obs.ReadSnapshot(r) }

// Span and event types — the one span model and one event log every
// layer shares. A census day is one trace (census → phase → stage → shard
// spans); on the fabric, trace contexts minted by the CLI propagate
// through every wire frame, the orchestrator and workers parent their
// spans on them, and the assembled cross-process trace exports as JSONL
// or Chrome trace_event JSON (Perfetto-loadable). Operational events go
// to the registry's flight recorder — a bounded lock-free ring, dumped
// automatically on failure triggers. See the README's "Observability"
// section.
type (
	// ObsTraceContext is the propagatable trace identity carried on wire
	// frames (trace ID plus parent span ID).
	ObsTraceContext = obs.TraceContext
	// ObsTraceSpan is one finished span (ObsSnapshot.Spans, trace
	// exports, wire frames).
	ObsTraceSpan = obs.TraceSpan
	// ObsTraceExport bundles a registry's spans and flight events for
	// interchange; WriteJSONL and WriteChrome are its serializations.
	ObsTraceExport = obs.TraceExport
	// ObsFlightEvent is one flight-recorder entry (ObsSnapshot.Events,
	// trace exports).
	ObsFlightEvent = obs.FlightEvent
	// ObsFlightRecorder is a component's bounded lock-free event ring.
	ObsFlightRecorder = obs.Recorder
)

// ReadTraceJSONL parses a trace export written by ObsTraceExport.WriteJSONL
// (the `-trace` flag and GET /debug/trace interchange format).
func ReadTraceJSONL(r io.Reader) (*ObsTraceExport, error) { return obs.ReadTraceJSONL(r) }

// MergeTraces combines per-component trace exports into one (what
// `laces trace export` does with the files of a distributed run).
func MergeTraces(parts ...*ObsTraceExport) *ObsTraceExport { return obs.MergeTraces(parts...) }
