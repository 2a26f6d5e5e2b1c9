// Command laces is the LACeS measurement tool: the three components of
// §4.2.1 (orchestrator, worker, measure/CLI) plus local census and iGreedy
// analysis subcommands.
//
// Usage:
//
//	laces orchestrator -listen 127.0.0.1:4000
//	laces worker -name ams01 -orchestrator 127.0.0.1:4000 [-sites 8]
//	laces measure -orchestrator 127.0.0.1:4000 -protocol ICMP -targets 500 -out results.csv
//	laces census  -day 100 [-v6] [-json census.json] [-archive dir] [-progress] [-obs telemetry.json]
//	laces igreedy -samples samples.csv
//	laces trace -target 1.1.0.0/24 -from Tokyo
//	laces trace export -out trace.json cli.jsonl orchestrator.jsonl worker*.jsonl
//	laces diff day100.json day107.json
//	laces diff -archive dir -from 100 -to 107
//	laces dashboard day*.json
//	laces dashboard -archive dir
//	laces archive pack -dir dir day*.json
//	laces archive pack -dir dir -gen 0:30
//	laces archive verify -dir dir
//	laces archive stats -dir dir
//	laces replay -archive dir [-diff]
//	laces query build-index -archive dir
//	laces query timeline -archive dir -prefix 1.2.3.0/24
//	laces query events -archive dir -kind onset -from 10 -to 90
//	laces query stability -archive dir -prefix 1.2.3.0/24
//	laces budget show -budget daily:250000,as:5000 -optout optout.txt
//	laces census -day 100 -budget 250000 -optout optout.txt
//	laces replay -archive dir -budget 250000
//	laces metrics telemetry.json
//	laces serve -archive dir -metrics -pprof
//	laces loadgen -archive dir -duration 20s -out BENCH_api.json
//
// The worker and measure subcommands probe the embedded simulated Internet
// (all components must use the same -seed); the orchestration plane itself
// is real TCP.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/netip"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	laces "github.com/laces-project/laces"
	"github.com/laces-project/laces/internal/api"
	"github.com/laces-project/laces/internal/archive"
	"github.com/laces-project/laces/internal/budget"
	"github.com/laces-project/laces/internal/client"
	"github.com/laces-project/laces/internal/core"
	"github.com/laces-project/laces/internal/load"
	"github.com/laces-project/laces/internal/netsim"
	"github.com/laces-project/laces/internal/obs"
	"github.com/laces-project/laces/internal/orchestrator"
	"github.com/laces-project/laces/internal/packet"
	"github.com/laces-project/laces/internal/platform"
	"github.com/laces-project/laces/internal/query"
	"github.com/laces-project/laces/internal/report"
	"github.com/laces-project/laces/internal/traceroute"
	"github.com/laces-project/laces/internal/wire"
	"github.com/laces-project/laces/internal/worker"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "orchestrator":
		err = runOrchestrator(args)
	case "worker":
		err = runWorker(args)
	case "measure":
		err = runMeasure(args)
	case "census":
		err = runCensus(args)
	case "igreedy":
		err = runIGreedy(args)
	case "serve":
		err = runServe(args)
	case "trace":
		err = runTrace(args)
	case "diff":
		err = runDiff(args)
	case "dashboard":
		err = runDashboard(args)
	case "archive":
		err = runArchive(args)
	case "replay":
		err = runReplay(args)
	case "query":
		err = runQuery(args)
	case "budget":
		err = runBudget(args)
	case "metrics":
		err = runMetrics(args)
	case "loadgen":
		err = runLoadgen(args)
	case "help", "-h", "--help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "laces: unknown subcommand %q\n", cmd)
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "laces:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `laces — Longitudinal Anycast Census System

Subcommands:
  orchestrator   run the central controller (accepts workers and CLI runs)
  worker         run a measurement worker at one anycast site
  measure        define and submit a measurement, collect results (CLI)
  census         run a full daily census pipeline locally
  igreedy        analyse latency samples: detect/enumerate/geolocate anycast
  serve          expose the census and live measurements over HTTP
  trace          traceroute a hitlist prefix; 'trace export' merges -trace files
  diff           compare two census days (JSON files or an archive)
  dashboard      render a text dashboard over census snapshots or an archive
  archive        pack, verify and inspect the delta-encoded census store
  replay         stream an archived census history day by day
  query          longitudinal queries over the archive's timeline index
  budget         show responsible-probing budgets, opt-outs and demand
  metrics        render a telemetry snapshot written with 'census -obs'
  loadgen        drive the HTTP serving tier with a deterministic workload

Run 'laces <subcommand> -h' for flags.
`)
}

// signalContext returns a context cancelled on SIGINT or SIGTERM.
func signalContext() context.Context {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	_ = stop
	return ctx
}

// writeFile creates path, hands the file to write and closes it,
// reporting the first failure. The Close error counts: that is where a
// deferred write failure (quota, NFS) surfaces, so no caller may say
// "wrote X" before it.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// simWorld builds the shared simulated Internet for the given seed and
// scale.
func simWorld(seed uint64, scale string) (*laces.World, error) {
	var cfg laces.WorldConfig
	switch scale {
	case "test":
		cfg = laces.TestConfig()
	case "default":
		cfg = laces.DefaultConfig()
	default:
		return nil, fmt.Errorf("unknown -scale %q (test, default)", scale)
	}
	cfg.Seed = seed
	return laces.NewWorld(cfg)
}

// simDeployment builds the n-site measurement deployment all components
// must agree on.
func simDeployment(w *laces.World, n int) (*laces.Deployment, error) {
	cities := tangledCities()
	if n <= 0 || n > len(cities) {
		n = len(cities)
	}
	return w.NewDeployment("laces-cli", cities[:n], netsim.PolicyUnmodified)
}

func tangledCities() []string {
	return []string{
		"Amsterdam", "New York", "Tokyo", "Sydney", "Sao Paulo",
		"Johannesburg", "Frankfurt", "Singapore", "London", "Los Angeles",
		"Mumbai", "Stockholm", "Santiago", "Seoul", "Toronto", "Warsaw",
	}
}

// loadGovernance parses the shared -budget/-optout flag values into the
// governance knobs.
func loadGovernance(budgetSpec, optOutPath string) (budget.Budget, *budget.Registry, error) {
	b, err := budget.ParseBudget(budgetSpec)
	if err != nil {
		return budget.Budget{}, nil, err
	}
	var reg *budget.Registry
	if optOutPath != "" {
		if reg, err = budget.LoadRegistryFile(optOutPath); err != nil {
			return budget.Budget{}, nil, err
		}
	}
	return b, reg, nil
}

// printResponsibility renders a census's governance block for the CLI.
func printResponsibility(r *core.Responsibility) {
	if r == nil {
		return
	}
	fmt.Printf("responsibility: demanded=%d spent=%d skipped=%d (optout %d / budget %d probing decisions)",
		r.ProbesDemanded, r.ProbesSpent, r.ProbesSkipped, r.OptOutTargets, r.BudgetTargets)
	if r.BudgetRemaining >= 0 {
		fmt.Printf(" remaining=%d", r.BudgetRemaining)
	}
	if r.RateSteps > 0 {
		fmt.Printf(" rate-steps=%d (%.0f targets/s)", r.RateSteps, r.RateEffective)
	}
	fmt.Println()
}

// writeTraceExport dumps a registry's distributed-trace export (spans
// plus flight-recorder events) as JSONL — the interchange form `laces
// trace export` merges.
func writeTraceExport(path string, reg *obs.Registry) error {
	if err := writeFile(path, reg.ExportTrace().WriteJSONL); err != nil {
		return err
	}
	fmt.Println("wrote trace", path)
	return nil
}

func runOrchestrator(args []string) error {
	fs := flag.NewFlagSet("orchestrator", flag.ExitOnError)
	listen := fs.String("listen", "127.0.0.1:4000", "TCP listen address")
	budgetSpec := fs.String("budget", "", "probe budget enforced on the streaming path (e.g. 250000)")
	optOut := fs.String("optout", "", "opt-out registry file enforced on the streaming path")
	traceOut := fs.String("trace", "", "enable distributed tracing; write the trace export (JSONL) here on exit")
	fs.Parse(args)

	b, reg, err := loadGovernance(*budgetSpec, *optOut)
	if err != nil {
		return err
	}
	cfg := orchestrator.Config{
		Addr:   *listen,
		Budget: b,
		OptOut: reg,
		Logf:   func(format string, a ...any) { fmt.Fprintf(os.Stderr, format+"\n", a...) },
	}
	var traceReg *obs.Registry
	if *traceOut != "" {
		traceReg = obs.New()
		cfg.Obs = traceReg
		cfg.FlightSink = os.Stderr
	}
	o, err := orchestrator.New(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("orchestrator listening on %s\n", o.Addr())
	err = o.Serve(signalContext())
	if traceReg != nil {
		if werr := writeTraceExport(*traceOut, traceReg); err == nil {
			err = werr
		}
	}
	return err
}

func runWorker(args []string) error {
	fs := flag.NewFlagSet("worker", flag.ExitOnError)
	name := fs.String("name", "worker", "worker name")
	orch := fs.String("orchestrator", "127.0.0.1:4000", "orchestrator address")
	seed := fs.Uint64("seed", 1, "world seed (must match across components)")
	scale := fs.String("scale", "test", "world scale: test or default")
	sites := fs.Int("sites", 8, "deployment size (must match across components)")
	traceOut := fs.String("trace", "", "enable distributed tracing; write the trace export (JSONL) here on exit")
	fs.Parse(args)

	w, err := simWorld(*seed, *scale)
	if err != nil {
		return err
	}
	dep, err := simDeployment(w, *sites)
	if err != nil {
		return err
	}
	cfg := worker.Config{
		Name:         *name,
		Orchestrator: *orch,
		NewProber: func(self int) (worker.Prober, error) {
			return worker.NewSimProber(w, dep, self%dep.NumSites())
		},
		Logf: func(format string, a ...any) { fmt.Fprintf(os.Stderr, format+"\n", a...) },
	}
	var traceReg *obs.Registry
	if *traceOut != "" {
		traceReg = obs.New()
		cfg.Obs = traceReg
		cfg.FlightSink = os.Stderr
	}
	wk, err := worker.New(cfg)
	if err != nil {
		return err
	}
	err = wk.Run(signalContext())
	if traceReg != nil {
		if werr := writeTraceExport(*traceOut, traceReg); err == nil {
			err = werr
		}
	}
	return err
}

func runMeasure(args []string) error {
	fs := flag.NewFlagSet("measure", flag.ExitOnError)
	orch := fs.String("orchestrator", "127.0.0.1:4000", "orchestrator address")
	proto := fs.String("protocol", "ICMP", "probing protocol: ICMP, TCP or DNS")
	nTargets := fs.Int("targets", 1000, "number of hitlist targets to probe")
	v6 := fs.Bool("v6", false, "probe the IPv6 hitlist")
	seed := fs.Uint64("seed", 1, "world seed (must match across components)")
	scale := fs.String("scale", "test", "world scale: test or default")
	rate := fs.Float64("rate", 10000, "targets per second")
	offsetMS := fs.Int64("offset-ms", 1000, "inter-worker probe offset (ms)")
	out := fs.String("out", "", "write results CSV to this file")
	traceOut := fs.String("trace", "", "enable distributed tracing; write the assembled trace (JSONL) here")
	fs.Parse(args)

	if _, err := packet.ParseProtocol(*proto); err != nil {
		return err
	}
	w, err := simWorld(*seed, *scale)
	if err != nil {
		return err
	}
	hl := laces.HitlistForDay(w, *v6, 0)
	var addrs []netip.Addr
	for _, e := range hl.Entries {
		addrs = append(addrs, e.Addr)
		if len(addrs) >= *nTargets {
			break
		}
	}
	cli := &client.Client{Addr: *orch}
	var traceReg *obs.Registry
	if *traceOut != "" {
		traceReg = obs.New()
		cli.Obs = traceReg
	}
	def := wire.MeasurementDef{
		ID:       uint16(time.Now().UnixNano() & 0x7fff),
		Protocol: *proto,
		V6:       *v6,
		OffsetMS: *offsetMS,
		Rate:     *rate,
	}
	fmt.Printf("submitting measurement %d: %d targets, %s, rate %.0f/s\n",
		def.ID, len(addrs), *proto, *rate)
	outcome, err := cli.Run(signalContext(), def, addrs, nil)
	if err != nil {
		return err
	}
	cands := outcome.Candidates()
	fmt.Printf("results: %d replies from %d workers; %d anycast candidates\n",
		len(outcome.Results), outcome.Workers, len(cands))
	if outcome.Skipped > 0 {
		fmt.Printf("governance: orchestrator withheld %d targets (opt-out/budget)\n", outcome.Skipped)
	}
	for _, c := range cands {
		fmt.Println("  AC:", c)
	}
	if *out != "" {
		if err := writeFile(*out, outcome.WriteCSV); err != nil {
			return err
		}
		fmt.Println("wrote", *out)
	}
	if traceReg != nil {
		// The Complete frame handed back the assembled cross-process
		// spans, so this single file holds the whole distributed trace.
		if err := writeTraceExport(*traceOut, traceReg); err != nil {
			return err
		}
	}
	return nil
}

func runCensus(args []string) error {
	fs := flag.NewFlagSet("census", flag.ExitOnError)
	day := fs.Int("day", 0, "census day (0 = March 21, 2024)")
	v6 := fs.Bool("v6", false, "IPv6 census")
	seed := fs.Uint64("seed", 1, "world seed")
	scale := fs.String("scale", "test", "world scale: test or default")
	jsonOut := fs.String("json", "", "write census JSON to this file")
	csvOut := fs.String("csv", "", "write census CSV to this file")
	archiveDir := fs.String("archive", "", "append the census day to this archive")
	budgetSpec := fs.String("budget", "", "probe budget (e.g. 250000 or daily:250000,as:5000,prefix:200)")
	optOut := fs.String("optout", "", "opt-out registry file (prefixes and AS entries)")
	progress := fs.Bool("progress", false, "render a live progress line on stderr while the census runs")
	obsOut := fs.String("obs", "", "write an end-of-run telemetry snapshot (JSON) to this file; render with `laces metrics`")
	traceOut := fs.String("trace", "", "enable tracing and the flight recorder; write the trace export (JSONL) here")
	fs.Parse(args)

	b, reg, err := loadGovernance(*budgetSpec, *optOut)
	if err != nil {
		return err
	}
	w, err := simWorld(*seed, *scale)
	if err != nil {
		return err
	}
	dep, err := laces.Tangled(w)
	if err != nil {
		return err
	}
	var telemetry *laces.ObsRegistry
	if *progress || *obsOut != "" || *traceOut != "" {
		telemetry = laces.NewObsRegistry()
		tel := &laces.NetsimTelemetry{}
		w.SetTelemetry(tel)
		tel.Register(telemetry)
	}
	cfg := laces.PipelineConfig{
		Deployment: dep,
		GCDVPs:     laces.ArkVPs(w),
		Budget:     b,
		OptOut:     reg,
		Obs:        telemetry,
	}
	if *traceOut != "" {
		telemetry.SetTraceComponent("census")
		telemetry.EnableFlight("census", 4096)
		cfg.FlightSink = os.Stderr
	}
	pipe, err := laces.NewPipeline(w, cfg)
	if err != nil {
		return err
	}
	start := time.Now()
	var ps *obs.ProgressStream
	if *progress {
		ps = telemetry.StartProgress(os.Stderr, 200*time.Millisecond)
	}
	c, err := pipe.RunDaily(*day, *v6, laces.DayOptions{})
	if ps != nil {
		ps.Stop()
	}
	if err != nil {
		return err
	}
	fmt.Printf("census day %d (%s): hitlist=%d candidates=%d G=%d M=%d probes=%d+%d (%.1fs)\n",
		*day, c.Day.Format(time.DateOnly), c.HitlistSize, len(c.Candidates()),
		c.CountG(), c.CountM(), c.ProbesAnycastStage, c.ProbesGCDStage,
		time.Since(start).Seconds())
	printResponsibility(c.Responsibility)
	if reg != nil {
		for _, touch := range reg.Touched() {
			fmt.Printf("optout: %-20s suppressed %d probing decisions / %d probes\n", touch.Entry, touch.Targets, touch.Probes)
		}
	}
	for _, a := range c.Alerts {
		fmt.Printf("ALERT [%s]: %s\n", a.Kind, a.Message)
	}
	if *jsonOut != "" {
		if err := writeFile(*jsonOut, c.WriteJSON); err != nil {
			return err
		}
		fmt.Println("wrote", *jsonOut)
	}
	if *csvOut != "" {
		if err := writeFile(*csvOut, c.WriteCSV); err != nil {
			return err
		}
		fmt.Println("wrote", *csvOut)
	}
	if *archiveDir != "" {
		aw, err := archive.OpenOrCreate(*archiveDir, archive.Options{})
		if err != nil {
			return err
		}
		if err := aw.Append(*day, c.Document()); err != nil {
			aw.Close()
			return err
		}
		if err := aw.Close(); err != nil {
			return err
		}
		fmt.Printf("appended day %d to archive %s\n", *day, *archiveDir)
	}
	if *obsOut != "" {
		if err := writeFile(*obsOut, telemetry.Snapshot().WriteJSON); err != nil {
			return err
		}
		fmt.Println("wrote telemetry snapshot", *obsOut)
	}
	if *traceOut != "" {
		if err := writeTraceExport(*traceOut, telemetry); err != nil {
			return err
		}
	}
	return nil
}

// runIGreedy analyses a CSV of "vp,lat,lon,rtt_ms" rows.
func runIGreedy(args []string) error {
	fs := flag.NewFlagSet("igreedy", flag.ExitOnError)
	samplesPath := fs.String("samples", "", "CSV file with vp,lat,lon,rtt_ms rows (- for stdin)")
	fs.Parse(args)
	if *samplesPath == "" {
		return fmt.Errorf("igreedy: -samples required")
	}
	in := os.Stdin
	if *samplesPath != "-" {
		f, err := os.Open(*samplesPath)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	var samples []laces.GCDSample
	sc := bufio.NewScanner(in)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") || strings.HasPrefix(text, "vp,") {
			continue
		}
		parts := strings.Split(text, ",")
		if len(parts) != 4 {
			return fmt.Errorf("igreedy: line %d: want vp,lat,lon,rtt_ms", line)
		}
		lat, err1 := strconv.ParseFloat(parts[1], 64)
		lon, err2 := strconv.ParseFloat(parts[2], 64)
		ms, err3 := strconv.ParseFloat(parts[3], 64)
		if err1 != nil || err2 != nil || err3 != nil {
			return fmt.Errorf("igreedy: line %d: bad number", line)
		}
		samples = append(samples, laces.GCDSample{
			VP:  parts[0],
			Loc: laces.Coordinate{Lat: lat, Lon: lon},
			RTT: time.Duration(ms * float64(time.Millisecond)),
		})
	}
	if err := sc.Err(); err != nil {
		return err
	}
	res := laces.AnalyzeGCD(samples)
	fmt.Printf("samples: %d\nanycast: %v\nsites: %d\n", res.Samples, res.Anycast, res.NumSites())
	for _, s := range res.Sites {
		fmt.Printf("  site via %-20s radius %7.0f km  →  %s\n", s.VP, s.Disc.RadiusKm, s.City)
	}
	return nil
}

// runServe exposes the census and on-demand measurements over HTTP (the
// §9 community API).
func runServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	listen := fs.String("listen", "127.0.0.1:8080", "HTTP listen address")
	seed := fs.Uint64("seed", 1, "world seed")
	scale := fs.String("scale", "test", "world scale: test or default")
	day := fs.Int("day", 0, "census day served as \"today\"")
	archiveDir := fs.String("archive", "", "serve archived days straight from this delta-encoded store")
	cache := fs.Int("cache", api.DefaultCacheSize, "decoded-day LRU size")
	budgetSpec := fs.String("budget", "", "probe budget governing live census computation")
	optOut := fs.String("optout", "", "opt-out registry file governing live census computation")
	metrics := fs.Bool("metrics", false, "expose Prometheus metrics at /metrics")
	pprofFlag := fs.Bool("pprof", false, "expose profiling endpoints under /debug/pprof/")
	fs.Parse(args)

	b, reg, err := loadGovernance(*budgetSpec, *optOut)
	if err != nil {
		return err
	}
	w, err := simWorld(*seed, *scale)
	if err != nil {
		return err
	}
	dep, err := laces.Tangled(w)
	if err != nil {
		return err
	}
	srv, err := api.NewServer(w, dep,
		func(d int, v6 bool) ([]laces.VP, error) { return platform.Ark(w, d, v6) },
		func() int { return *day })
	if err != nil {
		return err
	}
	srv.CacheSize = *cache
	if *metrics {
		if err := srv.Instrument(laces.NewObsRegistry()); err != nil {
			return err
		}
		fmt.Printf("serving Prometheus metrics at /metrics\n")
	}
	if *pprofFlag {
		srv.EnablePprof = true
		fmt.Printf("serving profiling endpoints under /debug/pprof/\n")
	}
	if !b.IsZero() || reg != nil {
		if err := srv.Govern(b, reg); err != nil {
			return err
		}
		fmt.Printf("governing live census runs: budget %s, opt-out entries %d (/v1/responsibility)\n",
			b.String(), reg.Len())
	}
	if *archiveDir != "" {
		a, err := archive.Open(*archiveDir)
		if err != nil {
			return err
		}
		srv.Archive = a
		for _, fam := range a.Families() {
			fmt.Printf("serving archive %s: %d %s days\n", *archiveDir, len(a.Days(fam)), fam)
		}
		// A timeline index next to the archive lights up the
		// longitudinal endpoints; without one they answer 404.
		idxPath := filepath.Join(*archiveDir, query.IndexFileName)
		if _, err := os.Stat(idxPath); err == nil {
			ix, err := query.Open(idxPath)
			if err != nil {
				return fmt.Errorf("opening timeline index: %w", err)
			}
			// A stale index (archive grew since the build) must not
			// silently serve wrong longitudinal answers: keep the rest
			// of the API up and say how to fix it.
			if err := ix.VerifyCoverage(a); err != nil {
				ix.Close()
				fmt.Printf("WARNING: not serving longitudinal endpoints: %v\n", err)
			} else {
				defer ix.Close()
				ix.AttachArchive(a)
				srv.Query = ix
				fmt.Printf("serving timeline index: %d prefix timelines (/v1/timeline, /v1/events, /v1/stability)\n",
					len(ix.Prefixes("ipv4"))+len(ix.Prefixes("ipv6")))
			}
		} else {
			fmt.Printf("no timeline index (build one with `laces query build-index -archive %s`)\n", *archiveDir)
		}
	}
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	fmt.Printf("census API listening on http://%s (try /v1/census, /v1/days, /v1/range, /v1/healthz)\n", ln.Addr())
	server := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	return serveUntil(signalContext(), server, ln, shutdownGrace)
}

// shutdownGrace is how long `laces serve` lets in-flight responses — a
// /v1/range stream, say — finish after SIGINT/SIGTERM before cutting them.
const shutdownGrace = 10 * time.Second

// serveUntil serves on ln until ctx is cancelled, then stops accepting and
// waits up to grace for in-flight requests to complete; connections still
// busy after that are closed under them.
func serveUntil(ctx context.Context, server *http.Server, ln net.Listener, grace time.Duration) error {
	served := make(chan error, 1)
	go func() { served <- server.Serve(ln) }()
	select {
	case err := <-served:
		return err // the listener failed; nothing is in flight
	case <-ctx.Done():
	}
	drain, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	if err := server.Shutdown(drain); err != nil {
		server.Close()
	}
	<-served // http.ErrServerClosed, by way of Shutdown
	return nil
}

// runLoadgen drives the serving tier with internal/load's deterministic
// mixed workload and writes the BENCH_api.json report. By default the
// server runs in-process over the given archive (so alloc/op is
// measurable and no port is needed); -url points the same workload at a
// live `laces serve` instead.
func runLoadgen(args []string) error {
	fs := flag.NewFlagSet("loadgen", flag.ExitOnError)
	archiveDir := fs.String("archive", "", "delta-encoded census store the workload draws days and prefixes from (required)")
	baseURL := fs.String("url", "", "drive a live server at this base URL instead of in-process")
	famFlag := fs.String("family", "ipv4", "address family")
	duration := fs.Duration("duration", 20*time.Second, "run length")
	rateFlag := fs.Float64("rate", 0, "open-loop requests per second (0 = closed loop)")
	requests := fs.Int("requests", 0, "schedule length (0 = rate x duration when paced, else a fixed default)")
	workers := fs.Int("workers", load.DefaultWorkers, "concurrent request workers")
	seedFlag := fs.Int64("seed", 1, "workload schedule seed")
	worldSeed := fs.Uint64("world-seed", 1, "simulated-world seed for the in-process server")
	scale := fs.String("scale", "test", "world scale for the in-process server: test or default")
	mixSpec := fs.String("mix", "", "op weights day:timeline:events:stability:aggregates (default 50:25:10:10:5)")
	page := fs.Int("page", load.DefaultPageSize, "events page size")
	reval := fs.Float64("revalidate", 0.3, "fraction of requests sent conditionally (If-None-Match)")
	out := fs.String("out", "BENCH_api.json", "JSON report path (\"-\" for stdout)")
	fs.Parse(args)
	if *archiveDir == "" {
		return errors.New("usage: laces loadgen -archive DIR [-url BASE] [-duration 20s] [-rate N] [-out BENCH_api.json]")
	}
	a, err := archive.Open(*archiveDir)
	if err != nil {
		return err
	}
	days := a.Days(*famFlag)
	if len(days) == 0 {
		return fmt.Errorf("archive %s has no %s days", *archiveDir, *famFlag)
	}
	// The timeline/events/stability/aggregates ops need the index; build
	// it (or rebuild a stale one) so the workload exercises every route.
	idxPath := filepath.Join(*archiveDir, query.IndexFileName)
	ix, err := query.Open(idxPath)
	if err == nil {
		if cerr := ix.VerifyCoverage(a); cerr != nil {
			ix.Close()
			ix, err = nil, cerr
		}
	}
	if ix == nil {
		fmt.Printf("building timeline index %s (%v)\n", idxPath, err)
		if _, err := query.Build(a, idxPath); err != nil {
			return fmt.Errorf("building timeline index: %w", err)
		}
		if ix, err = query.Open(idxPath); err != nil {
			return err
		}
	}
	defer ix.Close()
	ix.AttachArchive(a)
	prefixes := ix.Prefixes(*famFlag)
	if len(prefixes) > 128 {
		prefixes = prefixes[:128]
	}

	cfg := load.Config{
		Family:     *famFlag,
		Days:       days,
		Prefixes:   prefixes,
		Rate:       *rateFlag,
		Duration:   *duration,
		Requests:   *requests,
		Workers:    *workers,
		Seed:       *seedFlag,
		Revalidate: *reval,
		PageSize:   *page,
	}
	if *mixSpec != "" {
		mix, err := parseMix(*mixSpec)
		if err != nil {
			return err
		}
		cfg.Mix = mix
	}
	if *baseURL != "" {
		cfg.BaseURL = *baseURL
	} else {
		w, err := simWorld(*worldSeed, *scale)
		if err != nil {
			return err
		}
		dep, err := laces.Tangled(w)
		if err != nil {
			return err
		}
		srv, err := api.NewServer(w, dep,
			func(d int, v6 bool) ([]laces.VP, error) { return platform.Ark(w, d, v6) },
			func() int { return days[0] })
		if err != nil {
			return err
		}
		srv.Archive = a
		srv.Query = ix
		cfg.Handler = srv.Handler()
	}

	target := "in-process"
	if *baseURL != "" {
		target = *baseURL
	}
	fmt.Printf("loadgen: %d days, %d prefixes, target %s\n", len(days), len(prefixes), target)
	rep, err := load.Run(cfg)
	if err != nil {
		return err
	}
	if *out == "-" {
		if err := rep.WriteJSON(os.Stdout); err != nil {
			return err
		}
	} else {
		if err := writeFile(*out, rep.WriteJSON); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *out)
	}
	fmt.Printf("%d requests in %.2fs: %.0f req/s, p50 %.3fms p95 %.3fms p99 %.3fms, 304 rate %.2f, errors %d, determinism_ok %v\n",
		rep.Requests, rep.WallSeconds, rep.ReqPerSec, rep.P50Ms, rep.P95Ms, rep.P99Ms,
		rep.NotModifiedRate, rep.Errors, rep.DeterminismOK)
	if !rep.DeterminismOK {
		return fmt.Errorf("determinism probe failed: %s", rep.DeterminismNote)
	}
	if rep.Errors > 0 {
		return fmt.Errorf("%d of %d requests failed", rep.Errors, rep.Requests)
	}
	return nil
}

// parseMix parses "day:timeline:events:stability:aggregates" weights.
func parseMix(spec string) (load.Mix, error) {
	parts := strings.Split(spec, ":")
	if len(parts) != 5 {
		return load.Mix{}, fmt.Errorf("mix %q: want five weights day:timeline:events:stability:aggregates", spec)
	}
	var ws [5]int
	for i, p := range parts {
		v, err := strconv.Atoi(p)
		if err != nil || v < 0 {
			return load.Mix{}, fmt.Errorf("mix %q: bad weight %q", spec, p)
		}
		ws[i] = v
	}
	m := load.Mix{Day: ws[0], Timeline: ws[1], Events: ws[2], Stability: ws[3], Aggregates: ws[4]}
	if m == (load.Mix{}) {
		return load.Mix{}, fmt.Errorf("mix %q: all weights zero", spec)
	}
	return m, nil
}

// loadDocument reads one published census JSON file.
func loadDocument(path string) (*core.Document, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	doc, err := core.ParseDocument(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return doc, nil
}

func runDiff(args []string) error {
	fs := flag.NewFlagSet("diff", flag.ExitOnError)
	max := fs.Int("max", 10, "examples shown per change kind")
	dir := fs.String("archive", "", "diff two days of this archive instead of JSON files")
	from := fs.Int("from", -1, "older census day (with -archive)")
	to := fs.Int("to", -1, "newer census day (with -archive)")
	famFlag := fs.String("family", "ipv4", "address family (with -archive)")
	fs.Parse(args)

	var old, cur *core.Document
	var err error
	if *dir != "" {
		if *from < 0 || *to < 0 {
			return fmt.Errorf("usage: laces diff -archive <dir> -from N -to M")
		}
		a, err := archive.Open(*dir)
		if err != nil {
			return err
		}
		if old, err = a.Document(*famFlag, *from); err != nil {
			return err
		}
		if cur, err = a.Document(*famFlag, *to); err != nil {
			return err
		}
	} else {
		if fs.NArg() != 2 {
			return fmt.Errorf("usage: laces diff [-max N] <old.json> <new.json> | laces diff -archive <dir> -from N -to M")
		}
		if old, err = loadDocument(fs.Arg(0)); err != nil {
			return err
		}
		if cur, err = loadDocument(fs.Arg(1)); err != nil {
			return err
		}
	}
	if old.Family != cur.Family {
		return fmt.Errorf("family mismatch: %s vs %s", old.Family, cur.Family)
	}
	return report.Diff(old, cur).Render(os.Stdout, *max)
}

func runDashboard(args []string) error {
	fs := flag.NewFlagSet("dashboard", flag.ExitOnError)
	dir := fs.String("archive", "", "render from this archive instead of JSON files")
	famFlag := fs.String("family", "ipv4", "address family (with -archive)")
	fs.Parse(args)

	if *dir != "" {
		// Stream the archive into the dashboard: O(1) documents in
		// memory however long the census history is.
		a, err := archive.Open(*dir)
		if err != nil {
			return err
		}
		b := report.NewDashboardBuilder()
		err = a.Range(*famFlag, 0, -1, func(day int, doc *core.Document) error {
			b.Add(doc.DeepCopy())
			return nil
		})
		if err != nil {
			return err
		}
		if err := b.Render(os.Stdout); err != nil {
			return err
		}
		// With a timeline index next to the archive, the churn/events
		// section comes from query results — no document re-scan.
		if _, err := os.Stat(filepath.Join(*dir, query.IndexFileName)); err == nil {
			ix, err := query.Open(filepath.Join(*dir, query.IndexFileName))
			if err != nil {
				return err
			}
			defer ix.Close()
			if err := ix.VerifyCoverage(a); err != nil {
				fmt.Printf("\n(churn/events section skipped: %v)\n", err)
				return nil
			}
			series, err := ix.Series(*famFlag)
			if err != nil {
				return err
			}
			events, err := ix.Events(*famFlag, nil, 0, -1, query.EventOptions{})
			if err != nil {
				return err
			}
			return report.ChurnAndEvents(os.Stdout, series, events, 0, 0)
		}
		return nil
	}
	if fs.NArg() == 0 {
		return fmt.Errorf("usage: laces dashboard <census.json> [more.json ...] | laces dashboard -archive <dir>")
	}
	var docs []*core.Document
	for _, path := range fs.Args() {
		doc, err := loadDocument(path)
		if err != nil {
			return err
		}
		docs = append(docs, doc)
	}
	return report.Dashboard(os.Stdout, docs)
}

// runArchive dispatches the archive tooling: pack, verify, stats.
func runArchive(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: laces archive <pack|verify|stats> ...")
	}
	switch args[0] {
	case "pack":
		return runArchivePack(args[1:])
	case "verify":
		return runArchiveVerify(args[1:])
	case "stats":
		return runArchiveStats(args[1:])
	default:
		return fmt.Errorf("laces archive: unknown subcommand %q (pack, verify, stats)", args[0])
	}
}

// runArchivePack appends census days to an archive — either existing
// published JSON files (positional args, packed in day order as given)
// or freshly generated pipeline runs (-gen from:to).
func runArchivePack(args []string) error {
	fs := flag.NewFlagSet("archive pack", flag.ExitOnError)
	dir := fs.String("dir", "", "archive directory (required)")
	every := fs.Int("snapshot-every", archive.DefaultSnapshotEvery, "full-snapshot cadence K")
	gen := fs.String("gen", "", "generate days by running the pipeline, e.g. 0:30")
	stride := fs.Int("stride", 1, "day stride with -gen")
	v6 := fs.Bool("v6", false, "IPv6 census with -gen")
	seed := fs.Uint64("seed", 1, "world seed with -gen")
	scale := fs.String("scale", "test", "world scale with -gen: test or default")
	fs.Parse(args)
	if *dir == "" {
		return fmt.Errorf("usage: laces archive pack -dir <dir> [day.json ...] | -gen from:to")
	}
	w, err := archive.OpenOrCreate(*dir, archive.Options{SnapshotEvery: *every})
	if err != nil {
		return err
	}
	defer w.Close()

	if *gen != "" {
		var from, to int
		if _, err := fmt.Sscanf(*gen, "%d:%d", &from, &to); err != nil || to < from {
			return fmt.Errorf("laces archive pack: -gen wants from:to, got %q", *gen)
		}
		world, err := simWorld(*seed, *scale)
		if err != nil {
			return err
		}
		dep, err := laces.Tangled(world)
		if err != nil {
			return err
		}
		pipe, err := laces.NewPipeline(world, laces.PipelineConfig{
			Deployment: dep,
			GCDVPs:     laces.ArkVPs(world),
		})
		if err != nil {
			return err
		}
		for day := from; day <= to; day += *stride {
			c, err := pipe.RunDaily(day, *v6, laces.DayOptions{})
			if err != nil {
				return err
			}
			if err := w.Append(day, c.Document()); err != nil {
				return err
			}
			fmt.Printf("packed day %d (%s)\n", day, c.Day.Format(time.DateOnly))
		}
		return nil
	}

	if fs.NArg() == 0 {
		return fmt.Errorf("laces archive pack: nothing to pack (JSON files or -gen)")
	}
	for _, path := range fs.Args() {
		doc, err := loadDocument(path)
		if err != nil {
			return err
		}
		// Files pack as consecutive days in the order given, continuing
		// the family's existing chain when appending to a live archive.
		day := 0
		if last, ok := w.LastDay(doc.Family); ok {
			day = last + 1
		}
		if err := w.Append(day, doc); err != nil {
			return err
		}
		fmt.Printf("packed %s as day %d (%s)\n", path, day, doc.Date)
	}
	return nil
}

func runArchiveVerify(args []string) error {
	fs := flag.NewFlagSet("archive verify", flag.ExitOnError)
	dir := fs.String("dir", "", "archive directory (required)")
	fs.Parse(args)
	if *dir == "" {
		return fmt.Errorf("usage: laces archive verify -dir <dir>")
	}
	a, err := archive.Open(*dir)
	if err != nil {
		return err
	}
	res, err := a.Verify()
	if err != nil {
		return err
	}
	fmt.Printf("archive OK: %d days reproduce their published bytes exactly\n", res.Days)
	return nil
}

func runArchiveStats(args []string) error {
	fs := flag.NewFlagSet("archive stats", flag.ExitOnError)
	dir := fs.String("dir", "", "archive directory (required)")
	fs.Parse(args)
	if *dir == "" {
		return fmt.Errorf("usage: laces archive stats -dir <dir>")
	}
	a, err := archive.Open(*dir)
	if err != nil {
		return err
	}
	for _, st := range a.Stats() {
		fmt.Printf("%s: %d days (%d snapshots + %d deltas), %d bytes stored vs %d bytes as per-day full JSON (%.0f%%)\n",
			st.Family, st.Days, st.Snapshots, st.Deltas,
			st.StoredBytes, st.FullBytes, 100*st.Ratio())
	}
	return nil
}

// runReplay streams an archived census history day by day: one summary
// line per day, optionally with the day-over-day diff.
func runReplay(args []string) error {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	dir := fs.String("archive", "", "archive directory (required)")
	famFlag := fs.String("family", "ipv4", "address family")
	from := fs.Int("from", 0, "first day")
	to := fs.Int("to", -1, "last day (-1: through the end)")
	diff := fs.Bool("diff", false, "print the day-over-day diff under each day")
	max := fs.Int("max", 3, "diff examples per change kind (with -diff)")
	budgetSpec := fs.String("budget", "", "what-if probe budget: flag archived days whose published cost exceeds it")
	optOut := fs.String("optout", "", "what-if opt-out registry: count published prefixes it would suppress")
	fs.Parse(args)
	if *dir == "" {
		return fmt.Errorf("usage: laces replay -archive <dir> [-family ipv4] [-from N] [-to M] [-diff] [-budget N] [-optout file]")
	}
	b, reg, err := loadGovernance(*budgetSpec, *optOut)
	if err != nil {
		return err
	}
	a, err := archive.Open(*dir)
	if err != nil {
		return err
	}
	var prev *core.Document
	var overBudgetDays, optOutHits int
	err = a.Range(*famFlag, *from, *to, func(day int, doc *core.Document) error {
		note := ""
		if r := doc.Responsibility; r != nil {
			note = fmt.Sprintf("  governed(spent=%d skipped=%d)", r.ProbesSpent, r.ProbesSkipped)
			if r.RateSteps > 0 {
				note += fmt.Sprintf(" rate/%d", 1<<r.RateSteps)
			}
		}
		if b.DailyProbes > 0 && doc.ProbesTotal() > b.DailyProbes {
			overBudgetDays++
			note += "  OVER BUDGET"
		}
		if reg != nil {
			for i := range doc.Entries {
				pfx, err := netip.ParsePrefix(doc.Entries[i].Prefix)
				if err != nil {
					continue
				}
				if _, hit := reg.Match(pfx, netsim.ASN(doc.Entries[i].OriginASN)); hit {
					optOutHits++
				}
			}
		}
		fmt.Printf("day %4d  %s  G=%-6d M=%-6d entries=%-6d probes=%d%s\n",
			day, doc.Date, doc.GCount, doc.MCount, len(doc.Entries), doc.ProbesTotal(), note)
		if *diff && prev != nil {
			if err := report.Diff(prev, doc).Render(os.Stdout, *max); err != nil {
				return err
			}
		}
		if *diff {
			prev = doc.DeepCopy() // Range owns doc beyond the callback
		}
		return nil
	})
	if err != nil {
		return err
	}
	if b.DailyProbes > 0 {
		fmt.Printf("what-if budget %s: %d archived days exceed the daily cap\n", b.String(), overBudgetDays)
	}
	if reg != nil {
		fmt.Printf("what-if opt-out (%d entries): %d published prefix-days would be suppressed\n", reg.Len(), optOutHits)
	}
	return nil
}

// runQuery dispatches the longitudinal query tooling.
func runQuery(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: laces query <build-index|timeline|events|stability> ...")
	}
	switch args[0] {
	case "build-index":
		return runQueryBuildIndex(args[1:])
	case "timeline":
		return runQueryTimeline(args[1:])
	case "events":
		return runQueryEvents(args[1:])
	case "stability":
		return runQueryStability(args[1:])
	default:
		return fmt.Errorf("laces query: unknown subcommand %q (build-index, timeline, events, stability)", args[0])
	}
}

// openIndex opens an archive's timeline index with a build hint on miss.
func openIndex(dir string) (*query.Index, error) {
	ix, err := query.OpenDir(dir)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, fmt.Errorf("%s has no timeline index — run `laces query build-index -archive %s` first", dir, dir)
		}
		return nil, err
	}
	return ix, nil
}

// runQueryBuildIndex makes the one streaming indexing pass.
func runQueryBuildIndex(args []string) error {
	fs := flag.NewFlagSet("query build-index", flag.ExitOnError)
	dir := fs.String("archive", "", "archive directory (required)")
	fs.Parse(args)
	if *dir == "" {
		return fmt.Errorf("usage: laces query build-index -archive <dir>")
	}
	start := time.Now()
	res, err := query.BuildDir(*dir)
	if err != nil {
		return err
	}
	fmt.Printf("indexed %d families, %d day-files, %d prefix timelines into %s (%.1fs)\n",
		res.Families, res.Days, res.Prefixes, res.Path, time.Since(start).Seconds())
	fmt.Printf("index is %d bytes over a %d-byte archive (%.1f%%)\n",
		res.Bytes, res.SourceBytes, 100*float64(res.Bytes)/float64(max(res.SourceBytes, 1)))
	return nil
}

// runQueryTimeline prints one prefix's longitudinal strip.
func runQueryTimeline(args []string) error {
	fs := flag.NewFlagSet("query timeline", flag.ExitOnError)
	dir := fs.String("archive", "", "archive directory (required)")
	prefix := fs.String("prefix", "", "census prefix (required)")
	famFlag := fs.String("family", "ipv4", "address family")
	fs.Parse(args)
	if *dir == "" || *prefix == "" {
		return fmt.Errorf("usage: laces query timeline -archive <dir> -prefix <p> [-family ipv4]")
	}
	ix, err := openIndex(*dir)
	if err != nil {
		return err
	}
	defer ix.Close()
	tl, err := ix.Timeline(*famFlag, *prefix)
	if err != nil {
		return err
	}
	fmt.Printf("timeline %s (%s), origin AS%d — present %d of %d indexed days\n",
		tl.Prefix, tl.Family, tl.OriginASN, tl.PresentDays(), len(tl.Days))
	var strip strings.Builder
	for i := range tl.Days {
		switch {
		case !tl.Present[i]:
			strip.WriteByte('.')
		case tl.GCDAnycast[i]:
			strip.WriteByte('G')
		case tl.AnycastBased[i]:
			strip.WriteByte('M')
		default:
			strip.WriteByte('+')
		}
	}
	fmt.Printf("  days %d..%d: %s\n", tl.Days[0], tl.Days[len(tl.Days)-1], strip.String())
	if first, ok := tl.FirstPresent(); ok {
		last, _ := tl.LastPresent()
		minS, maxS := 0, 0
		for i, s := range tl.Sites {
			if !tl.Present[i] || s == 0 {
				continue
			}
			if minS == 0 || s < minS {
				minS = s
			}
			if s > maxS {
				maxS = s
			}
		}
		fmt.Printf("  first day %d, last day %d; enumerated sites %d..%d\n", first, last, minS, maxS)
	}
	st := query.ScoreTimeline(tl, query.EventOptions{})
	fmt.Printf("  stability %.4f (onsets %d, offsets %d, flaps %d, site changes %d, geo shifts %d)\n",
		st.Score, st.Onsets, st.Offsets, st.Flaps, st.SiteChanges, st.GeoShifts)
	return nil
}

// runQueryEvents prints the family-wide event scan.
func runQueryEvents(args []string) error {
	fs := flag.NewFlagSet("query events", flag.ExitOnError)
	dir := fs.String("archive", "", "archive directory (required)")
	famFlag := fs.String("family", "ipv4", "address family")
	kindFlag := fs.String("kind", "", "comma-separated event kinds (onset,offset,flap,site-churn,geo-shift; empty: all)")
	from := fs.Int("from", 0, "first day")
	to := fs.Int("to", -1, "last day (-1: through the end)")
	hysteresis := fs.Int("hysteresis", 0, "absent days before offset (default 2)")
	max := fs.Int("max", 40, "events shown")
	fs.Parse(args)
	if *dir == "" {
		return fmt.Errorf("usage: laces query events -archive <dir> [-kind onset,...] [-from N] [-to M]")
	}
	var kinds []query.EventKind
	if *kindFlag != "" {
		for _, raw := range strings.Split(*kindFlag, ",") {
			k, err := query.ParseEventKind(strings.TrimSpace(raw))
			if err != nil {
				return err
			}
			kinds = append(kinds, k)
		}
	}
	ix, err := openIndex(*dir)
	if err != nil {
		return err
	}
	defer ix.Close()
	events, err := ix.Events(*famFlag, kinds, *from, *to, query.EventOptions{Hysteresis: *hysteresis})
	if err != nil {
		return err
	}
	fmt.Printf("%d events (%s)\n", len(events), *famFlag)
	return report.RenderEvents(os.Stdout, events, *max)
}

// runQueryStability prints one prefix's stability record.
func runQueryStability(args []string) error {
	fs := flag.NewFlagSet("query stability", flag.ExitOnError)
	dir := fs.String("archive", "", "archive directory (required)")
	prefix := fs.String("prefix", "", "census prefix (required)")
	famFlag := fs.String("family", "ipv4", "address family")
	fs.Parse(args)
	if *dir == "" || *prefix == "" {
		return fmt.Errorf("usage: laces query stability -archive <dir> -prefix <p> [-family ipv4]")
	}
	ix, err := openIndex(*dir)
	if err != nil {
		return err
	}
	defer ix.Close()
	st, err := ix.Stability(*famFlag, *prefix)
	if err != nil {
		return err
	}
	fmt.Printf("stability %s (%s): score %.4f\n", st.Prefix, st.Family, st.Score)
	fmt.Printf("  present %d of %d indexed days (%d GCD-confirmed), mean sites %.1f\n",
		st.DaysPresent, st.DaysIndexed, st.GCDDays, st.MeanSites)
	fmt.Printf("  onsets %d, offsets %d, flaps %d, site changes %d, geo shifts %d\n",
		st.Onsets, st.Offsets, st.Flaps, st.SiteChanges, st.GeoShifts)
	return nil
}

// runBudget dispatches the responsible-probing governance tooling.
func runBudget(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: laces budget <show> ...")
	}
	switch args[0] {
	case "show":
		return runBudgetShow(args[1:])
	default:
		return fmt.Errorf("laces budget: unknown subcommand %q (show)", args[0])
	}
}

// runBudgetShow prints the parsed budget caps, the opt-out registry, and
// the selected census day's estimated anycast-stage probe demand, so an
// operator can size a budget (e.g. at the paper's 1/8th operating point)
// before committing to a run.
func runBudgetShow(args []string) error {
	fs := flag.NewFlagSet("budget show", flag.ExitOnError)
	budgetSpec := fs.String("budget", "", "probe budget to inspect (e.g. 250000 or daily:250000,as:5000)")
	optOut := fs.String("optout", "", "opt-out registry file to inspect")
	day := fs.Int("day", 0, "census day for the demand estimate")
	v6 := fs.Bool("v6", false, "IPv6 hitlist")
	seed := fs.Uint64("seed", 1, "world seed")
	scale := fs.String("scale", "test", "world scale: test or default")
	fs.Parse(args)

	b, reg, err := loadGovernance(*budgetSpec, *optOut)
	if err != nil {
		return err
	}
	fmt.Printf("budget: %s\n", b.String())
	if b.DailyProbes > 0 {
		fmt.Printf("  daily cap:      %d probes\n", b.DailyProbes)
	}
	if b.PerASProbes > 0 {
		fmt.Printf("  per-AS cap:     %d probes\n", b.PerASProbes)
	}
	if b.PerPrefixProbes > 0 {
		fmt.Printf("  per-prefix cap: %d probes\n", b.PerPrefixProbes)
	}
	if reg != nil {
		fmt.Printf("opt-out registry: %d entries\n", reg.Len())
		for _, e := range reg.Entries() {
			fmt.Printf("  %s\n", e)
		}
	}

	w, err := simWorld(*seed, *scale)
	if err != nil {
		return err
	}
	dep, err := laces.Tangled(w)
	if err != nil {
		return err
	}
	hl := laces.HitlistForDay(w, *v6, *day)
	var total int64
	fmt.Printf("estimated anycast-stage demand, day %d (%d sites, hitlist %d):\n",
		*day, dep.NumSites(), hl.Len())
	for _, proto := range packet.Protocols() {
		n := 0
		for _, e := range hl.Entries {
			if e.Protocols[proto] {
				n++
			}
		}
		d := int64(n) * int64(dep.NumSites())
		total += d
		fmt.Printf("  %-4s  %7d targets × %d sites = %9d probes\n", proto, n, dep.NumSites(), d)
	}
	fmt.Printf("  total %d probes (GCD and CHAOS stages add demand proportional to candidates)\n", total)
	if b.DailyProbes > 0 && total > 0 {
		fmt.Printf("daily budget covers %.1f%% of the anycast-stage demand (1/8th ≈ %d)\n",
			100*float64(b.DailyProbes)/float64(total), total/8)
	}
	return nil
}

// runMetrics renders a telemetry snapshot written by `laces census -obs`
// or `laces-experiments -obs`: every series' final value, the span tree
// and the retained events.
func runMetrics(args []string) error {
	fs := flag.NewFlagSet("metrics", flag.ExitOnError)
	spans := fs.Bool("spans", true, "include the pipeline span log")
	events := fs.Bool("events", true, "include retained events")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: laces metrics [-spans=false] [-events=false] <snapshot.json>")
	}
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		return err
	}
	defer f.Close()
	snap, err := laces.ReadObsSnapshot(f)
	if err != nil {
		return fmt.Errorf("%s: %w", fs.Arg(0), err)
	}
	fmt.Printf("telemetry snapshot (%s): %d series, %d spans, %d events\n",
		snap.TakenAt.Format(time.RFC3339), len(snap.Metrics), len(snap.Spans), len(snap.Events))
	for _, m := range snap.Metrics {
		name := m.Name
		if len(m.Labels) > 0 {
			var parts []string
			for _, l := range m.Labels {
				parts = append(parts, fmt.Sprintf("%s=%q", l.Name, l.Value))
			}
			name += "{" + strings.Join(parts, ",") + "}"
		}
		if m.Type == "histogram" {
			fmt.Printf("  %-64s count=%d sum=%.6g\n", name, m.Count, m.Sum)
			continue
		}
		fmt.Printf("  %-64s %g\n", name, m.Value)
	}
	if *spans && len(snap.Spans) > 0 {
		fmt.Println("spans:")
		printSpanTree(snap.Spans)
	}
	if *events && len(snap.Events) > 0 {
		fmt.Println("events:")
		for _, ev := range snap.Events {
			var parts []string
			for _, l := range ev.Fields {
				parts = append(parts, fmt.Sprintf("%s=%q", l.Name, l.Value))
			}
			fmt.Printf("  %s %s %s %s\n", ev.At.Format(time.RFC3339), ev.Kind, ev.Name, strings.Join(parts, " "))
		}
	}
	return nil
}

// printSpanTree renders spans as a forest: each span indented under the
// one its Parent names, siblings in start order. A span whose parent is
// not in the snapshot (it ended in another process) prints as a root.
func printSpanTree(spans []obs.TraceSpan) {
	have := make(map[uint64]bool, len(spans))
	for _, sp := range spans {
		have[sp.SpanID] = true
	}
	children := make(map[uint64][]int)
	for i, sp := range spans {
		parent := sp.Parent
		if !have[parent] {
			parent = 0
		}
		children[parent] = append(children[parent], i)
	}
	var walk func(parent uint64, depth int)
	walk = func(parent uint64, depth int) {
		kids := children[parent]
		sort.SliceStable(kids, func(a, b int) bool { return spans[kids[a]].Start.Before(spans[kids[b]].Start) })
		for _, i := range kids {
			fmt.Printf("  %s%-*s %9.3fs\n", strings.Repeat("  ", depth), 48-2*depth, spans[i].Name, spans[i].Seconds)
			walk(spans[i].SpanID, depth+1)
		}
	}
	walk(0, 0)
}

func runTrace(args []string) error {
	if len(args) > 0 && args[0] == "export" {
		return runTraceExport(args[1:])
	}
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	target := fs.String("target", "", "hitlist prefix or address to trace, IPv4 or IPv6 (e.g. 1.2.3.0/24)")
	from := fs.String("from", "Amsterdam", "vantage city")
	day := fs.Int("day", 0, "census day")
	seed := fs.Uint64("seed", 1, "world seed")
	scale := fs.String("scale", "test", "world scale: test or default")
	fs.Parse(args)
	if *target == "" {
		return fmt.Errorf("usage: laces trace -target <prefix|addr> [-from City] [-day N]")
	}
	w, err := simWorld(*seed, *scale)
	if err != nil {
		return err
	}
	tg, err := findTarget(w, *target)
	if err != nil {
		return err
	}
	vp, err := w.NewVP("trace-cli", *from, 0)
	if err != nil {
		return err
	}
	p, err := traceroute.Run(w, vp, tg, traceroute.Options{
		At:          netsim.DayTime(*day),
		Measurement: uint16(*day),
	})
	if err != nil {
		return err
	}
	fmt.Printf("traceroute to %s (%s) from %s, day %d\n", tg.Addr, tg.Prefix, *from, *day)
	for _, h := range p.Hops {
		if h.Router == "" {
			fmt.Printf("  %2d  *\n", h.TTL)
			continue
		}
		where := w.CityAt(h.CityIdx).Name
		note := ""
		if h.PoP {
			note = "  ← operator PoP"
		}
		fmt.Printf("  %2d  %-44s %8.2f ms  %s%s\n",
			h.TTL, h.Router, float64(h.RTT.Microseconds())/1000, where, note)
	}
	if !p.Reached {
		fmt.Println("target did not answer (unresponsive to ICMP)")
	}
	return nil
}

// runTraceExport merges per-component trace JSONL files (written by the
// -trace flags or fetched from GET /debug/trace) into one export:
// Chrome trace_event JSON by default — loadable in Perfetto and
// chrome://tracing — or merged JSONL for further processing.
func runTraceExport(args []string) error {
	fs := flag.NewFlagSet("trace export", flag.ExitOnError)
	out := fs.String("out", "", "output file (default stdout)")
	format := fs.String("format", "chrome", "output format: chrome or jsonl")
	fs.Parse(args)
	if fs.NArg() == 0 {
		return fmt.Errorf("usage: laces trace export [-format chrome|jsonl] [-out file] trace.jsonl [more.jsonl ...]")
	}
	var parts []*laces.ObsTraceExport
	for _, path := range fs.Args() {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		ex, err := laces.ReadTraceJSONL(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		parts = append(parts, ex)
	}
	merged := laces.MergeTraces(parts...)
	var write func(io.Writer) error
	switch *format {
	case "chrome":
		write = merged.WriteChrome
	case "jsonl":
		write = merged.WriteJSONL
	default:
		return fmt.Errorf("unknown -format %q (chrome, jsonl)", *format)
	}
	if *out == "" {
		return write(os.Stdout)
	}
	if err := writeFile(*out, write); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s (%d spans, %d flight events)\n", *out, len(merged.Spans), len(merged.Events))
	return nil
}

// findTarget resolves a prefix or address string to a hitlist target; the
// string's own address family selects the universe searched.
func findTarget(w *laces.World, s string) (*netsim.Target, error) {
	if pfx, err := netip.ParsePrefix(s); err == nil {
		if tg := w.FindTarget(pfx); tg != nil {
			return tg, nil
		}
		return nil, fmt.Errorf("prefix %s not on the hitlist", pfx)
	}
	addr, err := netip.ParseAddr(s)
	if err != nil {
		return nil, fmt.Errorf("%q is neither a prefix nor an address", s)
	}
	if tg := w.FindTarget(netip.PrefixFrom(addr, addr.BitLen())); tg != nil {
		return tg, nil
	}
	return nil, fmt.Errorf("address %s not covered by any hitlist prefix", addr)
}
