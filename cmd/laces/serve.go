package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"github.com/laces-project/laces/internal/api"
	"github.com/laces-project/laces/internal/load"
	"github.com/laces-project/laces/internal/obs"
	"github.com/laces-project/laces/internal/query"
)

// setupServe exposes the census and on-demand measurements over HTTP (the
// §9 community API).
func setupServe(fs *flag.FlagSet) func() error {
	listen := fs.String("listen", "127.0.0.1:8080", "HTTP listen address")
	world := simFlags(fs, "seed")
	day := fs.Int("day", 0, "census day served as \"today\"")
	archiveDir := fs.String("archive", "", "serve archived days straight from this delta-encoded store")
	cache := fs.Int("cache", api.DefaultCacheSize, "decoded-day LRU size")
	gov := governanceFlags(fs)
	metrics := fs.Bool("metrics", false, "expose Prometheus metrics at /metrics")
	pprofFlag := fs.Bool("pprof", false, "expose profiling endpoints under /debug/pprof/")
	return func() error {
		b, reg, err := gov.load()
		if err != nil {
			return err
		}
		srv, err := world.server(func() int { return *day })
		if err != nil {
			return err
		}
		srv.CacheSize = *cache
		if *metrics {
			srv.Instrument(obs.New())
			fmt.Printf("serving Prometheus metrics at /metrics\n")
		}
		if *pprofFlag {
			srv.EnablePprof = true
			fmt.Printf("serving profiling endpoints under /debug/pprof/\n")
		}
		if !b.IsZero() || reg != nil {
			srv.Govern(b, reg)
			fmt.Printf("governing live census runs: budget %s, opt-out entries %d (/v1/responsibility)\n",
				b.String(), reg.Len())
		}
		if *archiveDir != "" {
			st, err := openStore(*archiveDir)
			if err != nil {
				return err
			}
			defer st.close()
			srv.Archive = st.archive
			for _, fam := range st.archive.Families() {
				fmt.Printf("serving archive %s: %d %s days\n", *archiveDir, len(st.archive.Days(fam)), fam)
			}
			// A timeline index next to the archive lights up the
			// longitudinal endpoints; without one they answer 404. A stale
			// one must not silently serve wrong longitudinal answers: keep
			// the rest of the API up and say how to fix it (VerifyCoverage's
			// message: build-index extends the index by the days it lacks;
			// `laces census -archive` does so after every append).
			switch {
			case st.index != nil:
				srv.Query = st.index
				fmt.Printf("serving timeline index: %d prefix timelines (/v1/timeline, /v1/events, /v1/stability)\n",
					len(st.index.Prefixes("ipv4"))+len(st.index.Prefixes("ipv6")))
			case errors.Is(st.noIndex, os.ErrNotExist):
				fmt.Printf("no timeline index (build one with `laces query build-index -archive %s`)\n", *archiveDir)
			default:
				fmt.Printf("WARNING: not serving longitudinal endpoints: %v\n", st.noIndex)
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

// setupLoadgen drives the serving tier with internal/load's deterministic
// mixed workload and writes the BENCH_api.json report. By default the
// server runs in-process over the given archive (so alloc/op is
// measurable and no port is needed); -url points the same workload at a
// live `laces serve` instead.
func setupLoadgen(fs *flag.FlagSet) func() error {
	archiveDir := fs.String("archive", "", "delta-encoded census store the workload draws days and prefixes from (required)")
	baseURL := fs.String("url", "", "drive a live server at this base URL instead of in-process")
	famFlag := fs.String("family", "ipv4", "address family")
	duration := fs.Duration("duration", 20*time.Second, "run length")
	rateFlag := fs.Float64("rate", 0, "open-loop requests per second (0 = closed loop)")
	requests := fs.Int("requests", 0, "schedule length (0 = rate x duration when paced, else a fixed default)")
	workers := fs.Int("workers", load.DefaultWorkers, "concurrent request workers")
	seedFlag := fs.Int64("seed", 1, "workload schedule seed")
	world := simFlags(fs, "world-seed") // for the in-process server
	mixSpec := fs.String("mix", "", "op weights day:timeline:events:stability:aggregates (default 50:25:10:10:5)")
	page := fs.Int("page", load.DefaultPageSize, "events page size")
	reval := fs.Float64("revalidate", 0.3, "fraction of requests sent conditionally (If-None-Match)")
	out := fs.String("out", "BENCH_api.json", "JSON report path (\"-\" for stdout)")
	return func() error {
		if *archiveDir == "" {
			return errUsage
		}
		st, err := openStore(*archiveDir)
		if err != nil {
			return err
		}
		days := st.archive.Days(*famFlag)
		if len(days) == 0 {
			return fmt.Errorf("archive %s has no %s days", *archiveDir, *famFlag)
		}
		// The timeline/events/stability/aggregates ops need the index; build
		// it (or rebuild a stale one) so the workload exercises every route.
		if st.index == nil {
			idxPath := filepath.Join(*archiveDir, query.IndexFileName)
			fmt.Printf("building timeline index %s (%v)\n", idxPath, st.noIndex)
			if _, err := query.Build(st.archive, idxPath); err != nil {
				return fmt.Errorf("building timeline index: %w", err)
			}
			if st, err = openStore(*archiveDir); err != nil {
				return err
			}
			if st.index == nil {
				return st.noIndex
			}
		}
		defer st.close()
		prefixes := st.index.Prefixes(*famFlag)
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
			BaseURL:    *baseURL,
		}
		if *mixSpec != "" {
			if cfg.Mix, err = parseMix(*mixSpec); err != nil {
				return err
			}
		}
		target := *baseURL
		if target == "" {
			target = "in-process"
			srv, err := world.server(func() int { return days[0] })
			if err != nil {
				return err
			}
			srv.Archive = st.archive
			srv.Query = st.index
			cfg.Handler = srv.Handler()
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
