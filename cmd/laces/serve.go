package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"github.com/laces-project/laces/internal/api"
	"github.com/laces-project/laces/internal/obs"
)

// setupServe exposes the census and on-demand measurements over HTTP (the
// §9 community API).
func setupServe(fs *flag.FlagSet) func() error {
	listen := fs.String("listen", "127.0.0.1:8080", "HTTP listen address")
	world := simFlags(fs)
	day := fs.Int("day", 0, "census day served as \"today\"")
	archiveDir := fs.String("archive", "", "serve archived days straight from this delta-encoded store")
	cache := fs.Int("cache", api.DefaultCacheSize, "day LRU size")
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
			fmt.Printf("governing live census runs and /v1/measure: budget %s, opt-out entries %d (/v1/responsibility)\n",
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
