package api

// Observability for the HTTP server: the Prometheus text exposition and
// trace export routes, optional pprof handlers, and the bridges that
// expose the decoded-day LRU's, the archive's and the query index's
// internal tallies as registry series. The per-route request, latency and
// error series are recorded by the one response path (respond.go).

import (
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"

	"github.com/laces-project/laces/internal/archive"
	"github.com/laces-project/laces/internal/obs"
	"github.com/laces-project/laces/internal/query"
)

// Instrument attaches a telemetry registry to the server's world
// (netsim.World.Instrument), so live census days and the world's probes
// report to it, and bridges the decoded-day LRU's, the archive's and
// the query index's internal tallies into registry series. Call before
// the first request and before Handler, which takes the world's
// registry when wiring routes; GET /metrics serves the exposition.
func (s *Server) Instrument(reg *obs.Registry) {
	s.World.Instrument(reg)
	// Archive and query handles may be attached after Instrument (both
	// are set-before-first-request fields) and swapped by Reload, so the
	// bridges read the current serving generation at scrape time — an
	// atomic load, racing neither requests nor reloads — and report zero
	// while absent.
	reg.CounterFunc("laces_archive_decodes_total",
		"Document materializations (snapshot parses plus delta applications).",
		func() float64 {
			if a := s.peekArchive(); a != nil {
				return float64(a.Decodes())
			}
			return 0
		})
	reg.CounterFunc("laces_api_day_cache_total",
		"Decoded-day LRU lookups, by outcome.",
		func() float64 { return float64(s.cacheHits.Load()) },
		obs.L("outcome", "hit"))
	reg.CounterFunc("laces_api_day_cache_total",
		"Decoded-day LRU lookups, by outcome.",
		func() float64 { return float64(s.cacheMisses.Load()) },
		obs.L("outcome", "miss"))
	reg.CounterFunc("laces_query_lookups_total",
		"Timeline lookups answered by the columnar index.",
		func() float64 { l, _, _ := s.peekQuery().Stats(); return float64(l) })
	reg.CounterFunc("laces_query_event_rows_total",
		"Rows considered by family-wide event scans, by outcome (scanned includes pruned).",
		func() float64 { n, _ := s.peekQuery().EventScanStats(); return float64(n) },
		obs.L("outcome", "scanned"))
	reg.CounterFunc("laces_query_event_rows_total",
		"Rows considered by family-wide event scans, by outcome (scanned includes pruned).",
		func() float64 { _, p := s.peekQuery().EventScanStats(); return float64(p) },
		obs.L("outcome", "pruned"))
}

// peekArchive and peekQuery read the current serving generation's
// handles without forcing one to exist: scrapes may precede the first
// request, and bridges must not race Reload by touching the
// set-before-first-request fields directly. Both may return nil; the
// accessors the bridges call are nil-safe or guarded.
func (s *Server) peekArchive() *archive.Archive {
	if v := s.viewPtr.Load(); v != nil {
		return v.arch
	}
	return nil
}

func (s *Server) peekQuery() *query.Index {
	if v := s.viewPtr.Load(); v != nil {
		return v.q
	}
	return nil
}

// handleMetrics serves the registry in Prometheus text format 0.0.4.
func (s *Server) handleMetrics(*view, *http.Request) (answer, error) {
	return answer{ctype: ctProm, stream: func(w io.Writer, _ func()) error {
		return s.World.Registry().WritePrometheus(w)
	}}, nil
}

// handleTrace serves the registry's trace export: every collected span
// (census runs and batches ingested from remote components alike) plus
// the flight-recorder snapshot. The default JSONL body is the
// merge-friendly interchange form (`laces trace export` consumes it);
// ?format=chrome emits Chrome trace_event JSON loadable in Perfetto.
func (s *Server) handleTrace(_ *view, r *http.Request) (answer, error) {
	switch format := r.URL.Query().Get("format"); format {
	case "", "jsonl":
		return answer{ctype: ctNDJSON, stream: func(w io.Writer, _ func()) error {
			return s.World.Registry().ExportTrace().WriteJSONL(w)
		}}, nil
	case "chrome":
		return answer{ctype: ctJSON, stream: func(w io.Writer, _ func()) error {
			return s.World.Registry().ExportTrace().WriteChrome(w)
		}}, nil
	default:
		return answer{}, badRequest(fmt.Errorf("invalid format %q (jsonl, chrome)", format))
	}
}

// registerPprof mounts the net/http/pprof handlers under /debug/pprof/.
// Explicit registration (rather than the package's init-time default-mux
// side effect) keeps profiling opt-in per server.
func registerPprof(mux *http.ServeMux) {
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
}
