package api

// Observability for the HTTP server: the Prometheus text exposition and
// trace export routes, optional pprof handlers, and the bridges that
// expose the day LRU's, the archive's and the query index's
// internal tallies as registry series. The per-route request, latency and
// error series are recorded by the one response path (respond.go).

import (
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"

	"github.com/laces-project/laces/internal/obs"
)

// Instrument attaches a telemetry registry to the server's world
// (netsim.World.Instrument), so live census days and the world's probes
// report to it, and bridges the day LRU's, the archive's and
// the query index's internal tallies into registry series. Call before
// the first request and before Handler, which takes the world's
// registry when wiring routes; GET /metrics serves the exposition.
func (s *Server) Instrument(reg *obs.Registry) {
	s.World.Instrument(reg)
	// Archive and query handles may be attached after Instrument (both
	// are set-before-first-request fields) and swapped by Reload, so the
	// bridges read the serving generation's tallies at scrape time.
	reg.CounterFunc("laces_archive_decodes_total",
		"Day-files the archive read, one per snapshot or delta file.",
		func() float64 { return float64(s.tallies().decodes) })
	reg.CounterFunc("laces_api_day_cache_total",
		"Day LRU lookups, by outcome.",
		func() float64 { return float64(s.cacheHits.Load()) },
		obs.L("outcome", "hit"))
	reg.CounterFunc("laces_api_day_cache_total",
		"Day LRU lookups, by outcome.",
		func() float64 { return float64(s.cacheMisses.Load()) },
		obs.L("outcome", "miss"))
	reg.CounterFunc("laces_query_lookups_total",
		"Timeline lookups answered by the columnar index.",
		func() float64 { return float64(s.tallies().lookups) })
	reg.CounterFunc("laces_query_event_rows_total",
		"Rows scanned to compute the index's memoized full-history event lists.",
		func() float64 { return float64(s.tallies().eventRows) },
		obs.L("outcome", "scanned"))
}

// tallies reads the current serving generation's running counts — an
// atomic load, racing neither requests nor reloads — without forcing one
// to exist: a scrape may precede the first request, and the bridges must
// not touch the set-before-first-request fields. Zero before the first
// generation; a generation carries the counts of the handles earlier
// ones dropped, so a Reload never moves a counter back.
func (s *Server) tallies() tallies {
	if v := s.viewPtr.Load(); v != nil {
		return v.tallies()
	}
	return tallies{}
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
