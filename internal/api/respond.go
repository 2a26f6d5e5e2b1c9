package api

// The serving tier's one response path. A route never sees the
// connection: it returns an answer (or an error) saying what to send, and
// serve/respond below — the only code in this package that holds an
// http.ResponseWriter — send it, so no route can diverge on header order,
// validator policy, error shape or accounting.
//
// Response-writing contract (pinned by TestResponseOrder over every
// registered route × outcome): headers first, the status exactly once via
// WriteHeader before any body byte, then the body. Every response carries
// nosniff, which stops browsers from second-guessing the typed bodies;
// errors are JSON {"error": …} like every other JSON response. A body
// that fails after the status line aborts the connection
// (http.ErrAbortHandler) rather than truncating silently, and counts as an
// error.
//
// Validators: a route names its content's ETag and cache policy in the
// answer and calls answer.current before producing the body; a matching
// If-None-Match turns around as 304 + ETag with nothing decoded or read.
// That path is zero-alloc — precomputed header slices assigned under their
// canonical keys — which is what lets a dashboard fleet revalidate
// archived days for free (guarded by TestConditionalRequestZeroAlloc).
// Only 200 and 304 carry validators: an error under a day's immutable
// ETag would be cached, and revalidated as fresh, forever.

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"sync"
	"time"

	"github.com/laces-project/laces/internal/obs"
	"github.com/laces-project/laces/internal/query"
)

// Precomputed header values, stored as ready-made slices so stamping
// them is a map assignment, not an allocation.
var (
	ccImmutable  = []string{"public, max-age=31536000, immutable"}
	ccRevalidate = []string{"public, no-cache"}

	ctJSON   = []string{"application/json"}
	ctNDJSON = []string{"application/x-ndjson"}
	ctProm   = []string{"text/plain; version=0.0.4; charset=utf-8"}

	nosniff = []string{"nosniff"}
)

// route is one row of the route table (Server.routes): a mux pattern and
// the function that computes its answer on the serving generation the
// request pinned.
type route struct {
	pattern string
	answer  func(v *view, r *http.Request) (answer, error)
}

// answer is what a route wants sent, returned by value so the 304 path
// allocates nothing. The body is the JSON encoding of body, or whatever
// stream writes (calling flush after each record it wants on the wire
// now) under content type ctype.
type answer struct {
	tag *resTag  // validator; nil when the content has none
	cc  []string // cache policy stamped beside tag

	notModified bool // set by current: send 304 and no body

	body   any
	stream func(w io.Writer, flush func()) error
	ctype  []string
}

// current reports whether the client already holds the answer's content
// (If-None-Match carries its validator) and if so marks the answer 304;
// the route returns it as is, without producing a body.
func (a *answer) current(r *http.Request) bool {
	inm := r.Header.Get("If-None-Match")
	a.notModified = a.tag != nil && inm != "" && etagMatch(inm, a.tag.etag)
	return a.notModified
}

// httpError is an error that knows its status; anything else is a 404
// for a query-layer lookup miss and a 500 otherwise (statusOf).
type httpError struct {
	status int
	error
}

func badRequest(err error) error { return &httpError{http.StatusBadRequest, err} }
func notFound(err error) error   { return &httpError{http.StatusNotFound, err} }

func statusOf(err error) int {
	var he *httpError
	switch {
	case errors.As(err, &he):
		return he.status
	case errors.Is(err, query.ErrUnknownFamily), errors.Is(err, query.ErrUnknownPrefix):
		return http.StatusNotFound
	}
	return http.StatusInternalServerError
}

// serve adapts a route to net/http: pin the generation, run the route,
// respond, and record the route's request, latency and error series
// (no-ops without a registry). Recording is deferred, so a response that
// panics — an aborted stream — is still counted, and as an error.
func (s *Server) serve(rt route) http.HandlerFunc {
	reg := s.World.Registry()
	reqs := reg.Counter("laces_http_requests_total",
		"HTTP requests served, by route.", obs.L("route", rt.pattern))
	lat := reg.Histogram("laces_http_request_seconds",
		"HTTP request latency, by route.", nil, obs.L("route", rt.pattern))
	errs := reg.Counter("laces_http_errors_total",
		"HTTP responses with status >= 400 or aborted mid-body, by route.", obs.L("route", rt.pattern))
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now() //laces:allow detnow request latency histograms are wall-clock telemetry, not census content
		failed := true
		defer func() {
			reqs.Inc()
			lat.ObserveDuration(time.Since(start)) //laces:allow detnow request latency histograms are wall-clock telemetry, not census content
			if failed {
				errs.Inc()
			}
		}()
		a, err := rt.answer(s.currentView(), r)
		failed = respond(w, a, err) >= 400
	}
}

// bodyAppender is a body that appends its own JSON, byte for byte what
// json.Marshal writes for it: the index-served bodies (a timeline, a
// stability record, an events page).
type bodyAppender interface {
	AppendJSON(b []byte) ([]byte, error)
}

// bodyBufs holds the buffers appended bodies are written from. A new one
// starts at 16 KiB, which holds a timeline or a stability record whole,
// so it is not grown a few bytes at a time.
var bodyBufs = sync.Pool{New: func() any {
	b := make([]byte, 0, 16<<10)
	return &b
}}

// writeBody writes body as json.NewEncoder(w).Encode does — its JSON and
// a newline, in one Write — appending a bodyAppender into a reused
// buffer and encoding anything else through encoding/json.
func writeBody(w io.Writer, body any) error {
	ap, ok := body.(bodyAppender)
	if !ok {
		return json.NewEncoder(w).Encode(body)
	}
	buf := bodyBufs.Get().(*[]byte)
	b, err := ap.AppendJSON((*buf)[:0])
	if err == nil {
		b = append(b, '\n')
		_, err = w.Write(b)
	}
	*buf = b[:0]
	bodyBufs.Put(buf)
	return err
}

// respond writes one response and returns its status.
func respond(w http.ResponseWriter, a answer, err error) int {
	status := http.StatusOK
	switch {
	case err != nil:
		status, a = statusOf(err), answer{body: map[string]string{"error": err.Error()}, ctype: ctJSON}
	case a.notModified:
		status, a.ctype = http.StatusNotModified, nil
	case a.stream == nil:
		a.ctype = ctJSON
	}
	h := w.Header()
	h["X-Content-Type-Options"] = nosniff
	if a.tag != nil {
		h["Etag"], h["Cache-Control"] = a.tag.hdr, a.cc
	}
	if a.ctype != nil {
		h["Content-Type"] = a.ctype
	}
	w.WriteHeader(status)
	if a.notModified {
		return status
	}
	if a.stream == nil {
		err = writeBody(w, a.body)
	} else {
		flush := func() {}
		if f, ok := w.(http.Flusher); ok {
			flush = f.Flush
		}
		err = a.stream(w, flush)
	}
	if err != nil {
		panic(http.ErrAbortHandler)
	}
	return status
}
