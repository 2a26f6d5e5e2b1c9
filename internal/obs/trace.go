package obs

import (
	"crypto/rand"
	"encoding/binary"
	"sync"
	"sync/atomic"
	"time"
)

// maxTraceSpans bounds the per-registry span log. A census day produces
// a few hundred spans (one per stage plus one per shard per stage), a
// distributed measurement tens per component; long-lived servers drop
// the excess (counted, published as
// laces_obs_trace_spans_dropped_total) rather than grow without bound.
const maxTraceSpans = 8192

// TraceContext is the portable identity of a position in a distributed
// trace: the trace it belongs to and the span that is current at the
// sender. It is what wire frames carry across process boundaries; a
// receiver joins the trace by opening spans parented on SpanID.
//
// The zero value means "no trace": frames from peers built before
// tracing simply omit the field.
type TraceContext struct {
	TraceID uint64 `json:"trace_id"`
	SpanID  uint64 `json:"span_id"`
}

// Valid reports whether the context names a real trace.
func (tc *TraceContext) Valid() bool {
	if tc == nil {
		return false
	}
	return tc.TraceID != 0
}

// TraceSpan is one completed span as it appears in snapshots, exports
// and on the wire; Parent links it into its trace's tree. Component
// attributes the span to the process that emitted it ("cli",
// "orchestrator", "worker-amsterdam").
type TraceSpan struct {
	TraceID   uint64    `json:"trace_id"`
	SpanID    uint64    `json:"span_id"`
	Parent    uint64    `json:"parent,omitempty"`
	Component string    `json:"component,omitempty"`
	Name      string    `json:"name"`
	Start     time.Time `json:"start"`
	Seconds   float64   `json:"seconds"`
	Attrs     []Label   `json:"attrs,omitempty"`
}

// traceLog is the bounded completed-trace-span list plus the component
// name stamped onto every span this registry emits.
type traceLog struct {
	mu        sync.Mutex
	component string
	records   []TraceSpan
	dropped   int64
}

// idSeed seeds the trace/span ID sequence from crypto/rand once per
// process so concurrent components mint disjoint IDs; the counter walk
// plus splitmix64 finalizer keeps minting allocation-free after that.
var idSeed struct {
	once sync.Once
	ctr  atomic.Uint64
}

// newID mints a process-unique non-zero 64-bit trace or span ID. IDs
// are identifiers, not census content: they never influence probe
// bytes, so the crypto/rand seed does not break determinism contracts.
func newID() uint64 {
	idSeed.once.Do(func() {
		var b [8]byte
		if _, err := rand.Read(b[:]); err == nil {
			idSeed.ctr.Store(binary.LittleEndian.Uint64(b[:]))
		}
	})
	for {
		x := idSeed.ctr.Add(0x9e3779b97f4a7c15)
		x ^= x >> 30
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 27
		x *= 0x94d049bb133111eb
		x ^= x >> 31
		if x != 0 {
			return x
		}
	}
}

// ActiveSpan is an in-flight span: a timed section of a pipeline run or
// of a distributed measurement. Spans form a tree via Child, and the
// TraceContext each carries can cross process boundaries on wire
// frames. Methods on a nil *ActiveSpan (from a disabled registry) are
// no-ops costing one branch, so stage code creates and ends spans
// unconditionally.
type ActiveSpan struct {
	r      *Registry
	tc     TraceContext
	parent uint64
	name   string
	start  time.Time

	mu    sync.Mutex
	attrs []Label
	done  bool
}

// SetTraceComponent names the process for every trace span and flight
// event this registry emits ("orchestrator", "worker-ams01").
func (r *Registry) SetTraceComponent(name string) {
	if r == nil {
		return
	}
	r.traces.mu.Lock()
	r.traces.component = name
	r.traces.mu.Unlock()
}

// TraceComponent returns the component name set by SetTraceComponent.
func (r *Registry) TraceComponent() string {
	if r == nil {
		return ""
	}
	r.traces.mu.Lock()
	defer r.traces.mu.Unlock()
	return r.traces.component
}

// StartTrace mints a fresh trace and opens its root span. The CLI calls
// this once per measurement; everything downstream joins via the
// propagated context.
func (r *Registry) StartTrace(name string) *ActiveSpan {
	if r == nil {
		return nil
	}
	return &ActiveSpan{
		r:     r,
		tc:    TraceContext{TraceID: newID(), SpanID: newID()},
		name:  name,
		start: time.Now(), //laces:allow detnow trace span timestamps are operator-facing telemetry, not census content
	}
}

// JoinTrace opens a span as a child of a context received from a remote
// peer. A nil or zero context (old peer, tracing off upstream) mints a
// fresh trace instead, so the local component still gets a coherent
// record.
func (r *Registry) JoinTrace(tc *TraceContext, name string) *ActiveSpan {
	if r == nil {
		return nil
	}
	if !tc.Valid() {
		return r.StartTrace(name)
	}
	return &ActiveSpan{
		r:      r,
		tc:     TraceContext{TraceID: tc.TraceID, SpanID: newID()},
		parent: tc.SpanID,
		name:   name,
		start:  time.Now(), //laces:allow detnow trace span timestamps are operator-facing telemetry, not census content
	}
}

// Context returns the span's propagatable identity, for embedding into
// outbound wire frames. Nil span returns nil, which marshals to an
// absent field.
func (s *ActiveSpan) Context() *TraceContext {
	if s == nil {
		return nil
	}
	return &TraceContext{TraceID: s.tc.TraceID, SpanID: s.tc.SpanID}
}

// Child opens a sub-span within the same process.
func (s *ActiveSpan) Child(name string) *ActiveSpan {
	if s == nil {
		return nil
	}
	return &ActiveSpan{
		r:      s.r,
		tc:     TraceContext{TraceID: s.tc.TraceID, SpanID: newID()},
		parent: s.tc.SpanID,
		name:   name,
		start:  time.Now(), //laces:allow detnow trace span timestamps are operator-facing telemetry, not census content
	}
}

// SetAttr attaches a key=value attribute to the span (recorded at End).
// Later writes win over earlier ones for the same key.
func (s *ActiveSpan) SetAttr(name, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	for i := range s.attrs {
		if s.attrs[i].Name == name {
			s.attrs[i].Value = value
			s.mu.Unlock()
			return
		}
	}
	s.attrs = append(s.attrs, Label{Name: name, Value: value})
	s.mu.Unlock()
}

// End completes the span, appending its record to the registry's trace
// log, and returns the duration. Ending twice records once.
func (s *ActiveSpan) End() time.Duration {
	if s == nil {
		return 0
	}
	d := time.Since(s.start) //laces:allow detnow trace span durations are operator-facing telemetry, not census content
	s.mu.Lock()
	if s.done {
		s.mu.Unlock()
		return d
	}
	s.done = true
	// Snapshot the attributes: the recorded span may be marshalled (the
	// Complete frame's span collection) while a late SetAttr — say a
	// deferred double-End path — still holds the live slice.
	var attrs []Label
	if len(s.attrs) > 0 {
		attrs = append(attrs, s.attrs...)
	}
	s.mu.Unlock()
	l := &s.r.traces
	l.mu.Lock()
	if len(l.records) < maxTraceSpans {
		l.records = append(l.records, TraceSpan{
			TraceID:   s.tc.TraceID,
			SpanID:    s.tc.SpanID,
			Parent:    s.parent,
			Component: l.component,
			Name:      s.name,
			Start:     s.start,
			Seconds:   d.Seconds(),
			Attrs:     attrs,
		})
	} else {
		l.dropped++
	}
	l.mu.Unlock()
	return d
}

// IngestTraceSpans appends spans received from a remote component
// (worker batches forwarded over MsgTrace) to the local trace log, so
// one registry can hold the assembled cross-process trace.
func (r *Registry) IngestTraceSpans(spans []TraceSpan) {
	if r == nil {
		return
	}
	l := &r.traces
	l.mu.Lock()
	for i := range spans {
		if len(l.records) < maxTraceSpans {
			l.records = append(l.records, spans[i])
		} else {
			l.dropped++
		}
	}
	l.mu.Unlock()
}

// TraceSpans returns every completed trace span in completion order
// (local spans interleaved with ingested remote ones).
func (r *Registry) TraceSpans() []TraceSpan {
	if r == nil {
		return nil
	}
	r.traces.mu.Lock()
	defer r.traces.mu.Unlock()
	out := make([]TraceSpan, len(r.traces.records))
	copy(out, r.traces.records)
	return out
}

// TraceSpansFor returns the completed spans belonging to one trace.
func (r *Registry) TraceSpansFor(traceID uint64) []TraceSpan {
	if r == nil {
		return nil
	}
	r.traces.mu.Lock()
	defer r.traces.mu.Unlock()
	var out []TraceSpan
	for _, ts := range r.traces.records {
		if ts.TraceID == traceID {
			out = append(out, ts)
		}
	}
	return out
}

// TraceDropped returns the number of trace spans dropped at the
// maxTraceSpans cap.
func (r *Registry) TraceDropped() int64 {
	if r == nil {
		return 0
	}
	r.traces.mu.Lock()
	defer r.traces.mu.Unlock()
	return r.traces.dropped
}
