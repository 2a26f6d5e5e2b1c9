package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// FlightEvent is one entry in a registry's flight recorder — the one
// structured-event log: a timestamped record of operational activity
// (frame I/O, budget denials, chaos activations, worker lifecycle,
// reconciliation mismatches). TraceID/SpanID
// link the event to the distributed trace that was current when it was
// recorded, when one was.
type FlightEvent struct {
	At        time.Time `json:"at"`
	Component string    `json:"component,omitempty"`
	Kind      string    `json:"kind"`
	Name      string    `json:"name,omitempty"`
	TraceID   uint64    `json:"trace_id,omitempty"`
	SpanID    uint64    `json:"span_id,omitempty"`
	N         int64     `json:"n,omitempty"`
	Fields    []Label   `json:"fields,omitempty"`
}

// Recorder is a bounded lock-free ring of FlightEvents — the per-
// component flight recorder. Writers claim a slot with one atomic add
// and publish with one atomic pointer store; there is no lock on the
// record path, so frame-I/O taps can record from every connection
// goroutine without contention. When the ring wraps, the oldest events
// are overwritten and counted as dropped.
//
// Methods on a nil *Recorder are no-ops, so components record
// unconditionally and the disabled path costs one branch.
type Recorder struct {
	component string
	slots     []atomic.Pointer[FlightEvent]
	mask      uint64
	next      atomic.Uint64
	dumpMu    sync.Mutex // serialises Dump, so concurrent dumps never interleave lines
}

// NewRecorder returns a flight recorder for the named component
// retaining the most recent size events (rounded up to a power of two,
// minimum 16).
func NewRecorder(component string, size int) *Recorder {
	if size < 16 {
		size = 16
	}
	n := 16
	for n < size {
		n <<= 1
	}
	return &Recorder{
		component: component,
		slots:     make([]atomic.Pointer[FlightEvent], n),
		mask:      uint64(n - 1),
	}
}

// Record appends an event to the ring. tc may be nil (no trace
// current); fields are optional ordered key=value pairs. The enabled
// path costs one allocation (the event) — acceptable at control-plane
// rates; the nil path costs one branch and zero allocations when called
// without fields.
func (f *Recorder) Record(kind, name string, tc *TraceContext, n int64, fields ...Label) {
	if f == nil {
		return
	}
	ev := &FlightEvent{
		At:        time.Now(), //laces:allow detnow flight-recorder timestamps are operator-facing telemetry, not census content
		Component: f.component,
		Kind:      kind,
		Name:      name,
		N:         n,
		Fields:    fields,
	}
	if tc != nil {
		ev.TraceID, ev.SpanID = tc.TraceID, tc.SpanID
	}
	idx := f.next.Add(1) - 1
	f.slots[idx&f.mask].Store(ev)
}

// Ingest appends already-formed events (a remote component's batch,
// original timestamps and component names preserved) to the ring, so
// one recorder can hold a merged cross-process dump.
func (f *Recorder) Ingest(events []FlightEvent) {
	if f == nil {
		return
	}
	for i := range events {
		ev := events[i]
		idx := f.next.Add(1) - 1
		f.slots[idx&f.mask].Store(&ev)
	}
}

// Total returns the number of events ever recorded.
func (f *Recorder) Total() int64 {
	if f == nil {
		return 0
	}
	return int64(f.next.Load())
}

// Dropped returns the number of events overwritten by ring wrap.
func (f *Recorder) Dropped() int64 {
	if f == nil {
		return 0
	}
	total := f.next.Load()
	if size := uint64(len(f.slots)); total > size {
		return int64(total - size)
	}
	return 0
}

// Snapshot returns the retained events, oldest first. Taken while
// writers are active it is best-effort: a slot overwritten mid-read
// yields the newer event.
func (f *Recorder) Snapshot() []FlightEvent {
	if f == nil {
		return nil
	}
	total := f.next.Load()
	size := uint64(len(f.slots))
	start := uint64(0)
	if total > size {
		start = total - size
	}
	out := make([]FlightEvent, 0, total-start)
	for i := start; i < total; i++ {
		if ev := f.slots[i&f.mask].Load(); ev != nil {
			out = append(out, *ev)
		}
	}
	return out
}

// WriteJSONL dumps the retained events as one JSON object per line —
// the flight-recorder dump format, written automatically on failure
// triggers (worker disconnect, MsgError, reconciliation mismatch) and
// on demand.
func (f *Recorder) WriteJSONL(w io.Writer) error {
	if f == nil {
		return nil
	}
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, ev := range f.Snapshot() {
		if err := enc.Encode(ev); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Dump is the automatic dump a failure trigger fires (worker disconnect,
// MsgError, reconciliation mismatch): it records a flight_dump event
// naming the reason, linked to tc, so the dump says why it was written,
// then writes the ring to w. A nil recorder or a nil w is a no-op — the
// component configured no recorder or no sink.
func (f *Recorder) Dump(w io.Writer, reason string, tc *TraceContext) error {
	if f == nil || w == nil {
		return nil
	}
	f.Record("flight_dump", reason, tc, 0)
	f.dumpMu.Lock()
	defer f.dumpMu.Unlock()
	return f.WriteJSONL(w)
}

// EnableFlight installs a flight recorder for the named component on
// the registry, replacing the default one New installed (or any other
// previous one), and returns it. Size is the retained-event count,
// rounded up to a power of two.
func (r *Registry) EnableFlight(component string, size int) *Recorder {
	if r == nil {
		return nil
	}
	rec := NewRecorder(component, size)
	r.flight.Store(rec)
	return rec
}

// Flight returns the registry's flight recorder; a nil registry returns
// nil, which is itself safe to record against.
func (r *Registry) Flight() *Recorder {
	if r == nil {
		return nil
	}
	return r.flight.Load()
}

// FlightDropped returns the recorder's overwritten-event count.
func (r *Registry) FlightDropped() int64 {
	if r == nil {
		return 0
	}
	return r.flight.Load().Dropped()
}
