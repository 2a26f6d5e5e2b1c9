package wire

import (
	"context"
	"io"
	"net"
	"sync/atomic"

	"github.com/laces-project/laces/internal/obs"
)

// Endpoint is one component's end of the control plane — what
// Orchestrator, Worker and CLI all need around their connections and used
// to carry a copy of each: traffic accounting shared by every connection
// of the component and exported as laces_wire_*, a flight recorder fed by
// a tap on every frame, the trace context those events link to, the
// failure-triggered dump of that recorder, and dialling with the
// connection torn down when the context ends.
//
// The zero Endpoint is an unobserved one (the CLI's): it dials and counts,
// records nothing and dumps nowhere.
type Endpoint struct {
	stats  Stats
	flight *obs.Recorder
	sink   io.Writer
	trace  atomic.Pointer[obs.TraceContext]
}

// NewEndpoint returns the endpoint of the named trace component. A
// non-nil registry gets the component name, a flight recorder retaining
// the given number of events and the laces_wire_* counters; sink (nil for
// none) receives the dumps.
func NewEndpoint(reg *obs.Registry, component string, events int, sink io.Writer) *Endpoint {
	e := &Endpoint{sink: sink}
	reg.SetTraceComponent(component)
	e.flight = reg.EnableFlight(component, events)
	if reg == nil {
		return e
	}
	for _, d := range []struct {
		dir           string
		frames, bytes func() int64
	}{
		{"tx", e.stats.FramesTx, e.stats.BytesTx},
		{"rx", e.stats.FramesRx, e.stats.BytesRx},
	} {
		reg.CounterFunc("laces_wire_frames_total",
			"Control-plane frames moved, by direction.",
			func() float64 { return float64(d.frames()) }, obs.L("dir", d.dir))
		reg.CounterFunc("laces_wire_bytes_total",
			"Control-plane bytes moved (frame headers included), by direction.",
			func() float64 { return float64(d.bytes()) }, obs.L("dir", d.dir))
	}
	return e
}

// Wrap frames an accepted or dialled transport connection and attaches
// the endpoint's accounting and frame tap to it.
func (e *Endpoint) Wrap(nc net.Conn) *Conn {
	c := NewConn(nc)
	c.stats = &e.stats
	if e.flight != nil {
		c.tap = e.frameEvent
	}
	return c
}

// Dial connects to addr and wraps the connection; it is closed when ctx
// ends, so a Read blocked on it returns. A nil dial is a plain TCP
// net.Dialer.
func (e *Endpoint) Dial(ctx context.Context, dial func(ctx context.Context, addr string) (net.Conn, error), addr string) (*Conn, error) {
	if dial == nil {
		dial = func(ctx context.Context, addr string) (net.Conn, error) {
			return new(net.Dialer).DialContext(ctx, "tcp", addr)
		}
	}
	nc, err := dial(ctx, addr)
	if err != nil {
		return nil, err
	}
	c := e.Wrap(nc)
	c.stop = context.AfterFunc(ctx, func() { nc.Close() })
	return c, nil
}

// frameEvent is the tap: every frame the endpoint moves becomes one
// flight-recorder event linked to the current trace.
func (e *Endpoint) frameEvent(sent bool, t MsgType, n int) {
	kind := "frame_rx"
	if sent {
		kind = "frame_tx"
	}
	e.flight.Record(kind, t.String(), e.trace.Load(), int64(n))
}

// SetTrace publishes the trace context of the measurement in flight;
// frame events, Record and Dump link to it until the next call. It is
// deliberately not cleared when a measurement ends: a failure dump fired
// just after still names the measurement it belongs to.
func (e *Endpoint) SetTrace(tc *obs.TraceContext) { e.trace.Store(tc) }

// Flight returns the endpoint's recorder (nil without a registry), for
// events that carry a trace context of their own.
func (e *Endpoint) Flight() *obs.Recorder { return e.flight }

// Record adds an event linked to the current trace.
func (e *Endpoint) Record(kind, name string, n int64, fields ...obs.Label) {
	e.flight.Record(kind, name, e.trace.Load(), n, fields...)
}

// Dump writes the recorder to the sink on a failure trigger (see
// obs.Recorder.Dump); without a recorder or a sink it does nothing.
func (e *Endpoint) Dump(reason string) error {
	return e.flight.Dump(e.sink, reason, e.trace.Load())
}
