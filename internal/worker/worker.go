// Package worker implements the LACeS Worker (§4.2.1): the component
// deployed at each anycast site. Workers receive measurement definitions
// and hitlist targets from the Orchestrator, transmit probes, capture
// replies (which may answer probes transmitted by *other* workers — the
// heart of anycast-based measurement), match them to the ongoing
// measurement via the echoed probe identity, and stream results straight
// back: workers store neither the hitlist nor results (§4.2.3), and they
// reconnect automatically after connection loss (the fix of §7).
package worker

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/netip"
	"strconv"
	"time"

	"github.com/laces-project/laces/internal/obs"
	"github.com/laces-project/laces/internal/wire"
)

// Reply is one captured reply attributable to the ongoing measurement.
type Reply struct {
	// TxWorker is the worker whose probe elicited the reply, recovered
	// from the echoed identity.
	TxWorker int
	RTT      time.Duration
}

// Prober abstracts the probing backend. The production backend crafts raw
// packets; tests and the simulation substrate use SimProber, which pushes
// real packet bytes through the codecs against the simulated Internet.
type Prober interface {
	// ProbeTarget transmits this worker's probe towards addr and returns
	// the replies this worker captures for that target, across all
	// transmitting workers.
	ProbeTarget(def wire.MeasurementDef, addr netip.Addr, txTime time.Time) ([]Reply, error)
}

// ProberFactory builds the prober once the Orchestrator assigns this
// worker its site index.
type ProberFactory func(self int) (Prober, error)

// Config parameterises a Worker.
type Config struct {
	Name         string
	Orchestrator string // TCP address of the Orchestrator
	NewProber    ProberFactory
	// ReconnectMin is the first reconnect backoff; it doubles per failed
	// session up to reconnectMax.
	ReconnectMin time.Duration
	// Logf receives progress lines; nil discards them.
	Logf func(format string, args ...any)
	// Dialer allows tests to intercept connections; nil uses net.Dialer.
	Dialer func(ctx context.Context, addr string) (net.Conn, error)
	// FailAfterTargets, when positive, forcibly drops the connection after
	// this many targets have been probed in a session — deterministic
	// mid-measurement disconnect injection (chaos testing of the §4.2.3
	// failure awareness: the orchestrator must complete the measurement
	// with the surviving workers while this one backs off and reconnects).
	FailAfterTargets int64
	// Obs receives the worker's telemetry: control-plane frame/byte
	// counts and targets probed. Nil disables instrumentation. A non-nil
	// registry also enables tracing: the worker joins the measurement
	// trace carried by MsgStart, emits a worker/measure span per
	// measurement, hands its spans back over MsgTrace, and runs a flight
	// recorder over frame I/O and lifecycle events.
	Obs *obs.Registry
	// FlightSink receives a flight-recorder JSONL dump on failure
	// triggers (injected disconnect, probe error, orchestrator MsgError).
	// Nil disables automatic dumps.
	FlightSink io.Writer
}

// reconnectMax caps the exponential reconnect backoff.
const reconnectMax = 10 * time.Second

// Worker runs the worker loop.
type Worker struct {
	cfg Config
	// ep is the worker's end of the control plane, shared across reconnect
	// sessions so the exposed frame and byte counters are cumulative for
	// the worker's lifetime; probed counts targets this worker transmitted
	// probes for.
	ep     *wire.Endpoint
	probed *obs.Counter
}

// New validates the configuration and returns a Worker.
func New(cfg Config) (*Worker, error) {
	if cfg.Orchestrator == "" {
		return nil, fmt.Errorf("worker: missing orchestrator address")
	}
	if cfg.NewProber == nil {
		return nil, fmt.Errorf("worker: missing prober factory")
	}
	if cfg.ReconnectMin <= 0 {
		cfg.ReconnectMin = 100 * time.Millisecond
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	component := "worker"
	if cfg.Name != "" {
		component = "worker-" + cfg.Name
	}
	w := &Worker{cfg: cfg, ep: wire.NewEndpoint(cfg.Obs, component, 1024, cfg.FlightSink)}
	w.probed = cfg.Obs.Counter("laces_worker_targets_probed_total",
		"Targets this worker transmitted probes for.")
	return w, nil
}

// Run connects to the Orchestrator and serves measurements until ctx is
// cancelled, reconnecting with exponential backoff on connection loss.
func (w *Worker) Run(ctx context.Context) error {
	backoff := w.cfg.ReconnectMin
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		err := w.session(ctx)
		if ctx.Err() != nil {
			return ctx.Err()
		}
		w.cfg.Logf("worker %s: session ended: %v; reconnecting in %v", w.cfg.Name, err, backoff)
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(backoff):
		}
		backoff = min(2*backoff, reconnectMax)
	}
}

// dump fires the automatic flight-recorder dump.
func (w *Worker) dump(reason string) {
	if err := w.ep.Dump(reason); err != nil {
		w.cfg.Logf("worker %s: flight dump failed: %v", w.cfg.Name, err)
	}
}

// measuring is a worker's part of one measurement: the definition from
// MsgStart, the targets probed so far, and the worker/measure span,
// parented on the orchestrator's context, whose own context is stamped
// onto every Result frame.
type measuring struct {
	def   wire.MeasurementDef
	sent  int64
	span  *obs.ActiveSpan
	trace *obs.TraceContext
}

// end closes the measurement's span. A measurement that did not reach
// MsgEndTargets — the connection died, the kill was injected, or the
// orchestrator started the next one because this one was cancelled — is
// marked aborted and stays in the local registry only: exactly what a
// killed process would leave behind.
func (m *measuring) end(aborted bool) {
	if m == nil {
		return
	}
	m.span.SetAttr("sent", strconv.FormatInt(m.sent, 10))
	if aborted {
		m.span.SetAttr("aborted", "true")
	}
	m.span.End()
}

// session runs one connection lifecycle: hello, then serve frames.
func (w *Worker) session(ctx context.Context) error {
	conn, err := w.ep.Dial(ctx, w.cfg.Dialer, w.cfg.Orchestrator)
	if err != nil {
		return fmt.Errorf("worker: dialing: %w", err)
	}
	defer conn.Close()

	if err := conn.Write(wire.MsgHello, wire.Hello{Role: "worker", Name: w.cfg.Name}); err != nil {
		return err
	}
	typ, raw, err := conn.Read()
	if err != nil {
		return fmt.Errorf("worker: awaiting hello-ack: %w", err)
	}
	if typ != wire.MsgHelloAck {
		return fmt.Errorf("worker: expected hello-ack, got %v", typ)
	}
	ack, err := wire.Decode[wire.HelloAck](raw)
	if err != nil {
		return err
	}
	prober, err := w.cfg.NewProber(ack.Worker)
	if err != nil {
		return fmt.Errorf("worker: building prober: %w", err)
	}
	w.cfg.Logf("worker %s: connected as site %d of %d", w.cfg.Name, ack.Worker, ack.Workers)

	var m *measuring // nil between measurements
	defer func() { m.end(true) }()
	for {
		typ, raw, err := conn.Read()
		if err != nil {
			return fmt.Errorf("worker: reading: %w", err)
		}
		switch typ {
		case wire.MsgStart:
			def, err := wire.Decode[wire.MeasurementDef](raw)
			if err != nil {
				return err
			}
			m.end(true)
			m = &measuring{def: def, span: w.cfg.Obs.JoinTrace(def.Trace, "worker/measure")}
			m.span.SetAttr("worker", strconv.Itoa(ack.Worker))
			m.span.SetAttr("measurement", strconv.FormatUint(uint64(def.ID), 10))
			m.trace = m.span.Context()
			w.ep.SetTrace(m.trace)
		case wire.MsgTargets:
			batch, err := wire.Decode[wire.Targets](raw)
			if err != nil {
				return err
			}
			if m == nil {
				return fmt.Errorf("worker: targets before start")
			}
			if err := w.probe(conn, prober, ack.Worker, m, batch.Addrs); err != nil {
				return err
			}
		case wire.MsgEndTargets:
			if m == nil {
				return fmt.Errorf("worker: end-targets before start")
			}
			// Close the measurement span and hand the orchestrator this
			// worker's part of the trace before reporting done, so the
			// assembled trace is complete by the time the quorum empties.
			m.end(false)
			if tc := m.trace; tc != nil {
				batch := wire.TraceBatch{
					Component: w.cfg.Obs.TraceComponent(),
					Worker:    ack.Worker,
					Seq:       m.def.Seq,
					Spans:     w.cfg.Obs.TraceSpansFor(tc.TraceID),
				}
				for _, ev := range w.ep.Flight().Snapshot() {
					if ev.TraceID == tc.TraceID {
						batch.Events = append(batch.Events, ev)
					}
				}
				if err := conn.Write(wire.MsgTrace, batch); err != nil {
					return err
				}
			}
			done := wire.WorkerDone{Worker: ack.Worker, Sent: m.sent, Seq: m.def.Seq}
			m = nil
			if err := conn.Write(wire.MsgWorkerDone, done); err != nil {
				return err
			}
		case wire.MsgError:
			em, _ := wire.Decode[wire.ErrorMsg](raw)
			w.ep.Record("error", em.Text, 0)
			w.dump("orchestrator_error")
			return fmt.Errorf("worker: orchestrator error: %s", em.Text)
		default:
			return fmt.Errorf("worker: unexpected frame %v", typ)
		}
	}
}

// probe transmits this worker's probe to every address of a batch and
// streams each captured reply back as it is matched.
func (w *Worker) probe(conn *wire.Conn, prober Prober, self int, m *measuring, addrs []netip.Addr) error {
	for _, addr := range addrs {
		//laces:allow detnow the live worker stamps probes with real send time; deterministic runs use the simulated prober path
		replies, err := prober.ProbeTarget(m.def, addr, time.Now())
		if err != nil {
			return fmt.Errorf("worker: probing %s: %w", addr, err)
		}
		m.sent++
		w.probed.Inc()
		if w.cfg.FailAfterTargets > 0 && m.sent >= w.cfg.FailAfterTargets {
			// The injected death mimics a real crash; the session's
			// deferred end closes the span as aborted.
			w.ep.Record("chaos_kill", "injected_disconnect", m.sent)
			w.dump("injected_disconnect")
			return fmt.Errorf("worker: injected disconnect after %d targets", m.sent)
		}
		for _, r := range replies {
			res := wire.Result{
				Measurement: m.def.ID,
				Target:      addr,
				TxWorker:    r.TxWorker,
				RxWorker:    self,
				RTTMicros:   r.RTT.Microseconds(),
				Seq:         m.def.Seq,
				Trace:       m.trace,
			}
			if err := conn.Write(wire.MsgResult, res); err != nil {
				return err
			}
		}
	}
	return nil
}
