// Package orchestrator implements the central LACeS controller (§4.2.1):
// it accepts Worker and CLI connections, forwards measurement definitions,
// streams hitlist targets to all workers at the CLI-defined rate
// (synchronized probing, §4.2.3), aggregates the result streams from all
// workers into a single stream towards the CLI, and keeps measurements
// running when workers disconnect mid-run (failure awareness).
package orchestrator

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/netip"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/laces-project/laces/internal/budget"
	"github.com/laces-project/laces/internal/obs"
	"github.com/laces-project/laces/internal/rate"
	"github.com/laces-project/laces/internal/wire"
)

// Config parameterises an Orchestrator.
type Config struct {
	// Addr is the TCP listen address, e.g. "127.0.0.1:4000"; use ":0" for
	// an ephemeral port in tests.
	Addr string
	// BatchSize is the number of targets per streamed frame.
	BatchSize int
	// Logf receives progress lines; nil discards them.
	Logf func(format string, args ...any)
	// Budget, when non-zero, caps the probes the orchestrator will
	// stream over its lifetime (targets arrive as bare addresses, so
	// only the global daily cap applies; the orchestrator treats its
	// uptime as one ledger day). Each target charges one probe per
	// participating worker.
	Budget budget.Budget
	// OptOut, when set, suppresses streaming of targets inside any
	// opted-out prefix. Suppressed targets are reported in the Complete
	// frame's Skipped count — never silently dropped.
	OptOut *budget.Registry
	// Obs receives the orchestrator's telemetry: control-plane frame and
	// byte counts, connected-worker and in-flight-target gauges, rate
	// pacer waits, and a worker_disconnect event per mid-run loss. Nil
	// disables instrumentation. A non-nil registry also enables the
	// distributed-tracing layer: the orchestrator joins the trace carried
	// by the CLI's Run frame, propagates it to workers, ingests their
	// span batches, and runs a flight recorder over frame I/O, budget
	// denials and worker lifecycle.
	Obs *obs.Registry
	// FlightSink receives a flight-recorder JSONL dump on failure
	// triggers (worker disconnect mid-measurement, MsgError, measurement
	// error/timeout). Nil disables automatic dumps; the recorder itself
	// stays queryable through Obs.
	FlightSink io.Writer
}

// Orchestrator accepts workers and serves measurement requests.
type Orchestrator struct {
	cfg Config
	ln  net.Listener
	// ledger enforces responsible-probing governance on the streaming
	// path; nil when the configuration enables none.
	ledger *budget.Ledger

	// stats is the shared control-plane traffic accounting every accepted
	// connection feeds; disconnects counts workers lost mid-run (a nil
	// no-op counter when Config.Obs is nil). rateWaits/rateWaitNanos
	// accumulate the streaming limiters' pacing sleeps across
	// measurements.
	stats         *wire.Stats
	disconnects   *obs.Counter
	rateWaits     atomic.Int64
	rateWaitNanos atomic.Int64

	// flight is the orchestrator's flight recorder (nil without Obs);
	// activeTrace is the trace context of the in-flight measurement, so
	// frame taps and lifecycle events link to it. flightMu serialises
	// automatic dumps to FlightSink.
	flight      *obs.Recorder
	activeTrace atomic.Pointer[obs.TraceContext]
	flightMu    sync.Mutex

	mu      sync.Mutex
	workers map[int]*workerConn
	nextIdx int
	active  *measurement
}

type workerConn struct {
	idx  int
	name string
	conn *wire.Conn
}

// measurement is the state of the (single) in-flight measurement.
type measurement struct {
	id       uint16
	total    atomic.Int64 // targets to stream (post-governance)
	streamed atomic.Int64 // targets streamed to workers so far
	results  chan wire.Result
	done     chan int      // worker indices reporting completion
	gone     chan int      // worker indices lost mid-measurement
	finished chan struct{} // closed at teardown so producers never block
}

// outstanding returns the targets not yet streamed to workers.
func (m *measurement) outstanding() int64 {
	if out := m.total.Load() - m.streamed.Load(); out > 0 {
		return out
	}
	return 0
}

// New starts listening.
func New(cfg Config) (*Orchestrator, error) {
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 1000
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("orchestrator: listening on %s: %w", cfg.Addr, err)
	}
	o := &Orchestrator{
		cfg:     cfg,
		ln:      ln,
		workers: make(map[int]*workerConn),
		stats:   &wire.Stats{},
	}
	if !cfg.Budget.IsZero() || cfg.OptOut != nil {
		o.ledger = budget.NewLedger(cfg.Budget, cfg.OptOut)
	}
	o.disconnects = cfg.Obs.Counter("laces_orchestrator_worker_disconnects_total",
		"Workers lost while connected to this orchestrator.")
	cfg.Obs.SetTraceComponent("orchestrator")
	o.flight = cfg.Obs.EnableFlight("orchestrator", 4096)
	if reg := cfg.Obs; reg != nil {
		st := o.stats
		reg.CounterFunc("laces_wire_frames_total",
			"Control-plane frames moved, by direction.",
			func() float64 { return float64(st.FramesTx()) }, obs.L("dir", "tx"))
		reg.CounterFunc("laces_wire_frames_total",
			"Control-plane frames moved, by direction.",
			func() float64 { return float64(st.FramesRx()) }, obs.L("dir", "rx"))
		reg.CounterFunc("laces_wire_bytes_total",
			"Control-plane bytes moved (frame headers included), by direction.",
			func() float64 { return float64(st.BytesTx()) }, obs.L("dir", "tx"))
		reg.CounterFunc("laces_wire_bytes_total",
			"Control-plane bytes moved (frame headers included), by direction.",
			func() float64 { return float64(st.BytesRx()) }, obs.L("dir", "rx"))
		reg.GaugeFunc("laces_orchestrator_workers",
			"Workers currently connected.",
			func() float64 { return float64(o.NumWorkers()) })
		reg.GaugeFunc("laces_orchestrator_targets_inflight",
			"Targets accepted but not yet streamed in the active measurement.",
			func() float64 {
				o.mu.Lock()
				m := o.active
				o.mu.Unlock()
				if m == nil {
					return 0
				}
				return float64(m.outstanding())
			})
		reg.CounterFunc("laces_rate_waits_total",
			"Times the streaming rate limiter slept for a token.",
			func() float64 { return float64(o.rateWaits.Load()) })
		reg.CounterFunc("laces_rate_wait_seconds_total",
			"Total time the streaming rate limiter spent pacing.",
			func() float64 { return time.Duration(o.rateWaitNanos.Load()).Seconds() })
	}
	return o, nil
}

// Addr returns the bound listen address.
func (o *Orchestrator) Addr() string { return o.ln.Addr().String() }

// NumWorkers returns the number of currently connected workers.
func (o *Orchestrator) NumWorkers() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return len(o.workers)
}

// Serve accepts connections until ctx is cancelled.
func (o *Orchestrator) Serve(ctx context.Context) error {
	go func() {
		<-ctx.Done()
		o.ln.Close()
	}()
	for {
		nc, err := o.ln.Accept()
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			return fmt.Errorf("orchestrator: accept: %w", err)
		}
		conn := wire.NewConn(nc)
		conn.SetStats(o.stats)
		if o.flight != nil {
			conn.SetTap(o.frameEvent)
		}
		go o.handle(ctx, conn)
	}
}

// frameEvent is the per-connection wire tap: every frame the
// orchestrator moves becomes one flight-recorder event, linked to the
// active measurement's trace.
func (o *Orchestrator) frameEvent(sent bool, t wire.MsgType, n int) {
	kind := "frame_rx"
	if sent {
		kind = "frame_tx"
	}
	o.flight.Record(kind, t.String(), o.activeTrace.Load(), int64(n))
}

// dumpFlight writes the flight-recorder contents to the configured sink
// — the automatic dump fired on failure triggers. The trigger itself is
// recorded first so the dump names its reason.
func (o *Orchestrator) dumpFlight(reason string) {
	if o.flight == nil || o.cfg.FlightSink == nil {
		return
	}
	o.flight.Record("flight_dump", reason, o.activeTrace.Load(), 0)
	o.flightMu.Lock()
	defer o.flightMu.Unlock()
	if err := o.flight.WriteJSONL(o.cfg.FlightSink); err != nil {
		o.cfg.Logf("orchestrator: flight dump failed: %v", err)
	}
}

// handle dispatches one connection by its hello role.
func (o *Orchestrator) handle(ctx context.Context, conn *wire.Conn) {
	defer conn.Close()
	typ, raw, err := conn.Read()
	if err != nil || typ != wire.MsgHello {
		return
	}
	hello, err := wire.Decode[wire.Hello](raw)
	if err != nil {
		return
	}
	switch hello.Role {
	case "worker":
		o.handleWorker(conn, hello)
	case "cli":
		o.handleCLI(ctx, conn)
	default:
		_ = conn.Write(wire.MsgError, wire.ErrorMsg{Text: "unknown role " + hello.Role})
	}
}

// handleWorker registers the worker and pumps its frames until it
// disconnects.
func (o *Orchestrator) handleWorker(conn *wire.Conn, hello wire.Hello) {
	o.mu.Lock()
	idx := o.nextIdx
	o.nextIdx++
	wc := &workerConn{idx: idx, name: hello.Name, conn: conn}
	o.workers[idx] = wc
	total := len(o.workers)
	o.mu.Unlock()
	o.cfg.Logf("orchestrator: worker %s connected as site %d (%d online)", hello.Name, idx, total)
	o.flight.Record("worker_up", hello.Name, hello.Trace, int64(idx))

	if err := conn.Write(wire.MsgHelloAck, wire.HelloAck{Worker: idx, Workers: total}); err != nil {
		o.dropWorker(idx)
		return
	}
	for {
		typ, raw, err := conn.Read()
		if err != nil {
			o.dropWorker(idx)
			return
		}
		o.mu.Lock()
		m := o.active
		o.mu.Unlock()
		switch typ {
		case wire.MsgResult:
			if m == nil {
				continue // stale result after completion: drop
			}
			res, err := wire.Decode[wire.Result](raw)
			if err != nil {
				continue
			}
			select {
			case m.results <- res:
			case <-m.finished:
				// Measurement tore down while this result was in flight;
				// drop it rather than block the worker's frame pump.
			}
		case wire.MsgWorkerDone:
			if m != nil {
				m.done <- idx
			}
		case wire.MsgTrace:
			// A worker hands back its completed spans (and the
			// trace-linked tail of its flight recorder) at the end of its
			// part of a measurement; ingesting them here is what turns
			// per-process records into one assembled trace.
			batch, err := wire.Decode[wire.TraceBatch](raw)
			if err != nil {
				continue
			}
			o.cfg.Obs.IngestTraceSpans(batch.Spans)
			o.flight.Ingest(batch.Events)
		case wire.MsgError:
			em, err := wire.Decode[wire.ErrorMsg](raw)
			if err != nil {
				continue
			}
			o.cfg.Logf("orchestrator: worker %d error: %s", idx, em.Text)
			o.flight.Record("error", em.Text, o.activeTrace.Load(), int64(idx))
			o.dumpFlight("worker_error")
		}
	}
}

// dropWorker removes a disconnected worker and informs the active
// measurement so it does not wait for it (§4.2.3 failure awareness).
// A loss mid-measurement emits one structured event — log line and obs
// event — carrying the worker, the measurement and the targets still
// unstreamed, so operators can judge the coverage impact at a glance.
func (o *Orchestrator) dropWorker(idx int) {
	o.mu.Lock()
	wc := o.workers[idx]
	delete(o.workers, idx)
	m := o.active
	o.mu.Unlock()
	o.disconnects.Inc()
	name := ""
	if wc != nil {
		name = wc.name
	}
	if m != nil {
		// The full disconnect context an operator needs to judge the
		// loss: which measurement, the shard range the worker had been
		// streamed (every worker probes the same [0, streamed) range),
		// what was still outstanding, and the connection's own
		// frame/byte counts for tell-apart between "died silently" and
		// "died mid-stream".
		outstanding := m.outstanding()
		streamed := m.streamed.Load()
		fields := []obs.Label{
			obs.L("worker", strconv.Itoa(idx)),
			obs.L("name", name),
			obs.L("measurement", strconv.FormatUint(uint64(m.id), 10)),
			obs.L("shard_base", "0"),
			obs.L("shard_end", strconv.FormatInt(streamed, 10)),
			obs.L("targets_total", strconv.FormatInt(m.total.Load(), 10)),
			obs.L("targets_outstanding", strconv.FormatInt(outstanding, 10)),
		}
		if wc != nil {
			cs := wc.conn.ConnStats()
			fields = append(fields,
				obs.L("frames_tx", strconv.FormatInt(cs.FramesTx(), 10)),
				obs.L("frames_rx", strconv.FormatInt(cs.FramesRx(), 10)),
				obs.L("bytes_tx", strconv.FormatInt(cs.BytesTx(), 10)),
				obs.L("bytes_rx", strconv.FormatInt(cs.BytesRx(), 10)))
		}
		o.cfg.Logf("orchestrator: event=worker_disconnect worker=%d name=%q measurement=%d shard=[0,%d) targets_outstanding=%d",
			idx, name, m.id, streamed, outstanding)
		o.flight.Record("worker_disconnect", name, o.activeTrace.Load(), int64(idx), fields...)
		o.dumpFlight("worker_disconnect")
		select {
		case m.gone <- idx:
		default:
		}
		return
	}
	o.cfg.Logf("orchestrator: worker %d disconnected", idx)
	o.flight.Record("worker_down", name, nil, int64(idx))
}

// handleCLI serves one measurement request.
func (o *Orchestrator) handleCLI(ctx context.Context, conn *wire.Conn) {
	typ, raw, err := conn.Read()
	if err != nil || typ != wire.MsgRun {
		return
	}
	req, err := wire.Decode[wire.Run](raw)
	if err != nil {
		_ = conn.Write(wire.MsgError, wire.ErrorMsg{Text: err.Error()})
		return
	}
	if err := o.runMeasurement(ctx, conn, req); err != nil {
		o.flight.Record("error", err.Error(), o.activeTrace.Load(), 0)
		o.dumpFlight("measurement_error")
		_ = conn.Write(wire.MsgError, wire.ErrorMsg{Text: err.Error()})
	}
}

// runMeasurement executes one measurement across the connected workers,
// forwarding every result frame to the CLI.
func (o *Orchestrator) runMeasurement(ctx context.Context, cli *wire.Conn, req wire.Run) error {
	o.mu.Lock()
	if o.active != nil {
		o.mu.Unlock()
		return errors.New("orchestrator: a measurement is already running")
	}
	m := &measurement{
		id:       req.Def.ID,
		results:  make(chan wire.Result, 4096),
		done:     make(chan int, 64),
		gone:     make(chan int, 64),
		finished: make(chan struct{}),
	}
	m.total.Store(int64(len(req.Targets)))
	o.active = m
	participants := make([]*workerConn, 0, len(o.workers))
	for _, wc := range o.workers {
		participants = append(participants, wc)
	}
	// Stable fan-out order (registration index, not map order) so slot
	// assignment and batch delivery are reproducible across runs.
	sort.Slice(participants, func(i, j int) bool { return participants[i].idx < participants[j].idx })
	o.mu.Unlock()
	// release frees the measurement slot. The success path calls it before
	// the Complete frame goes out: a client may start its next measurement
	// the moment it reads Complete, and must not find this one still
	// registered. The deferred call covers the error paths.
	release := sync.OnceFunc(func() {
		close(m.finished)
		o.mu.Lock()
		o.active = nil
		o.mu.Unlock()
	})
	defer release()

	if len(participants) == 0 {
		return errors.New("orchestrator: no workers connected")
	}
	o.cfg.Logf("orchestrator: measurement %d over %d targets with %d workers",
		req.Def.ID, len(req.Targets), len(participants))

	// Join the trace the CLI minted (or mint a fresh one when the CLI
	// predates tracing): everything the orchestrator and its workers do
	// for this measurement hangs off mspan. The context stays published
	// in activeTrace so frame taps and failure dumps link to it; it is
	// deliberately not cleared at teardown — an error dump fired just
	// after still names the measurement it belongs to.
	mspan := o.cfg.Obs.JoinTrace(req.Trace, "orchestrator/measurement")
	mspan.SetAttr("measurement", strconv.FormatUint(uint64(req.Def.ID), 10))
	mspan.SetAttr("targets", strconv.Itoa(len(req.Targets)))
	o.activeTrace.Store(mspan.Context())
	defer mspan.End() // error paths; the success path ends it first

	// Instruct all workers that a measurement is starting (§4.2.2). The
	// definition carries the measurement span's context, so each worker
	// parents its own spans on it.
	def := req.Def
	def.Trace = mspan.Context()
	alive := make(map[int]*workerConn, len(participants))
	for _, wc := range participants {
		if err := wc.conn.Write(wire.MsgStart, def); err != nil {
			o.dropWorker(wc.idx)
			continue
		}
		alive[wc.idx] = wc
	}
	if len(alive) == 0 {
		return errors.New("orchestrator: all workers failed at start")
	}
	mspan.SetAttr("workers", strconv.Itoa(len(alive)))

	// Responsible-probing governance on the streaming path: targets in
	// an opted-out prefix, or beyond the probe budget, are withheld from
	// every worker before the rate-limited stream starts. The admission
	// order is the request's target order, so the streamed set is
	// deterministic; withheld targets are reported to the CLI in the
	// Complete frame, never silently dropped.
	var skipped int64
	if o.ledger != nil {
		admitSpan := mspan.Child("admit")
		gate := o.ledger.Gate(0)
		perTarget := int64(len(alive))
		kept := make([]string, 0, len(req.Targets))
		for _, ts := range req.Targets {
			addr, err := netip.ParseAddr(ts)
			if err != nil {
				kept = append(kept, ts) // workers reject unparsable targets themselves
				continue
			}
			if gate.AdmitAddr(addr, perTarget) == budget.Admitted {
				kept = append(kept, ts)
			} else {
				skipped++
				o.flight.Record("budget_denied", ts, o.activeTrace.Load(), perTarget)
			}
		}
		if skipped > 0 {
			o.cfg.Logf("orchestrator: governance withheld %d of %d targets", skipped, len(req.Targets))
		}
		req.Targets = kept
		m.total.Store(int64(len(kept)))
		admitSpan.SetAttr("kept", strconv.Itoa(len(kept)))
		admitSpan.SetAttr("skipped", strconv.FormatInt(skipped, 10))
		admitSpan.End()
	}

	// Stream targets to every worker at the CLI-defined rate. Workers
	// probe as targets arrive; the per-worker probe offset is applied at
	// the worker (its site index shifts its probe schedule).
	limiter, err := rate.NewLimiter(maxf(req.Def.Rate, 1), o.cfg.BatchSize, nil)
	if err != nil {
		return err
	}
	defer func() {
		waits, total := limiter.WaitStats()
		o.rateWaits.Add(waits)
		o.rateWaitNanos.Add(total.Nanoseconds())
	}()
	go func() {
		// The stream span is closed before the EndTargets frames go out:
		// workers answer EndTargets with WorkerDone, and the Complete
		// frame's span collection must find the stream span recorded.
		streamSpan := mspan.Child("stream")
		endStream := func() {
			streamSpan.SetAttr("streamed", strconv.FormatInt(m.streamed.Load(), 10))
			streamSpan.End()
		}
		defer endStream() // early-exit paths; the normal path ends it first
		tc := mspan.Context()
		for base := 0; base < len(req.Targets); base += o.cfg.BatchSize {
			end := base + o.cfg.BatchSize
			if end > len(req.Targets) {
				end = len(req.Targets)
			}
			for i := base; i < end; i++ {
				if err := limiter.Wait(ctx); err != nil {
					return
				}
			}
			batch := wire.Targets{Base: base, Addrs: req.Targets[base:end], Trace: tc}
			for idx, wc := range alive {
				//laces:allow maporder each iteration writes to a different worker's connection; there is no shared byte stream to reorder
				if err := wc.conn.Write(wire.MsgTargets, batch); err != nil {
					o.dropWorker(idx)
				}
			}
			m.streamed.Store(int64(end))
		}
		endStream()
		for idx, wc := range alive {
			//laces:allow maporder each iteration writes to a different worker's connection; there is no shared byte stream to reorder
			if err := wc.conn.Write(wire.MsgEndTargets, struct{}{}); err != nil {
				o.dropWorker(idx)
			}
		}
	}()

	// Aggregate: forward results until every (surviving) worker reports
	// done. Worker loss mid-measurement reduces the quorum instead of
	// hanging the run.
	pending := make(map[int]bool, len(alive))
	for idx := range alive {
		pending[idx] = true
	}
	var forwarded int64
	aggSpan := mspan.Child("aggregate")
	defer aggSpan.End() // error paths; the success path ends it first
	timeout := time.NewTimer(5 * time.Minute)
	defer timeout.Stop()
	for len(pending) > 0 {
		select {
		case res := <-m.results:
			forwarded++
			if err := cli.Write(wire.MsgResult, res); err != nil {
				return fmt.Errorf("orchestrator: CLI went away: %w", err)
			}
		case idx := <-m.done:
			delete(pending, idx)
		case idx := <-m.gone:
			delete(pending, idx)
		case <-ctx.Done():
			return ctx.Err()
		case <-timeout.C:
			return errors.New("orchestrator: measurement timed out")
		}
	}
	// Drain results that raced with the final done frames.
	for {
		select {
		case res := <-m.results:
			forwarded++
			if err := cli.Write(wire.MsgResult, res); err != nil {
				return err
			}
		default:
			// Close out the orchestrator's spans, then hand the CLI the
			// assembled trace: the orchestrator's own spans plus every
			// worker batch ingested over MsgTrace, filtered to this
			// measurement's trace ID.
			aggSpan.SetAttr("forwarded", strconv.FormatInt(forwarded, 10))
			aggSpan.End()
			mspan.SetAttr("results", strconv.FormatInt(forwarded, 10))
			mspan.SetAttr("skipped", strconv.FormatInt(skipped, 10))
			mspan.End()
			complete := wire.Complete{Results: forwarded, Workers: len(alive), Skipped: skipped}
			if tc := mspan.Context(); tc != nil {
				complete.Trace = tc
				complete.TraceSpans = o.cfg.Obs.TraceSpansFor(tc.TraceID)
			}
			release()
			return cli.Write(wire.MsgComplete, complete)
		}
	}
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
