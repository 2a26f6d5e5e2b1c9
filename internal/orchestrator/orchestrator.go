// Package orchestrator implements the central LACeS controller (§4.2.1):
// it accepts Worker and CLI connections, forwards measurement definitions,
// streams hitlist targets to all workers at the CLI-defined rate
// (synchronized probing, §4.2.3), aggregates the result streams from all
// workers into a single stream towards the CLI, and keeps measurements
// running when workers disconnect mid-run (failure awareness).
//
// # Measurement lifecycle
//
// One measurement runs at a time, and it owns everything that happens on
// its behalf: a context of its own, the one set of workers it still waits
// for, and a sequence number. A Run frame that passes validation goes
// through four phases:
//
//   - start claims the slot, assigns the sequence number, takes the
//     connected workers as the participant set and sends each MsgStart;
//   - admit withholds targets the governance ledger refuses;
//   - stream (a goroutine) sends the targets to the participants in
//     rate-limited batches, then MsgEndTargets;
//   - collect waits until no participant is awaited any more, then sends
//     the CLI its Complete frame.
//
// Results do not pass through collect: each worker's frame pump writes its
// Result frames straight to the CLI connection. A worker's results precede
// its WorkerDone on the same TCP stream, so when the set is empty every
// result has been written.
//
// The participant set is the only record of who takes part. The streamer
// fans out to it and the quorum is its emptiness; a worker leaves it by
// reporting done or by being dropped (dropWorker), and from then on gets no
// frame and forwards no result.
//
// A measurement is cancelled by its CLI going away (the CLI sends nothing
// after Run, so a read on its connection returning is the signal), by the
// server's context, or by the timeout — never by a worker: losing one
// shrinks the set. However it ends, it is released before the CLI hears
// the outcome, and released means: the context is cancelled, the streaming
// goroutine has returned, the participant set is empty, and only then the
// slot is free. The next measurement cannot share a moment with this one.
//
// What may still arrive afterwards are frames workers had in flight.
// Every worker frame of a measurement echoes the sequence number from
// MsgStart, and the pump drops those that are not the active
// measurement's. The measurement ID cannot do that job: CLIs pick it from
// 15 bits and reuse it, so a cancelled measurement's results would pass
// for its successor's.
package orchestrator

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/netip"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/laces-project/laces/internal/budget"
	"github.com/laces-project/laces/internal/obs"
	"github.com/laces-project/laces/internal/rate"
	"github.com/laces-project/laces/internal/wire"
)

const (
	// batchSize is the number of targets per streamed frame, and the burst
	// the streaming limiter allows.
	batchSize = 1000
	// measurementTimeout cancels a measurement whose workers neither
	// finish nor disconnect.
	measurementTimeout = 5 * time.Minute
)

// Config parameterises an Orchestrator.
type Config struct {
	// Addr is the TCP listen address, e.g. "127.0.0.1:4000"; use ":0" for
	// an ephemeral port in tests.
	Addr string
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
	// ep is the orchestrator's end of the control plane: shared traffic
	// accounting, flight recorder and the active measurement's trace.
	ep *wire.Endpoint

	// disconnects counts workers lost (a nil no-op counter when
	// Config.Obs is nil); rateWaits/rateWaitNanos accumulate the streaming
	// limiters' pacing sleeps across measurements.
	disconnects   *obs.Counter
	rateWaits     atomic.Int64
	rateWaitNanos atomic.Int64

	mu      sync.Mutex
	workers map[int]*workerConn
	nextIdx int
	lastSeq uint64
	active  *measurement
}

type workerConn struct {
	idx  int
	name string
	conn *wire.Conn
}

// measurement is the state of the (single) in-flight measurement; the
// package comment describes its lifecycle.
type measurement struct {
	id      uint16
	seq     uint64
	cli     *wire.Conn
	span    *obs.ActiveSpan
	ctx     context.Context
	cancel  context.CancelCauseFunc
	timeout *time.Timer
	started int   // participants that were sent MsgStart
	skipped int64 // targets governance withheld

	total     atomic.Int64 // targets to stream (post-governance)
	streamed  atomic.Int64 // targets streamed to workers so far
	streaming sync.WaitGroup

	mu        sync.Mutex
	awaited   []*workerConn // the participant set, in registration order
	forwarded int64         // results written to the CLI
	quorum    chan struct{} // closed when awaited empties
}

// outstanding returns the targets not yet streamed to workers.
func (m *measurement) outstanding() int64 {
	return max(m.total.Load()-m.streamed.Load(), 0)
}

// participants returns the workers still awaited, in registration order
// (not map order), so batch delivery is reproducible across runs.
func (m *measurement) participants() []*workerConn {
	m.mu.Lock()
	defer m.mu.Unlock()
	return slices.Clone(m.awaited)
}

// remove takes a worker that reported done, or was dropped, out of the
// participant set; removing the last one is the quorum.
func (m *measurement) remove(idx int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := len(m.awaited)
	m.awaited = slices.DeleteFunc(m.awaited, func(wc *workerConn) bool { return wc.idx == idx })
	if n > 0 && len(m.awaited) == 0 {
		close(m.quorum)
	}
}

// forward writes one result of a participant to the CLI. The set's lock is
// held across the write, so once a worker has been removed, or the
// measurement released, nothing of its follows.
func (m *measurement) forward(idx int, res wire.Result) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !slices.ContainsFunc(m.awaited, func(wc *workerConn) bool { return wc.idx == idx }) {
		return
	}
	res.Seq = 0 // between orchestrator and workers only
	if err := m.cli.Write(wire.MsgResult, res); err != nil {
		m.cancel(fmt.Errorf("orchestrator: CLI went away: %w", err))
		return
	}
	m.forwarded++
}

// New starts listening.
func New(cfg Config) (*Orchestrator, error) {
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
		ep:      wire.NewEndpoint(cfg.Obs, "orchestrator", 4096, cfg.FlightSink),
	}
	if !cfg.Budget.IsZero() || cfg.OptOut != nil {
		o.ledger = budget.NewLedger(cfg.Budget, cfg.OptOut)
	}
	o.disconnects = cfg.Obs.Counter("laces_orchestrator_worker_disconnects_total",
		"Workers lost while connected to this orchestrator.")
	if reg := cfg.Obs; reg != nil {
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
	defer context.AfterFunc(ctx, func() { o.ln.Close() })()
	for {
		nc, err := o.ln.Accept()
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			return fmt.Errorf("orchestrator: accept: %w", err)
		}
		go o.handle(ctx, o.ep.Wrap(nc))
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
	o.workers[idx] = &workerConn{idx: idx, name: hello.Name, conn: conn}
	total := len(o.workers)
	o.mu.Unlock()
	defer o.dropWorker(idx)
	o.cfg.Logf("orchestrator: worker %s connected as site %d (%d online)", hello.Name, idx, total)
	o.ep.Flight().Record("worker_up", hello.Name, hello.Trace, int64(idx))

	if err := conn.Write(wire.MsgHelloAck, wire.HelloAck{Worker: idx, Workers: total}); err != nil {
		return
	}
	for {
		typ, raw, err := conn.Read()
		if err != nil {
			return
		}
		o.workerFrame(idx, typ, raw)
	}
}

// measurement returns the active measurement if seq is its sequence
// number, and nil for a frame of one that is over.
func (o *Orchestrator) measurement(seq uint64) *measurement {
	o.mu.Lock()
	defer o.mu.Unlock()
	if m := o.active; m != nil && m.seq == seq {
		return m
	}
	return nil
}

// workerFrame handles one frame of worker idx. Frames that do not decode,
// and measurement frames that are not the active measurement's, are
// dropped.
func (o *Orchestrator) workerFrame(idx int, typ wire.MsgType, raw json.RawMessage) {
	switch typ {
	case wire.MsgResult:
		if res, err := wire.Decode[wire.Result](raw); err == nil {
			if m := o.measurement(res.Seq); m != nil {
				m.forward(idx, res)
			}
		}
	case wire.MsgWorkerDone:
		if done, err := wire.Decode[wire.WorkerDone](raw); err == nil {
			if m := o.measurement(done.Seq); m != nil {
				m.remove(idx)
			}
		}
	case wire.MsgTrace:
		// A worker hands back its completed spans (and the trace-linked
		// tail of its flight recorder) at the end of its part of a
		// measurement; ingesting them here is what turns per-process
		// records into one assembled trace.
		if batch, err := wire.Decode[wire.TraceBatch](raw); err == nil && o.measurement(batch.Seq) != nil {
			o.cfg.Obs.IngestTraceSpans(batch.Spans)
			o.ep.Flight().Ingest(batch.Events)
		}
	case wire.MsgError:
		if em, err := wire.Decode[wire.ErrorMsg](raw); err == nil {
			o.cfg.Logf("orchestrator: worker %d error: %s", idx, em.Text)
			o.ep.Record("error", em.Text, int64(idx))
			o.dump("worker_error")
		}
	}
}

// dump fires the automatic flight-recorder dump.
func (o *Orchestrator) dump(reason string) {
	if err := o.ep.Dump(reason); err != nil {
		o.cfg.Logf("orchestrator: flight dump failed: %v", err)
	}
}

// dropWorker unregisters a lost worker, closes its connection (nothing is
// written to it from here on) and takes it out of the active measurement,
// which then does not wait for it (§4.2.3 failure awareness). Whoever
// notices the loss calls it — the worker's frame pump on a failed read,
// the streamer on a failed write — and every call after the first is a
// no-op: one loss, one count, one event, one dump.
func (o *Orchestrator) dropWorker(idx int) {
	o.mu.Lock()
	wc, ok := o.workers[idx]
	delete(o.workers, idx)
	m := o.active
	o.mu.Unlock()
	if !ok {
		return
	}
	wc.conn.Close()
	o.disconnects.Inc()
	if m == nil {
		o.cfg.Logf("orchestrator: worker %d disconnected", idx)
		o.ep.Flight().Record("worker_down", wc.name, nil, int64(idx))
		return
	}
	// A loss mid-measurement emits one structured event — log line and
	// flight event — with what an operator needs to judge it: which
	// measurement, the shard range the worker had been streamed (every
	// worker probes the same [0, streamed) range), what was still
	// outstanding, and the connection's own frame/byte counts to tell
	// "died silently" from "died mid-stream".
	streamed, cs := m.streamed.Load(), wc.conn.ConnStats()
	o.cfg.Logf("orchestrator: event=worker_disconnect worker=%d name=%q measurement=%d shard=[0,%d) targets_outstanding=%d",
		idx, wc.name, m.id, streamed, m.outstanding())
	o.ep.Record("worker_disconnect", wc.name, int64(idx),
		obs.L("worker", strconv.Itoa(idx)),
		obs.L("name", wc.name),
		obs.L("measurement", strconv.FormatUint(uint64(m.id), 10)),
		obs.L("shard_base", "0"),
		obs.L("shard_end", strconv.FormatInt(streamed, 10)),
		obs.L("targets_total", strconv.FormatInt(m.total.Load(), 10)),
		obs.L("targets_outstanding", strconv.FormatInt(m.outstanding(), 10)),
		obs.L("frames_tx", strconv.FormatInt(cs.FramesTx(), 10)),
		obs.L("frames_rx", strconv.FormatInt(cs.FramesRx(), 10)),
		obs.L("bytes_tx", strconv.FormatInt(cs.BytesTx(), 10)),
		obs.L("bytes_rx", strconv.FormatInt(cs.BytesRx(), 10)))
	o.dump("worker_disconnect")
	// Last, so that a measurement this loss completes finds the event
	// recorded and the dump written.
	m.remove(idx)
}

// fanOut writes one frame to every participant of m, dropping those the
// write fails for, and returns how many it reached.
func (o *Orchestrator) fanOut(m *measurement, typ wire.MsgType, frame any) (reached int) {
	for _, wc := range m.participants() {
		if err := wc.conn.Write(typ, frame); err != nil {
			o.dropWorker(wc.idx)
			continue
		}
		reached++
	}
	return reached
}

// handleCLI serves one measurement request; whatever goes wrong with it is
// the CLI's one MsgError.
func (o *Orchestrator) handleCLI(ctx context.Context, cli *wire.Conn) {
	typ, raw, err := cli.Read()
	if err != nil || typ != wire.MsgRun {
		return
	}
	if err := o.run(ctx, cli, raw); err != nil {
		o.ep.Record("error", err.Error(), 0)
		o.dump("measurement_error")
		_ = cli.Write(wire.MsgError, wire.ErrorMsg{Text: err.Error()})
	}
}

// run takes a Run frame that decodes and validates through the four
// phases of a measurement.
func (o *Orchestrator) run(ctx context.Context, cli *wire.Conn, raw json.RawMessage) error {
	req, err := wire.Decode[wire.Run](raw)
	if err != nil {
		return err
	}
	if err := validate(req); err != nil {
		return err
	}
	limiter, err := rate.NewLimiter(req.Def.Rate, batchSize, nil)
	if err != nil {
		return err
	}
	m, err := o.start(ctx, cli, req)
	if err != nil {
		return err
	}
	defer o.release(m) // error paths; collect releases before it answers
	go func() {
		// The CLI sends nothing after Run: whatever this read returns,
		// the measurement has lost its client.
		_, _, _ = cli.Read()
		m.cancel(errors.New("orchestrator: CLI went away"))
	}()
	m.streaming.Add(1)
	go o.stream(m, o.admit(m, req.Targets), limiter)
	return o.collect(m)
}

// validate rejects a Run frame no measurement can run with, naming the
// field, before any worker hears of it.
func validate(req wire.Run) error {
	if err := req.Def.Validate(); err != nil {
		return err
	}
	for i, a := range req.Targets {
		if !a.IsValid() {
			return fmt.Errorf("orchestrator: targets[%d] is not an address", i)
		}
	}
	return nil
}

// start claims the measurement slot and tells the connected workers — the
// participants from here on — that a measurement begins (§4.2.2).
func (o *Orchestrator) start(ctx context.Context, cli *wire.Conn, req wire.Run) (*measurement, error) {
	m := &measurement{id: req.Def.ID, cli: cli, quorum: make(chan struct{})}
	m.total.Store(int64(len(req.Targets)))
	m.ctx, m.cancel = context.WithCancelCause(ctx)
	o.mu.Lock()
	var busy error
	switch {
	case o.active != nil:
		busy = errors.New("orchestrator: a measurement is already running")
	case len(o.workers) == 0:
		busy = errors.New("orchestrator: no workers connected")
	}
	if busy != nil {
		o.mu.Unlock()
		m.cancel(nil)
		return nil, busy
	}
	o.lastSeq++
	m.seq = o.lastSeq
	for _, wc := range o.workers {
		m.awaited = append(m.awaited, wc)
	}
	slices.SortFunc(m.awaited, func(a, b *workerConn) int { return a.idx - b.idx })
	workers := len(m.awaited)
	o.active = m
	o.mu.Unlock()
	o.cfg.Logf("orchestrator: measurement %d over %d targets with %d workers",
		m.id, len(req.Targets), workers)
	m.timeout = time.AfterFunc(measurementTimeout, func() {
		m.cancel(errors.New("orchestrator: measurement timed out"))
	})

	// Join the trace the CLI minted (or mint a fresh one when the CLI
	// predates tracing): everything the orchestrator and its workers do
	// for this measurement hangs off m.span, and the definition carries
	// its context, so each worker parents its own spans on it.
	m.span = o.cfg.Obs.JoinTrace(req.Trace, "orchestrator/measurement")
	m.span.SetAttr("measurement", strconv.FormatUint(uint64(m.id), 10))
	m.span.SetAttr("targets", strconv.Itoa(len(req.Targets)))
	o.ep.SetTrace(m.span.Context())

	def := req.Def
	def.Seq, def.Trace = m.seq, m.span.Context()
	if m.started = o.fanOut(m, wire.MsgStart, def); m.started == 0 {
		o.release(m)
		return nil, errors.New("orchestrator: all workers failed at start")
	}
	m.span.SetAttr("workers", strconv.Itoa(m.started))
	return m, nil
}

// admit is responsible-probing governance on the streaming path: targets
// in an opted-out prefix, or beyond the probe budget, are withheld from
// every worker before the rate-limited stream starts. The admission order
// is the request's target order, so the streamed set is deterministic;
// withheld targets are reported to the CLI in the Complete frame, never
// silently dropped.
func (o *Orchestrator) admit(m *measurement, targets []netip.Addr) []netip.Addr {
	if o.ledger == nil {
		return targets
	}
	span := m.span.Child("admit")
	defer span.End()
	gate := o.ledger.Gate(0)
	perTarget := int64(m.started)
	kept := make([]netip.Addr, 0, len(targets))
	for _, addr := range targets {
		if gate.AdmitAddr(addr, perTarget) == budget.Admitted {
			kept = append(kept, addr)
		} else {
			o.ep.Record("budget_denied", addr.String(), perTarget)
		}
	}
	if m.skipped = int64(len(targets) - len(kept)); m.skipped > 0 {
		o.cfg.Logf("orchestrator: governance withheld %d of %d targets", m.skipped, len(targets))
	}
	m.total.Store(int64(len(kept)))
	span.SetAttr("kept", strconv.Itoa(len(kept)))
	span.SetAttr("skipped", strconv.FormatInt(m.skipped, 10))
	return kept
}

// stream sends the targets to the participants at the CLI-defined rate,
// then tells them the hitlist is complete. Workers probe as targets
// arrive; the per-worker probe offset is applied at the worker (its site
// index shifts its probe schedule). It runs on the measurement's context
// and stops at the next token or batch once that is cancelled.
func (o *Orchestrator) stream(m *measurement, targets []netip.Addr, limiter *rate.Limiter) {
	defer m.streaming.Done()
	span := m.span.Child("stream")
	defer func() {
		span.SetAttr("streamed", strconv.FormatInt(m.streamed.Load(), 10))
		span.End()
		waits, total := limiter.WaitStats()
		o.rateWaits.Add(waits)
		o.rateWaitNanos.Add(total.Nanoseconds())
	}()
	tc := m.span.Context()
	for base := 0; base < len(targets); base += batchSize {
		end := min(base+batchSize, len(targets))
		for range end - base {
			if limiter.Wait(m.ctx) != nil {
				return
			}
		}
		if m.ctx.Err() != nil {
			return
		}
		o.fanOut(m, wire.MsgTargets, wire.Targets{Base: base, Addrs: targets[base:end], Trace: tc})
		m.streamed.Store(int64(end))
	}
	o.fanOut(m, wire.MsgEndTargets, struct{}{})
}

// collect waits for the quorum — every participant done or lost, so
// worker loss mid-measurement shrinks the wait instead of hanging the run
// — and answers the CLI with the Complete frame: the counts, and the
// assembled trace (the orchestrator's own spans plus every worker batch
// ingested over MsgTrace, filtered to this measurement's trace ID). The
// measurement is released first: a client may start its next one the
// moment it reads Complete, and must not find this one still registered.
func (o *Orchestrator) collect(m *measurement) error {
	span := m.span.Child("aggregate")
	defer span.End()
	select {
	case <-m.quorum:
	case <-m.ctx.Done():
		return context.Cause(m.ctx)
	}
	// The set is empty, so nothing is forwarded any more: the count is final.
	span.SetAttr("forwarded", strconv.FormatInt(m.forwarded, 10))
	span.End()
	m.span.SetAttr("results", strconv.FormatInt(m.forwarded, 10))
	m.span.SetAttr("skipped", strconv.FormatInt(m.skipped, 10))
	o.release(m)
	complete := wire.Complete{Results: m.forwarded, Workers: m.started, Skipped: m.skipped}
	if tc := m.span.Context(); tc != nil {
		complete.Trace = tc
		complete.TraceSpans = o.cfg.Obs.TraceSpansFor(tc.TraceID)
	}
	return m.cli.Write(wire.MsgComplete, complete)
}

// release ends m, in this order: its context is cancelled, its streaming
// goroutine has returned, its participant set is empty (a frame pump that
// still holds m forwards nothing more), its span is closed — and then the
// slot is free. Safe to call more than once.
func (o *Orchestrator) release(m *measurement) {
	m.cancel(nil)
	m.timeout.Stop()
	m.streaming.Wait()
	m.mu.Lock()
	m.awaited = nil
	m.mu.Unlock()
	m.span.End()
	o.mu.Lock()
	if o.active == m {
		o.active = nil
	}
	o.mu.Unlock()
}
