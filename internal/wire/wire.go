// Package wire defines the message protocol between the three LACeS
// components (§4.2.1): the CLI that defines measurements, the central
// Orchestrator, and the Workers deployed at the anycast sites.
//
// Frames are length-prefixed: a 4-byte big-endian payload length, a 1-byte
// message type, and a JSON payload. JSON keeps the protocol debuggable and
// the worker binary small; the probing hot path never serialises per-probe
// state (targets stream in batches, results stream back one frame per
// reply, and the Orchestrator performs all aggregation — Workers hold no
// hitlist and no result store, §4.2.3).
package wire

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"

	"github.com/laces-project/laces/internal/obs"
	"github.com/laces-project/laces/internal/packet"
)

// MsgType identifies a frame's payload.
type MsgType uint8

// Protocol messages.
const (
	MsgHello      MsgType = iota + 1 // Worker/CLI → Orchestrator: introduce
	MsgHelloAck                      // Orchestrator → Worker: assigned index
	MsgStart                         // Orchestrator → Worker: measurement definition
	MsgTargets                       // Orchestrator → Worker: hitlist batch
	MsgEndTargets                    // Orchestrator → Worker: hitlist complete
	MsgResult                        // Worker → Orchestrator → CLI: one reply
	MsgWorkerDone                    // Worker → Orchestrator: finished probing
	MsgComplete                      // Orchestrator → CLI: measurement complete
	MsgError                         // any → any: fatal error
	MsgRun                           // CLI → Orchestrator: run a measurement
	MsgTrace                         // Worker → Orchestrator: completed trace spans
)

var msgNames = [...]string{
	MsgHello:      "hello",
	MsgHelloAck:   "hello-ack",
	MsgStart:      "start",
	MsgTargets:    "targets",
	MsgEndTargets: "end-targets",
	MsgResult:     "result",
	MsgWorkerDone: "worker-done",
	MsgComplete:   "complete",
	MsgError:      "error",
	MsgRun:        "run",
	MsgTrace:      "trace",
}

// String names the message type.
func (t MsgType) String() string {
	if int(t) < len(msgNames) && msgNames[t] != "" {
		return msgNames[t]
	}
	return fmt.Sprintf("MsgType(%d)", uint8(t))
}

// MaxFrame bounds a frame payload; larger frames indicate protocol
// corruption.
const MaxFrame = 16 << 20

// Hello introduces a connection to the Orchestrator.
//
// Trace carries the sender's distributed-trace context when tracing is
// on. The field is a pointer on every frame that carries it: omitempty
// does not elide zero struct values, so a pointer is what keeps frames
// from pre-tracing peers byte-compatible.
type Hello struct {
	Role  string            `json:"role"` // "worker" or "cli"
	Name  string            `json:"name"`
	Trace *obs.TraceContext `json:"trace,omitempty"`
}

// HelloAck assigns a worker its site index.
type HelloAck struct {
	Worker  int `json:"worker"`
	Workers int `json:"workers"` // total expected sites
}

// MeasurementDef is the measurement definition the CLI creates and the
// Orchestrator forwards to Workers (§4.2.2).
type MeasurementDef struct {
	ID       uint16  `json:"id"`
	Protocol string  `json:"protocol"` // ICMP, TCP or DNS
	V6       bool    `json:"v6"`
	OffsetMS int64   `json:"offset_ms"` // inter-worker probe spacing
	Rate     float64 `json:"rate"`      // hitlist targets per second
	Zone     string  `json:"zone,omitempty"`
	// Seq is the sequence number the Orchestrator assigns a measurement
	// when it starts it. Workers echo it on every frame they send for the
	// measurement, and the Orchestrator drops frames whose Seq is not the
	// active measurement's: ID cannot serve, CLIs choose it from 15 bits
	// and reuse it. Whatever a CLI puts here is overwritten.
	Seq uint64 `json:"seq,omitempty"`
	// Trace is the orchestrator's measurement-span context; workers
	// parent their measure spans on it.
	Trace *obs.TraceContext `json:"trace,omitempty"`
}

// Validate names the first field no measurement can run with. It is
// called where a definition enters from outside: on the CLI's flags, and
// by the Orchestrator on every Run frame before any Worker hears of it.
func (d MeasurementDef) Validate() error {
	if !(d.Rate > 0) || math.IsInf(d.Rate, 0) {
		return fmt.Errorf("wire: measurement rate must be a positive, finite number of targets per second, got %v", d.Rate)
	}
	if d.OffsetMS < 0 {
		return fmt.Errorf("wire: measurement offset_ms must not be negative, got %d", d.OffsetMS)
	}
	if _, err := packet.ParseProtocol(d.Protocol); err != nil {
		return fmt.Errorf("wire: measurement protocol: %w", err)
	}
	return nil
}

// Run asks the Orchestrator to execute a measurement over the given
// targets. Addresses travel in their text form on every frame that
// carries them, so a malformed one fails the frame's Decode.
type Run struct {
	Def     MeasurementDef `json:"def"`
	Targets []netip.Addr   `json:"targets"`
	// Trace is the CLI's root-span context — the origin of the
	// cross-process trace the orchestrator and workers join.
	Trace *obs.TraceContext `json:"trace,omitempty"`
}

// Targets streams a hitlist batch to a Worker.
type Targets struct {
	Base  int               `json:"base"` // index of the first address in the batch
	Addrs []netip.Addr      `json:"addrs"`
	Trace *obs.TraceContext `json:"trace,omitempty"`
}

// Result is one captured reply, matched to the measurement via the echoed
// probe identity (§4.2.2).
type Result struct {
	Measurement uint16            `json:"m"`
	Target      netip.Addr        `json:"t"`
	TxWorker    int               `json:"tx"`
	RxWorker    int               `json:"rx"`
	RTTMicros   int64             `json:"rtt_us"`
	Seq         uint64            `json:"seq,omitempty"` // MeasurementDef.Seq, echoed; cleared towards the CLI
	Trace       *obs.TraceContext `json:"trace,omitempty"`
}

// WorkerDone reports a Worker finished its probe stream.
type WorkerDone struct {
	Worker int    `json:"worker"`
	Sent   int64  `json:"sent"`
	Seq    uint64 `json:"seq,omitempty"` // MeasurementDef.Seq, echoed
}

// Complete ends a measurement towards the CLI.
type Complete struct {
	Results int64 `json:"results"`
	Workers int   `json:"workers"`
	// Skipped counts targets the orchestrator's responsible-probing
	// ledger refused to stream (opt-out or budget); omitted when no
	// governance is configured, keeping old CLIs compatible.
	Skipped int64             `json:"skipped,omitempty"`
	Trace   *obs.TraceContext `json:"trace,omitempty"`
	// TraceSpans is the assembled cross-process trace: the
	// orchestrator's own spans plus every worker batch it ingested,
	// handed back so the CLI holds the complete record.
	TraceSpans []obs.TraceSpan `json:"trace_spans,omitempty"`
}

// TraceBatch carries a component's completed spans (and the
// trace-linked tail of its flight recorder) back to the orchestrator at
// the end of its part of a measurement.
type TraceBatch struct {
	Component string            `json:"component"`
	Worker    int               `json:"worker"`
	Seq       uint64            `json:"seq,omitempty"` // MeasurementDef.Seq, echoed
	Spans     []obs.TraceSpan   `json:"spans,omitempty"`
	Events    []obs.FlightEvent `json:"events,omitempty"`
}

// ErrorMsg carries a fatal error.
type ErrorMsg struct {
	Text string `json:"text"`
}

// Stats is frame/byte accounting, by direction, for one side of the
// control plane: a Conn's own, or an Endpoint's, to which every Conn it
// wraps adds its traffic. Counters are atomic.
type Stats struct {
	frames, bytes [2]atomic.Int64 // indexed by rx, tx
}

const rx, tx = 0, 1

func (s *Stats) add(dir, size int) {
	s.frames[dir].Add(1)
	s.bytes[dir].Add(int64(size))
}

// FramesTx and FramesRx return the frames written and read; BytesTx and
// BytesRx the bytes, headers included.
func (s *Stats) FramesTx() int64 { return s.frames[tx].Load() }
func (s *Stats) FramesRx() int64 { return s.frames[rx].Load() }
func (s *Stats) BytesTx() int64  { return s.bytes[tx].Load() }
func (s *Stats) BytesRx() int64  { return s.bytes[rx].Load() }

// Conn wraps a net.Conn with framed, concurrency-safe writes and buffered
// reads. Every Conn counts its own frames and bytes (ConnStats); one made
// by an Endpoint also feeds the endpoint's shared accounting and its frame
// tap, which runs on the frame path and must not block.
type Conn struct {
	c     net.Conn
	br    *bufio.Reader
	mu    sync.Mutex // serialises writers
	stats *Stats     // the endpoint's, nil for a bare Conn
	local Stats      // always-on per-conn accounting
	tap   func(sent bool, t MsgType, bytes int)
	stop  func() bool // detaches a dialled Conn from its context
}

// ConnStats returns this connection's own frame/byte counters — the
// per-worker attribution the orchestrator reports on disconnect.
func (c *Conn) ConnStats() *Stats { return &c.local }

// NewConn wraps a transport connection.
func NewConn(c net.Conn) *Conn {
	return &Conn{c: c, br: bufio.NewReaderSize(c, readChunk)}
}

// Close closes the underlying transport.
func (c *Conn) Close() error {
	if c.stop != nil {
		c.stop()
	}
	return c.c.Close()
}

// Write sends one frame.
func (c *Conn) Write(t MsgType, v any) error {
	payload, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("wire: encoding %v: %w", t, err)
	}
	if len(payload) > MaxFrame {
		return fmt.Errorf("wire: %v frame of %d bytes exceeds limit", t, len(payload))
	}
	var hdr [5]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(len(payload)))
	hdr[4] = byte(t)
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, err := c.c.Write(hdr[:]); err != nil {
		return fmt.Errorf("wire: writing %v header: %w", t, err)
	}
	if _, err := c.c.Write(payload); err != nil {
		return fmt.Errorf("wire: writing %v payload: %w", t, err)
	}
	c.moved(tx, t, len(hdr)+len(payload))
	return nil
}

// moved accounts for one frame and shows it to the tap.
func (c *Conn) moved(dir int, t MsgType, size int) {
	c.local.add(dir, size)
	if c.stats != nil {
		c.stats.add(dir, size)
	}
	if c.tap != nil {
		c.tap(dir == tx, t, size)
	}
}

// readChunk is the read buffer's size and the first allocation for a
// frame's payload.
const readChunk = 64 << 10

// Read receives one frame. The payload buffer starts at readChunk and
// doubles as bytes actually arrive, never past the declared length: a
// header that announces 16 MB followed by nothing costs one chunk and an
// error, not 16 MB.
func (c *Conn) Read() (MsgType, json.RawMessage, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(c.br, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := int(binary.BigEndian.Uint32(hdr[:4]))
	if n > MaxFrame {
		return 0, nil, fmt.Errorf("wire: frame of %d bytes exceeds limit", n)
	}
	payload := make([]byte, min(n, readChunk))
	for got := 0; ; {
		if _, err := io.ReadFull(c.br, payload[got:]); err != nil {
			return 0, nil, fmt.Errorf("wire: reading payload: %w", err)
		}
		if got = len(payload); got == n {
			break
		}
		grown := make([]byte, got+min(got, n-got))
		copy(grown, payload)
		payload = grown
	}
	c.moved(rx, MsgType(hdr[4]), len(hdr)+n)
	return MsgType(hdr[4]), payload, nil
}

// Decode unmarshals a frame payload into T.
func Decode[T any](raw json.RawMessage) (T, error) {
	var v T
	if err := json.Unmarshal(raw, &v); err != nil {
		return v, fmt.Errorf("wire: decoding %T: %w", v, err)
	}
	return v, nil
}
