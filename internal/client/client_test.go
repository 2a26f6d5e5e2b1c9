package client

import (
	"bytes"
	"context"
	"net"
	"net/netip"
	"strings"
	"testing"
	"time"

	"github.com/laces-project/laces/internal/wire"
)

var addr = netip.MustParseAddr

func sampleOutcome() *Outcome {
	return &Outcome{
		Workers: 4,
		Results: []wire.Result{
			{Measurement: 1, Target: addr("1.0.0.1"), TxWorker: 0, RxWorker: 0, RTTMicros: 900},
			{Measurement: 1, Target: addr("1.0.0.1"), TxWorker: 1, RxWorker: 0, RTTMicros: 1100},
			{Measurement: 1, Target: addr("1.0.1.1"), TxWorker: 0, RxWorker: 0, RTTMicros: 500},
			{Measurement: 1, Target: addr("1.0.1.1"), TxWorker: 1, RxWorker: 2, RTTMicros: 700},
			{Measurement: 1, Target: addr("1.0.1.1"), TxWorker: 2, RxWorker: 3, RTTMicros: 800},
		},
	}
}

func TestReceiverSets(t *testing.T) {
	sets := sampleOutcome().ReceiverSets()
	if len(sets[addr("1.0.0.1")]) != 1 {
		t.Fatalf("unicast target receiver set: %v", sets[addr("1.0.0.1")])
	}
	if len(sets[addr("1.0.1.1")]) != 3 {
		t.Fatalf("anycast target receiver set: %v", sets[addr("1.0.1.1")])
	}
}

func TestCandidates(t *testing.T) {
	cands := sampleOutcome().Candidates()
	if len(cands) != 1 || cands[0] != addr("1.0.1.1") {
		t.Fatalf("candidates = %v", cands)
	}
}

func TestWriteCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := sampleOutcome().WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 6 {
		t.Fatalf("CSV lines = %d", len(lines))
	}
	if lines[0] != "target,tx_worker,rx_worker,rtt_us" {
		t.Fatalf("header: %s", lines[0])
	}
	if !strings.HasPrefix(lines[1], "1.0.0.1,0,0,900") {
		t.Fatalf("row: %s", lines[1])
	}
}

// fakeOrchestrator speaks just enough of the protocol to exercise the
// client's framing, error and completion paths.
func fakeOrchestrator(t *testing.T, script func(*wire.Conn)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		conn := wire.NewConn(nc)
		defer conn.Close()
		// Consume hello + run.
		if typ, _, err := conn.Read(); err != nil || typ != wire.MsgHello {
			return
		}
		if typ, _, err := conn.Read(); err != nil || typ != wire.MsgRun {
			return
		}
		script(conn)
	}()
	return ln.Addr().String()
}

func TestRunCollectsResultsAndComplete(t *testing.T) {
	addr := fakeOrchestrator(t, func(conn *wire.Conn) {
		_ = conn.Write(wire.MsgResult, wire.Result{Measurement: 9, Target: addr("1.2.3.4"), RxWorker: 1, RTTMicros: 42})
		_ = conn.Write(wire.MsgResult, wire.Result{Measurement: 9, Target: addr("1.2.3.4"), RxWorker: 2, RTTMicros: 43})
		_ = conn.Write(wire.MsgComplete, wire.Complete{Results: 2, Workers: 3})
	})
	cli := &Client{Addr: addr}
	streamed := 0
	out, err := cli.Run(context.Background(), wire.MeasurementDef{ID: 9, Protocol: "ICMP"},
		[]netip.Addr{netip.MustParseAddr("1.2.3.4")}, func(wire.Result) { streamed++ })
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 2 || out.Workers != 3 || streamed != 2 {
		t.Fatalf("outcome: %d results, %d workers, %d streamed", len(out.Results), out.Workers, streamed)
	}
}

func TestRunPropagatesOrchestratorError(t *testing.T) {
	addr := fakeOrchestrator(t, func(conn *wire.Conn) {
		_ = conn.Write(wire.MsgError, wire.ErrorMsg{Text: "no workers connected"})
	})
	cli := &Client{Addr: addr}
	_, err := cli.Run(context.Background(), wire.MeasurementDef{ID: 1, Protocol: "ICMP"}, nil, nil)
	if err == nil || !strings.Contains(err.Error(), "no workers connected") {
		t.Fatalf("err = %v", err)
	}
}

func TestRunHonoursContextCancel(t *testing.T) {
	addr := fakeOrchestrator(t, func(conn *wire.Conn) {
		time.Sleep(5 * time.Second) // never answer
	})
	cli := &Client{Addr: addr}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if _, err := cli.Run(ctx, wire.MeasurementDef{ID: 1, Protocol: "ICMP"}, nil, nil); err == nil {
		t.Fatal("cancelled run should fail")
	}
}

func TestRunDialFailure(t *testing.T) {
	cli := &Client{Addr: "127.0.0.1:1"} // nothing listening
	if _, err := cli.Run(context.Background(), wire.MeasurementDef{}, nil, nil); err == nil {
		t.Fatal("dial failure should propagate")
	}
}

func TestRunOrchestratorDiesMidStream(t *testing.T) {
	// The orchestrator delivers part of the result stream and then the
	// connection drops (process crash, network partition). The client
	// must surface an error rather than returning a silently truncated
	// outcome or hanging.
	addr := fakeOrchestrator(t, func(conn *wire.Conn) {
		_ = conn.Write(wire.MsgResult, wire.Result{Measurement: 4, Target: addr("1.2.3.4"), RxWorker: 1, RTTMicros: 10})
		conn.Close() // abrupt death before MsgComplete
	})
	cli := &Client{Addr: addr}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_, err := cli.Run(ctx, wire.MeasurementDef{ID: 4, Protocol: "ICMP"},
		[]netip.Addr{netip.MustParseAddr("1.2.3.4")}, nil)
	if err == nil {
		t.Fatal("mid-stream orchestrator death must be reported as an error")
	}
	if ctx.Err() != nil {
		t.Fatal("client hung until the test deadline instead of failing fast")
	}
}

func TestRunGarbageFrame(t *testing.T) {
	// A protocol violation (unknown message type) must fail the run.
	addr := fakeOrchestrator(t, func(conn *wire.Conn) {
		_ = conn.Write(wire.MsgType(250), wire.Complete{})
	})
	cli := &Client{Addr: addr}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := cli.Run(ctx, wire.MeasurementDef{ID: 4, Protocol: "ICMP"}, nil, nil); err == nil {
		t.Fatal("unknown frame type accepted")
	}
}
