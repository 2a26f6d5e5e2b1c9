package wire

import (
	"bytes"
	"context"
	"net"
	"strings"
	"testing"
	"time"

	"github.com/laces-project/laces/internal/obs"
)

// TestEndpointObservesItsConns: every connection an endpoint wraps feeds
// the one set of laces_wire_* series and the one flight recorder, and a
// dump names its reason and the current trace.
func TestEndpointObservesItsConns(t *testing.T) {
	reg := obs.New()
	var sink bytes.Buffer
	ep := NewEndpoint(reg, "tester", 64, &sink)
	if reg.TraceComponent() != "tester" {
		t.Fatalf("trace component = %q", reg.TraceComponent())
	}
	tc := &obs.TraceContext{TraceID: 7, SpanID: 9}
	ep.SetTrace(tc)

	for range 2 { // two connections, one accounting
		a, b := net.Pipe()
		ca, cb := ep.Wrap(a), NewConn(b)
		go func() { _ = cb.Write(MsgHelloAck, HelloAck{Worker: 1}) }()
		if typ, _, err := ca.Read(); err != nil || typ != MsgHelloAck {
			t.Fatalf("read: %v %v", typ, err)
		}
		go func() { _, _, _ = cb.Read() }()
		if err := ca.Write(MsgWorkerDone, WorkerDone{Worker: 1}); err != nil {
			t.Fatal(err)
		}
		if got := ca.ConnStats().FramesTx(); got != 1 {
			t.Fatalf("per-conn frames tx = %d, want 1", got)
		}
		ca.Close()
		cb.Close()
	}

	series := map[string]float64{}
	for _, m := range reg.Snapshot().Metrics {
		if strings.HasPrefix(m.Name, "laces_wire_") {
			series[m.Name+"/"+m.Labels[0].Value] = m.Value
		}
	}
	if len(series) != 4 || series["laces_wire_frames_total/tx"] != 2 || series["laces_wire_frames_total/rx"] != 2 ||
		series["laces_wire_bytes_total/tx"] == 0 || series["laces_wire_bytes_total/rx"] == 0 {
		t.Fatalf("laces_wire_* series: %v", series)
	}

	ep.Record("error", "boom", 3)
	if err := ep.Dump("test_trigger"); err != nil {
		t.Fatal(err)
	}
	kinds := map[string]int{}
	for _, ev := range ep.Flight().Snapshot() {
		kinds[ev.Kind]++
		if ev.TraceID != tc.TraceID {
			t.Fatalf("event %+v is not linked to the current trace", ev)
		}
	}
	if kinds["frame_tx"] != 2 || kinds["frame_rx"] != 2 || kinds["error"] != 1 || kinds["flight_dump"] != 1 {
		t.Fatalf("flight events: %v", kinds)
	}
	if !strings.Contains(sink.String(), `"kind":"flight_dump","name":"test_trigger"`) {
		t.Fatalf("dump does not name its trigger:\n%s", sink.String())
	}
}

// TestEndpointDialTearsDownWithContext: a Read blocked on a dialled
// connection returns when the context ends — on the zero Endpoint too,
// which observes nothing and dumps nowhere.
func TestEndpointDialTearsDownWithContext(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		if nc, err := ln.Accept(); err == nil {
			defer nc.Close()
			time.Sleep(5 * time.Second) // never speaks
		}
	}()
	ctx, cancel := context.WithCancel(context.Background())
	ep := new(Endpoint)
	conn, err := ep.Dial(ctx, nil, ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	time.AfterFunc(50*time.Millisecond, cancel)
	done := make(chan error, 1)
	go func() { _, _, err := conn.Read(); done <- err }()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("read on a torn-down connection succeeded")
		}
	case <-time.After(3 * time.Second):
		t.Fatal("read still blocked after the context ended")
	}
	ep.Record("error", "nowhere", 0)
	if err := ep.Dump("nothing"); err != nil {
		t.Fatal(err)
	}
}
