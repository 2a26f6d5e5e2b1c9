package wire

import (
	"net"
	"net/netip"
	"strings"
	"testing"
	"testing/quick"
)

// pipePair returns two framed connections talking over an in-memory pipe.
func pipePair() (*Conn, *Conn) {
	a, b := net.Pipe()
	return NewConn(a), NewConn(b)
}

func TestRoundTripMessages(t *testing.T) {
	a, b := pipePair()
	defer a.Close()
	defer b.Close()

	go func() {
		_ = a.Write(MsgHello, Hello{Role: "worker", Name: "ams01"})
		_ = a.Write(MsgResult, Result{Measurement: 7, Target: netip.MustParseAddr("192.0.2.1"), TxWorker: 3, RxWorker: 9, RTTMicros: 1500})
	}()

	typ, raw, err := b.Read()
	if err != nil || typ != MsgHello {
		t.Fatalf("read 1: %v %v", typ, err)
	}
	h, err := Decode[Hello](raw)
	if err != nil || h.Role != "worker" || h.Name != "ams01" {
		t.Fatalf("hello decode: %+v %v", h, err)
	}

	typ, raw, err = b.Read()
	if err != nil || typ != MsgResult {
		t.Fatalf("read 2: %v %v", typ, err)
	}
	r, err := Decode[Result](raw)
	if err != nil || r.Measurement != 7 || r.RxWorker != 9 || r.RTTMicros != 1500 {
		t.Fatalf("result decode: %+v %v", r, err)
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(m uint16, tx, rx uint8, rtt int64) bool {
		a, b := pipePair()
		defer a.Close()
		defer b.Close()
		want := Result{Measurement: m, Target: netip.MustParseAddr("10.0.0.1"), TxWorker: int(tx), RxWorker: int(rx), RTTMicros: rtt}
		go func() { _ = a.Write(MsgResult, want) }()
		typ, raw, err := b.Read()
		if err != nil || typ != MsgResult {
			return false
		}
		got, err := Decode[Result](raw)
		return err == nil && got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentWritersDoNotInterleave(t *testing.T) {
	a, b := pipePair()
	defer a.Close()
	defer b.Close()

	const n = 100
	go func() {
		done := make(chan struct{})
		for g := 0; g < 4; g++ {
			go func(g int) {
				for i := 0; i < n; i++ {
					_ = a.Write(MsgResult, Result{Measurement: uint16(g), TxWorker: i})
				}
				done <- struct{}{}
			}(g)
		}
		for g := 0; g < 4; g++ {
			<-done
		}
	}()

	for i := 0; i < 4*n; i++ {
		typ, raw, err := b.Read()
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if typ != MsgResult {
			t.Fatalf("frame %d corrupted: type %v", i, typ)
		}
		if _, err := Decode[Result](raw); err != nil {
			t.Fatalf("frame %d corrupted: %v", i, err)
		}
	}
}

func TestLargeBatch(t *testing.T) {
	a, b := pipePair()
	defer a.Close()
	defer b.Close()
	batch := Targets{Base: 0}
	for i := 0; i < 10000; i++ {
		batch.Addrs = append(batch.Addrs, netip.MustParseAddr("198.51.100.7"))
	}
	go func() { _ = a.Write(MsgTargets, batch) }()
	typ, raw, err := b.Read()
	if err != nil || typ != MsgTargets {
		t.Fatal(err)
	}
	got, err := Decode[Targets](raw)
	if err != nil || len(got.Addrs) != 10000 {
		t.Fatalf("batch decode: %d addrs, %v", len(got.Addrs), err)
	}
}

func TestOversizeFrameRejected(t *testing.T) {
	a, b := net.Pipe()
	ca := NewConn(a)
	defer ca.Close()
	defer b.Close()
	go func() {
		// Hand-craft a frame header declaring an absurd length.
		_, _ = b.Write([]byte{0xff, 0xff, 0xff, 0xff, byte(MsgHello)})
	}()
	if _, _, err := ca.Read(); err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("oversize frame not rejected: %v", err)
	}
}

func TestDecodeError(t *testing.T) {
	if _, err := Decode[Result]([]byte(`{"m": "not-a-number"}`)); err == nil {
		t.Fatal("bad payload should fail to decode")
	}
}

func TestMsgTypeStrings(t *testing.T) {
	for _, typ := range []MsgType{MsgHello, MsgHelloAck, MsgStart, MsgTargets,
		MsgEndTargets, MsgResult, MsgWorkerDone, MsgComplete, MsgError, MsgRun} {
		if strings.HasPrefix(typ.String(), "MsgType(") {
			t.Errorf("message type %d has no name", typ)
		}
	}
	if MsgType(200).String() != "MsgType(200)" {
		t.Error("unknown type formatting")
	}
}
