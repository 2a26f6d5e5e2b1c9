package wire

import (
	"encoding/json"
	"math"
	"net/netip"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/laces-project/laces/internal/obs"
)

// parentFrames are payloads captured from the encoder of the commit before
// addresses became netip.Addr and frames gained Seq, one per message type
// plus the zero-valued corners, next to the value they carry in today's
// types. They are the wire contract: today's decoder must read them, and
// today's encoder must write the same bytes while Seq is unset.
func parentFrames() []struct {
	typ     MsgType
	payload string
	decode  func(json.RawMessage) (any, error)
	want    any
} {
	tc := &obs.TraceContext{TraceID: 0xabc, SpanID: 0xdef}
	at := time.Date(2025, 7, 1, 12, 0, 0, 0, time.UTC)
	a4, a6, b4 := netip.MustParseAddr("192.0.2.1"), netip.MustParseAddr("2001:db8::1"), netip.MustParseAddr("198.51.100.7")
	return []struct {
		typ     MsgType
		payload string
		decode  func(json.RawMessage) (any, error)
		want    any
	}{
		{MsgHello, `{"role":"worker","name":"ams01","trace":{"trace_id":2748,"span_id":3567}}`,
			decodeAs[Hello], Hello{Role: "worker", Name: "ams01", Trace: tc}},
		{MsgHelloAck, `{"worker":3,"workers":8}`,
			decodeAs[HelloAck], HelloAck{Worker: 3, Workers: 8}},
		{MsgStart, `{"id":42,"protocol":"DNS","v6":true,"offset_ms":1000,"rate":12500.5,"zone":"example.org","trace":{"trace_id":2748,"span_id":3567}}`,
			decodeAs[MeasurementDef], MeasurementDef{ID: 42, Protocol: "DNS", V6: true, OffsetMS: 1000, Rate: 12500.5, Zone: "example.org", Trace: tc}},
		{MsgTargets, `{"base":2000,"addrs":["192.0.2.1","2001:db8::1","198.51.100.7"],"trace":{"trace_id":2748,"span_id":3567}}`,
			decodeAs[Targets], Targets{Base: 2000, Addrs: []netip.Addr{a4, a6, b4}, Trace: tc}},
		{MsgEndTargets, `{}`,
			decodeAs[struct{}], struct{}{}},
		{MsgResult, `{"m":42,"t":"2001:db8::1","tx":3,"rx":5,"rtt_us":18250,"trace":{"trace_id":2748,"span_id":3567}}`,
			decodeAs[Result], Result{Measurement: 42, Target: a6, TxWorker: 3, RxWorker: 5, RTTMicros: 18250, Trace: tc}},
		{MsgWorkerDone, `{"worker":3,"sent":2999}`,
			decodeAs[WorkerDone], WorkerDone{Worker: 3, Sent: 2999}},
		{MsgComplete, `{"results":7,"workers":8,"skipped":2,"trace":{"trace_id":2748,"span_id":3567},"trace_spans":[{"trace_id":2748,"span_id":1,"parent":3567,"component":"orchestrator","name":"stream","start":"2025-07-01T12:00:00Z","seconds":0.25,"attrs":[{"name":"streamed","value":"3000"}]}]}`,
			decodeAs[Complete], Complete{Results: 7, Workers: 8, Skipped: 2, Trace: tc, TraceSpans: []obs.TraceSpan{{TraceID: 0xabc, SpanID: 1, Parent: 0xdef, Component: "orchestrator", Name: "stream", Start: at, Seconds: 0.25, Attrs: []obs.Label{{Name: "streamed", Value: "3000"}}}}}},
		{MsgError, `{"text":"orchestrator: no workers connected"}`,
			decodeAs[ErrorMsg], ErrorMsg{Text: "orchestrator: no workers connected"}},
		{MsgRun, `{"def":{"id":42,"protocol":"ICMP","v6":false,"offset_ms":1000,"rate":10000},"targets":["192.0.2.1","2001:db8::1"],"trace":{"trace_id":2748,"span_id":3567}}`,
			decodeAs[Run], Run{Def: MeasurementDef{ID: 42, Protocol: "ICMP", OffsetMS: 1000, Rate: 10000}, Targets: []netip.Addr{a4, a6}, Trace: tc}},
		{MsgTrace, `{"component":"worker-ams01","worker":3,"events":[{"at":"2025-07-01T12:00:00Z","component":"worker-ams01","kind":"frame_rx","name":"start","trace_id":2748,"span_id":3567,"n":120}]}`,
			decodeAs[TraceBatch], TraceBatch{Component: "worker-ams01", Worker: 3, Events: []obs.FlightEvent{{At: at, Component: "worker-ams01", Kind: "frame_rx", Name: "start", TraceID: 0xabc, SpanID: 0xdef, N: 120}}}},
		{MsgResult, `{"m":1,"t":"","tx":0,"rx":0,"rtt_us":0}`,
			decodeAs[Result], Result{Measurement: 1}},
		{MsgRun, `{"def":{"id":1,"protocol":"ICMP","v6":false,"offset_ms":0,"rate":0},"targets":null}`,
			decodeAs[Run], Run{Def: MeasurementDef{ID: 1, Protocol: "ICMP"}}},
	}
}

func decodeAs[T any](raw json.RawMessage) (any, error) { return Decode[T](raw) }

func TestParentFramesStayCompatible(t *testing.T) {
	for _, f := range parentFrames() {
		got, err := f.decode(json.RawMessage(f.payload))
		if err != nil {
			t.Errorf("%v: parent frame no longer decodes: %v", f.typ, err)
			continue
		}
		if !reflect.DeepEqual(got, f.want) {
			t.Errorf("%v: decoded %+v, want %+v", f.typ, got, f.want)
		}
		if enc, err := json.Marshal(f.want); err != nil || string(enc) != f.payload {
			t.Errorf("%v: encodes as\n%s\nthe parent wrote\n%s (%v)", f.typ, enc, f.payload, err)
		}
	}
}

// TestSeqIsAdditive: the sequence number appears on the wire only when
// set, under one name on every frame that echoes it.
func TestSeqIsAdditive(t *testing.T) {
	for _, v := range []any{MeasurementDef{Seq: 9}, Result{Seq: 9}, WorkerDone{Seq: 9}, TraceBatch{Seq: 9}} {
		enc, _ := json.Marshal(v)
		if !strings.Contains(string(enc), `"seq":9`) {
			t.Errorf("%T does not carry seq: %s", v, enc)
		}
	}
}

// TestMalformedAddressFailsDecode: an address is checked once, where the
// frame is decoded.
func TestMalformedAddressFailsDecode(t *testing.T) {
	for _, tc := range []struct {
		decode  func(json.RawMessage) (any, error)
		payload string
	}{
		{decodeAs[Run], `{"def":{"id":1},"targets":["192.0.2.1","192.0.2"]}`},
		{decodeAs[Targets], `{"base":0,"addrs":["not-an-address"]}`},
		{decodeAs[Result], `{"m":1,"t":"1.2.3.4.5"}`},
	} {
		if v, err := tc.decode(json.RawMessage(tc.payload)); err == nil {
			t.Errorf("%s decoded as %+v", tc.payload, v)
		}
	}
}

func TestMeasurementDefValidate(t *testing.T) {
	good := MeasurementDef{ID: 1, Protocol: "TCP", OffsetMS: 0, Rate: 0.5}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid definition rejected: %v", err)
	}
	for _, tc := range []struct {
		edit func(*MeasurementDef)
		want string
	}{
		{func(d *MeasurementDef) { d.Rate = 0 }, "rate"},
		{func(d *MeasurementDef) { d.Rate = -1 }, "rate"},
		{func(d *MeasurementDef) { d.Rate = math.NaN() }, "rate"},
		{func(d *MeasurementDef) { d.Rate = math.Inf(1) }, "rate"},
		{func(d *MeasurementDef) { d.Rate = math.Inf(-1) }, "rate"},
		{func(d *MeasurementDef) { d.OffsetMS = -5 }, "offset_ms"},
		{func(d *MeasurementDef) { d.Protocol = "" }, "protocol"},
		{func(d *MeasurementDef) { d.Protocol = "QUIC" }, "protocol"},
	} {
		def := good
		tc.edit(&def)
		if err := def.Validate(); err == nil || !strings.Contains(err.Error(), "measurement "+tc.want) {
			t.Errorf("%+v: error %v does not name %s", def, err, tc.want)
		}
	}
}
