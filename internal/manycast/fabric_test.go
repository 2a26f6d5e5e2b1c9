package manycast

import (
	"testing"
	"time"

	"github.com/laces-project/laces/internal/hitlist"
	"github.com/laces-project/laces/internal/netsim"
	"github.com/laces-project/laces/internal/packet"
	"github.com/laces-project/laces/internal/rate"
	"github.com/laces-project/laces/internal/wire"
	"github.com/laces-project/laces/internal/worker"
)

// TestRunMatchesFabricProbers is the first row of the fabric oracle: the
// distributed plane's worker.SimProber decides each site's replies with
// one netsim.ProbeAnycast per probe, Run with one netsim.AnycastTrain per
// target, and the two must see the same measurement. For one world,
// deployment and start, the sites whose prober reports a reply for a
// target — each asked with its own scheduled transmit time, as the
// orchestrator's pacer would — are exactly Run's receivers for it.
func TestRunMatchesFabricProbers(t *testing.T) {
	d := tangled(t)
	// Every 8th hitlist entry keeps the 32 probers × 32 probes per target
	// to a second or so; the start 20 s before midnight puts the trains of
	// the tail across a day boundary.
	hl := &hitlist.Hitlist{V6: testHL.V6, Day: testHL.Day}
	for i := 0; i < len(testHL.Entries); i += 8 {
		hl.Entries = append(hl.Entries, testHL.Entries[i])
	}
	opts := baseOpts()
	opts.Start = netsim.DayTime(2).Add(-20 * time.Second)
	opts.Rate = 100
	probers := make([]*worker.SimProber, d.NumSites())
	for self := range probers {
		p, err := worker.NewSimProber(testWorld, d, self)
		if err != nil {
			t.Fatal(err)
		}
		probers[self] = p
	}
	pacer, err := rate.NewPacer(opts.Start, opts.Rate, opts.Offset)
	if err != nil {
		t.Fatal(err)
	}
	for _, proto := range packet.Protocols() {
		opts.Protocol = proto
		res, err := Run(testWorld, d, hl, opts)
		if err != nil {
			t.Fatal(err)
		}
		want := make(map[int]uint64, len(res.Observations))
		for _, o := range res.Observations {
			want[o.TargetID] = o.Receivers
		}
		def := wire.MeasurementDef{
			ID:       opts.MeasurementID,
			Protocol: proto.String(),
			OffsetMS: opts.Offset.Milliseconds(),
			Rate:     opts.Rate,
		}
		candidates := 0
		for i, e := range hl.FilterProtocol(proto) {
			var got uint64
			for self, p := range probers {
				replies, err := p.ProbeTarget(def, e.Addr, pacer.SendTime(i, self))
				if err != nil {
					t.Fatal(err)
				}
				if len(replies) > 0 {
					got |= 1 << uint(self)
				}
			}
			if got != want[e.TargetID] {
				t.Fatalf("%v target %d: fabric probers received at %#x, Run at %#x", proto, e.TargetID, got, want[e.TargetID])
			}
			if (TargetObs{Receivers: got}).IsCandidate() {
				candidates++
			}
		}
		if candidates == 0 {
			t.Fatalf("%v: no candidate among the compared targets — the comparison saw unicast only", proto)
		}
	}
}
