package worker

import (
	"net/netip"
	"reflect"
	"testing"
	"time"

	"github.com/laces-project/laces/internal/netsim"
	"github.com/laces-project/laces/internal/packet"
	"github.com/laces-project/laces/internal/wire"
)

var (
	testWorld = mustWorld()
	testDep   = mustDep()
)

func mustWorld() *netsim.World {
	cfg := netsim.TestConfig()
	cfg.V4Targets = 3000
	cfg.V6Targets = 800
	cfg.NumASes = 150
	w, err := netsim.New(cfg)
	if err != nil {
		panic(err)
	}
	return w
}

func mustDep() *netsim.Deployment {
	d, err := testWorld.NewDeployment("prober-test",
		[]string{"Amsterdam", "New York", "Tokyo", "Sydney", "Sao Paulo", "Johannesburg"},
		netsim.PolicyUnmodified)
	if err != nil {
		panic(err)
	}
	return d
}

func TestNewSimProberValidatesSite(t *testing.T) {
	if _, err := NewSimProber(testWorld, testDep, -1); err == nil {
		t.Fatal("negative site accepted")
	}
	if _, err := NewSimProber(testWorld, testDep, testDep.NumSites()); err == nil {
		t.Fatal("out-of-range site accepted")
	}
	if _, err := NewSimProber(testWorld, testDep, 0); err != nil {
		t.Fatal(err)
	}
}

// workerUnion probes a target from every worker site and unions the
// replies each one captures.
func workerUnion(t *testing.T, def wire.MeasurementDef, tg *netsim.Target) map[int]bool {
	t.Helper()
	now := time.Now()
	recv := map[int]bool{}
	for self := 0; self < testDep.NumSites(); self++ {
		p, err := NewSimProber(testWorld, testDep, self)
		if err != nil {
			t.Fatal(err)
		}
		replies, err := p.ProbeTarget(def, tg.Addr, now)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range replies {
			if r.TxWorker < 0 || r.TxWorker >= testDep.NumSites() {
				t.Fatalf("identity recovered out-of-range TxWorker %d", r.TxWorker)
			}
			if r.RTT <= 0 {
				t.Fatal("non-positive RTT")
			}
			recv[self] = true
		}
	}
	return recv
}

// protoTargets returns a responsive target of each interesting kind for a
// protocol.
func protoTargets(proto packet.Protocol) (anycast, unicast *netsim.Target) {
	for i := range testWorld.NumTargets(false) {
		tg := testWorld.TargetAt(false, i)
		if !tg.Responsive[proto] {
			continue
		}
		switch {
		case anycast == nil && tg.Kind == netsim.Anycast && len(tg.Sites) >= 20 && tg.AnycastBornDay == 0:
			anycast = tg
		case unicast == nil && tg.Kind == netsim.Unicast && len(tg.TempWindows) == 0:
			if a, ok := testWorld.ASByNumber(tg.Origin); ok && !a.TieSplit && !a.Wobbly && !a.Drifty {
				unicast = tg
			}
		}
		if anycast != nil && unicast != nil {
			return
		}
	}
	return
}

func TestProbeTargetAllProtocols(t *testing.T) {
	// Every protocol's reply must round-trip through the real codecs and
	// recover worker identities; anycast targets surface at multiple
	// sites, clean unicast at exactly one.
	for _, proto := range []string{"ICMP", "TCP", "DNS"} {
		p, _ := packet.ParseProtocol(proto)
		anycast, unicast := protoTargets(p)
		if anycast == nil || unicast == nil {
			t.Fatalf("%s: no suitable sample targets", proto)
		}
		def := wire.MeasurementDef{ID: 5, Protocol: proto, OffsetMS: 1000}
		if got := workerUnion(t, def, anycast); len(got) < 2 {
			t.Errorf("%s: wide anycast target captured at %d sites", proto, len(got))
		}
		if got := workerUnion(t, def, unicast); len(got) != 1 {
			t.Errorf("%s: clean unicast captured at %d sites", proto, len(got))
		}
	}
}

func TestProbeTargetTotalConservation(t *testing.T) {
	// Summed over all workers, captured replies equal the number of
	// probes the target answered: the distributed computation partitions
	// the reply stream exactly (no loss, no duplication).
	anycast, _ := protoTargets(packet.ICMP)
	def := wire.MeasurementDef{ID: 6, Protocol: "ICMP", OffsetMS: 1000}
	now := time.Now()
	total := 0
	for self := 0; self < testDep.NumSites(); self++ {
		p, _ := NewSimProber(testWorld, testDep, self)
		replies, err := p.ProbeTarget(def, anycast.Addr, now)
		if err != nil {
			t.Fatal(err)
		}
		total += len(replies)
	}
	if total != testDep.NumSites() {
		t.Fatalf("captured %d replies for %d probes", total, testDep.NumSites())
	}
}

func TestProbeTargetUnknownAddress(t *testing.T) {
	p, _ := NewSimProber(testWorld, testDep, 0)
	def := wire.MeasurementDef{ID: 7, Protocol: "ICMP"}
	// An address outside the simulated world yields silence, not error.
	replies, err := p.ProbeTarget(def, netip.MustParseAddr("203.0.113.99"), time.Now())
	if err != nil || len(replies) != 0 {
		t.Fatalf("unknown address: %v, %d replies", err, len(replies))
	}
}

// answering returns a target of def's family whose representative
// address answers def's probe at prober p's site, with the replies it gets.
func answering(t *testing.T, p *SimProber, def wire.MeasurementDef, at time.Time) (*netsim.Target, []Reply) {
	t.Helper()
	for i := range testWorld.NumTargets(def.V6) {
		tg := testWorld.TargetAt(def.V6, i)
		if tg.Addr == tg.Prefix.Addr() {
			continue // the silence test needs a covered, non-representative address
		}
		replies, err := p.ProbeTarget(def, tg.Addr, at)
		if err != nil {
			t.Fatal(err)
		}
		if len(replies) > 0 {
			return tg, replies
		}
	}
	t.Fatalf("v6=%v: no target answers at site %d", def.V6, p.Self)
	return nil, nil
}

// TestProbeTargetSilence pins which addresses answer: only a target's
// representative address, under a definition of its own family. A
// covered but non-representative address, an unrouted address, and a
// representative address under the other family's definition are silent
// (no replies, no error). One prober alternating IPv4 and IPv6
// definitions answers both, as fresh probers do.
func TestProbeTargetSilence(t *testing.T) {
	at := time.Date(2024, 3, 1, 12, 0, 0, 0, time.UTC)
	fresh := func() *SimProber {
		p, err := NewSimProber(testWorld, testDep, 0)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	p := fresh()
	for _, v6 := range []bool{false, true, false, true} {
		def := wire.MeasurementDef{ID: 9, Protocol: "ICMP", OffsetMS: 1000, V6: v6}
		tg, want := answering(t, fresh(), def, at)
		if got, err := p.ProbeTarget(def, tg.Addr, at); err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("v6=%v: alternating prober got %v (err %v) from target %d, a fresh one %v", v6, got, err, tg.ID, want)
		}
		other := def
		other.V6 = !v6
		for _, c := range []struct {
			what string
			def  wire.MeasurementDef
			addr netip.Addr
		}{
			{"covered, non-representative address", def, tg.Prefix.Addr()},
			{"unrouted address", def, netip.MustParseAddr(map[bool]string{false: "240.0.0.1", true: "fe80::1"}[v6])},
			{"representative address, other family's definition", other, tg.Addr},
		} {
			if got, err := p.ProbeTarget(c.def, c.addr, at); got != nil || err != nil {
				t.Errorf("v6=%v %s %s: got %v, err %v; want silence", v6, c.what, c.addr, got, err)
			}
		}
	}
}

func TestProbeTargetBadProtocol(t *testing.T) {
	p, _ := NewSimProber(testWorld, testDep, 0)
	def := wire.MeasurementDef{ID: 8, Protocol: "QUIC"}
	if _, err := p.ProbeTarget(def, testWorld.TargetAt(false, 0).Addr, time.Now()); err == nil {
		t.Fatal("unknown protocol accepted")
	}
}

func TestWorkerConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
	if _, err := New(Config{Orchestrator: "x:1"}); err == nil {
		t.Fatal("missing prober factory accepted")
	}
	w, err := New(Config{Orchestrator: "x:1", NewProber: func(int) (Prober, error) { return nil, nil }})
	if err != nil || w == nil {
		t.Fatal(err)
	}
}
