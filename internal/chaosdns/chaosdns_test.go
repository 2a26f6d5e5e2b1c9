package chaosdns

import (
	"testing"

	"github.com/laces-project/laces/internal/hitlist"
	"github.com/laces-project/laces/internal/netsim"
	"github.com/laces-project/laces/internal/packet"
	"github.com/laces-project/laces/internal/platform"
)

var (
	testWorld  = mustWorld()
	testHL     = hitlist.ForDay(testWorld, false, 0)
	testCensus = mustCensus()
)

func mustWorld() *netsim.World {
	w, err := netsim.New(netsim.TestConfig())
	if err != nil {
		panic(err)
	}
	return w
}

func mustCensus() map[int]Observation {
	d, err := platform.Tangled(testWorld, netsim.PolicyUnmodified)
	if err != nil {
		panic(err)
	}
	obs, _ := Census(testWorld, d, testHL, netsim.DayTime(40), nil, 1, nil)
	return obs
}

func TestCensusCoversDNSHitlist(t *testing.T) {
	dns := testHL.FilterProtocol(packet.DNS)
	if len(testCensus) != len(dns) {
		t.Fatalf("census covers %d of %d DNS entries", len(testCensus), len(dns))
	}
}

func TestPerSiteRecordsEnumerateSites(t *testing.T) {
	// Anycast nameservers with per-site CHAOS records should show several
	// distinct identities across the 32 workers.
	found := false
	for id, obs := range testCensus {
		tg := testWorld.TargetAt(false, id)
		if tg.Chaos != netsim.ChaosPerSite || !tg.IsAnycastAt(40) || len(tg.Sites) < 8 {
			continue
		}
		found = true
		if !obs.Supported {
			t.Fatalf("per-site CHAOS target %d reported unsupported", id)
		}
		if obs.UniqueRecords() < 2 {
			t.Errorf("wide anycast NS %d returned %d unique records", id, obs.UniqueRecords())
		}
		// Enumeration is bounded by the true site count.
		if obs.UniqueRecords() > len(tg.Sites) {
			t.Errorf("NS %d: %d records > %d sites", id, obs.UniqueRecords(), len(tg.Sites))
		}
	}
	if !found {
		t.Fatal("no wide per-site CHAOS nameservers in test world")
	}
}

func TestCoLocatedServersConfoundChaos(t *testing.T) {
	// Appendix C: unicast nameservers with co-located load-balanced
	// servers return multiple distinct records — a false anycast signal.
	confounded := 0
	for id, obs := range testCensus {
		tg := testWorld.TargetAt(false, id)
		if tg.Chaos == netsim.ChaosPerServer && tg.Kind == netsim.Unicast && obs.MultiRecord() {
			confounded++
		}
	}
	if confounded == 0 {
		t.Fatal("no co-located multi-record unicast nameservers — the Appendix C confounder is missing")
	}
}

func TestReplicatedRecordsSingle(t *testing.T) {
	for id, obs := range testCensus {
		tg := testWorld.TargetAt(false, id)
		if tg.Chaos == netsim.ChaosReplicated && obs.Supported && obs.UniqueRecords() != 1 {
			t.Fatalf("replicated-record NS %d returned %d records", id, obs.UniqueRecords())
		}
	}
}

func TestUnsupportedNameservers(t *testing.T) {
	s := Summarize(testCensus)
	if s.Probed == 0 {
		t.Fatal("nothing probed")
	}
	if s.Unsupported == 0 {
		t.Fatal("every nameserver supports CHAOS — RFC 4892 optionality not modelled")
	}
	if s.MultiRecord == 0 {
		t.Fatal("no multi-record nameservers")
	}
	if s.MultiRecord+s.Unsupported > s.Probed {
		t.Fatal("summary counts inconsistent")
	}
}

func TestGRootDetectableOnlyViaDNS(t *testing.T) {
	// §6: G-Root answers neither ICMP nor TCP; the CHAOS/DNS path is the
	// only way to see it.
	gi := testWorld.OperatorByName("G-Root")
	asn := testWorld.Operators[gi].ASN
	seen := false
	for id, obs := range testCensus {
		if testWorld.TargetAt(false, id).Origin == asn && obs.Supported {
			seen = true
		}
	}
	if !seen {
		t.Fatal("G-Root invisible to the DNS census")
	}
}
