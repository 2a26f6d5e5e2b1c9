package gcdmeas

import (
	"testing"

	"github.com/laces-project/laces/internal/netsim"
	"github.com/laces-project/laces/internal/packet"
	"github.com/laces-project/laces/internal/platform"
)

// The paper excludes DNS from GCD measurements "due to the possible
// jitter introduced by DNS request processing by the target that may
// inflate captured latency and affect the detection algorithm" (§4.3),
// while §8 names GCD-over-DNS as intended future work. These tests
// implement that extension and quantify the §4.3 trade-off: DNS-based GCD
// still detects anycast, but processing jitter inflates disc radii and
// costs enumeration resolution.

// dnsAnycastIDs returns wide anycast targets responsive to both ICMP and
// DNS.
func dnsAnycastIDs(n int) []int {
	var ids []int
	for i := range testWorld.NumTargets(false) {
		tg := testWorld.TargetAt(false, i)
		if tg.Kind == netsim.Anycast && len(tg.Sites) >= 25 && tg.AnycastBornDay == 0 &&
			tg.Responsive[packet.ICMP] && tg.Responsive[packet.DNS] {
			ids = append(ids, tg.ID)
			if len(ids) == n {
				break
			}
		}
	}
	return ids
}

func TestDNSGCDDetectsButEnumeratesFewer(t *testing.T) {
	ids := dnsAnycastIDs(25)
	if len(ids) < 10 {
		t.Skip("too few ICMP+DNS anycast targets in test world")
	}
	vps, err := platform.Ark(testWorld, 400, false)
	if err != nil {
		t.Fatal(err)
	}
	at := netsim.DayTime(400)
	icmp := Run(testWorld, ids, false, Campaign{VPs: vps, Proto: packet.ICMP, At: at})
	dns := Run(testWorld, ids, false, Campaign{VPs: vps, Proto: packet.DNS, At: at})

	var icmpSites, dnsSites, dnsDetected int
	for _, id := range ids {
		icmpSites += icmp.Outcomes[id].Result.NumSites()
		o := dns.Outcomes[id]
		dnsSites += o.Result.NumSites()
		if o.Result.Anycast {
			dnsDetected++
		}
	}
	// DNS GCD still works as a detector for wide deployments...
	if dnsDetected < len(ids)*3/4 {
		t.Fatalf("DNS GCD detected only %d of %d wide anycast targets", dnsDetected, len(ids))
	}
	// ...but enumerates strictly fewer sites than ICMP on the same VPs:
	// DNS processing jitter inflates disc radii, merging nearby sites —
	// the §4.3 rationale, quantified.
	if dnsSites >= icmpSites {
		t.Fatalf("DNS enumeration (%d sites) should trail ICMP (%d sites)", dnsSites, icmpSites)
	}
}

func TestDNSGCDNeverConfirmsUnicast(t *testing.T) {
	// Jitter inflates radii, so it can only *hide* violations, never
	// manufacture them: unicast stays unicast under DNS GCD.
	var ids []int
	for i := range testWorld.NumTargets(false) {
		tg := testWorld.TargetAt(false, i)
		if tg.Kind == netsim.Unicast && len(tg.TempWindows) == 0 && tg.Responsive[packet.DNS] {
			ids = append(ids, tg.ID)
			if len(ids) == 150 {
				break
			}
		}
	}
	vps, _ := platform.Ark(testWorld, 400, false)
	rep := Run(testWorld, ids, false, Campaign{VPs: vps, Proto: packet.DNS, At: netsim.DayTime(400)})
	if n := len(rep.Anycast()); n != 0 {
		t.Fatalf("DNS GCD confirmed %d unicast targets", n)
	}
}

// BenchmarkDNSGCDAblation times the future-work DNS-GCD path against the
// production ICMP path on identical targets and VPs.
func BenchmarkDNSGCDAblation(b *testing.B) {
	ids := dnsAnycastIDs(20)
	if len(ids) == 0 {
		b.Skip("no suitable targets")
	}
	vps, _ := platform.Ark(testWorld, 400, false)
	at := netsim.DayTime(400)
	b.Run("ICMP", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			Run(testWorld, ids, false, Campaign{VPs: vps, Proto: packet.ICMP, At: at})
		}
	})
	b.Run("DNS", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			Run(testWorld, ids, false, Campaign{VPs: vps, Proto: packet.DNS, At: at})
		}
	})
}
