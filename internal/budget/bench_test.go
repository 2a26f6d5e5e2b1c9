package budget

import (
	"net/netip"
	"testing"

	"github.com/laces-project/laces/internal/netsim"
)

// BenchmarkBudgetLedger measures the sequential admission pre-pass the
// census stages pay per target when governance is active: an opt-out
// lookup plus a three-cap check-and-charge.
func BenchmarkBudgetLedger(b *testing.B) {
	reg := NewRegistry()
	for i := 0; i < 64; i++ {
		reg.AddAS(netsim.ASN(90000 + i))
	}
	reg.AddPrefix(netip.MustParsePrefix("203.0.113.0/24"))

	const nTargets = 4096
	targets := make([]*netsim.Target, nTargets)
	for i := range targets {
		p := netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i >> 8), byte(i), 0}), 24)
		targets[i] = &netsim.Target{ID: i, Prefix: p, Addr: p.Addr(), Origin: netsim.ASN(65000 + i%97)}
	}

	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		l := NewLedger(Budget{
			DailyProbes:     int64(nTargets) * 40,
			PerASProbes:     2000,
			PerPrefixProbes: 64,
		}, reg)
		g := l.Gate(n)
		var u Usage
		for _, tg := range targets {
			u.Record(g.Admit(tg, 48), 48)
		}
		if !u.Reconciles() {
			b.Fatalf("usage does not reconcile: %+v", u)
		}
	}
}
