package traceroute

import (
	"testing"

	"github.com/laces-project/laces/internal/netsim"
	"github.com/laces-project/laces/internal/packet"
)

// BenchmarkRun times one full trace including probe encoding, the
// simulated path walk, time-exceeded quoting and identity recovery — the
// per-target cost of the census's global-BGP screening stage.
func BenchmarkRun(b *testing.B) {
	w := testWorld(b)
	vp := vpAt(b, w, "bench-vp", "Amsterdam")
	var tg *netsim.Target
	for i := range w.NumTargets(false) {
		cand := w.TargetAt(false, i)
		if cand.Kind == netsim.GlobalUnicast && cand.Responsive[packet.ICMP] {
			tg = cand
			break
		}
	}
	if tg == nil {
		b.Fatal("no global-unicast target")
	}
	opts := Options{At: netsim.DayTime(5)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(w, vp, tg, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMeasureFanout times the multi-VP fan-out measurement used per
// screened ℳ candidate (12 VPs by default in the pipeline).
func BenchmarkMeasureFanout(b *testing.B) {
	w := testWorld(b)
	cities := []string{"Amsterdam", "Tokyo", "Los Angeles", "Sao Paulo",
		"Sydney", "Johannesburg", "Frankfurt", "Singapore", "New York",
		"London", "Mumbai", "Stockholm"}
	var vps []netsim.VP
	for i, c := range cities {
		vps = append(vps, vpAt(b, w, "bench-fan-"+string(rune('a'+i)), c))
	}
	var tg *netsim.Target
	for i := range w.NumTargets(false) {
		cand := w.TargetAt(false, i)
		if cand.Kind == netsim.GlobalUnicast && cand.Responsive[packet.ICMP] {
			tg = cand
			break
		}
	}
	if tg == nil {
		b.Fatal("no global-unicast target")
	}
	opts := Options{At: netsim.DayTime(5)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Measure(w, vps, tg, opts); err != nil {
			b.Fatal(err)
		}
	}
}
