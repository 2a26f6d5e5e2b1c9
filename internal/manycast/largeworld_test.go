package manycast

import (
	"runtime"
	"testing"
	"time"

	"github.com/laces-project/laces/internal/hitlist"
	"github.com/laces-project/laces/internal/netsim"
	"github.com/laces-project/laces/internal/packet"
)

// TestLargeWorldCensusSmoke drives the census's full-universe stage over
// an Internet-scale lazy world: ~1M IPv4 /24s and 80k ASes, hitlist
// assembly plus a sharded anycast-based measurement, with peak live heap
// bounded far below what eager materialization would need. Run by CI's
// test job; skipped in -short.
func TestLargeWorldCensusSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("Internet-scale world: skipped in -short")
	}
	w, err := netsim.New(netsim.PaperScaleConfig())
	if err != nil {
		t.Fatal(err)
	}
	if n := w.NumTargets(false); n < 1_000_000 {
		t.Fatalf("paper-scale world has %d IPv4 targets, want >= 1M", n)
	}
	hl := hitlist.ForDay(w, false, 10)
	if hl.Len() < 900_000 {
		t.Fatalf("hitlist covers %d targets, want >= 900k", hl.Len())
	}
	d, err := w.NewDeployment("smoke", []string{"Amsterdam", "New York", "Singapore", "Sao Paulo"}, netsim.PolicyUnmodified)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(w, d, hl, Options{
		Protocol: packet.ICMP,
		Start:    netsim.DayTime(10),
		Offset:   time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.ProbesSent < int64(hl.Len()) {
		t.Fatalf("sent %d probes over %d entries", res.ProbesSent, hl.Len())
	}
	if cands := res.Candidates(); len(cands) == 0 {
		t.Fatal("anycast-based stage found no candidates at paper scale")
	}
	// The world must stay streaming-bounded: total live heap (world +
	// hitlist + observations) far under the ~several-hundred-MB an eager
	// 1M-target universe costs.
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if heap := ms.HeapAlloc >> 20; heap > 512 {
		t.Fatalf("live heap %d MB after at-scale census stage, want <= 512 MB", heap)
	}
	t.Logf("probed %d entries (%d probes), %d candidates, heap %d MB",
		hl.Len(), res.ProbesSent, len(res.Candidates()), ms.HeapAlloc>>20)
	runtime.KeepAlive(w)
}
