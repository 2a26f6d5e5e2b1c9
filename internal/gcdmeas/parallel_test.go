package gcdmeas

import (
	"reflect"
	"testing"

	"github.com/laces-project/laces/internal/packet"
)

// TestRunParallelByteIdentical: sharded GCD campaigns must reproduce the
// sequential report exactly at every worker count.
func TestRunParallelByteIdentical(t *testing.T) {
	anycast, unicast := sampleIDs(40)
	ids := append(append([]int{}, anycast...), unicast...)
	camp := arkCampaign(t, 10, false)
	camp.Attempts = 2

	camp.Parallelism = 1
	seq := Run(testWorld, ids, false, camp)
	for _, workers := range []int{0, 2, 5, 16} {
		camp.Parallelism = workers
		par := Run(testWorld, ids, false, camp)
		if seq.ProbesSent != par.ProbesSent {
			t.Fatalf("parallelism=%d: probes %d vs sequential %d", workers, par.ProbesSent, seq.ProbesSent)
		}
		if !reflect.DeepEqual(seq.Outcomes, par.Outcomes) {
			t.Fatalf("parallelism=%d: outcomes diverge from sequential run", workers)
		}
	}
}

// TestSweepAddrsParallelByteIdentical covers the /32-granularity sweep.
func TestSweepAddrsParallelByteIdentical(t *testing.T) {
	var ids []int
	for i := range testWorld.NumTargets(false) {
		tg := testWorld.TargetAt(false, i)
		if tg.Responsive[packet.ICMP] && len(ids) < 80 {
			ids = append(ids, tg.ID)
		}
	}
	camp := arkCampaign(t, 230, false)
	camp.VPs = camp.VPs[:13]

	camp.Parallelism = 1
	seqOut, seqProbes, _ := SweepAddrs(testWorld, ids, false, DefaultSweepOffsets(), camp)
	for _, workers := range []int{0, 3, 8} {
		camp.Parallelism = workers
		parOut, parProbes, _ := SweepAddrs(testWorld, ids, false, DefaultSweepOffsets(), camp)
		if seqProbes != parProbes {
			t.Fatalf("parallelism=%d: probes %d vs sequential %d", workers, parProbes, seqProbes)
		}
		if !reflect.DeepEqual(seqOut, parOut) {
			t.Fatalf("parallelism=%d: outcomes diverge from sequential run", workers)
		}
	}
}

// TestSweepAddrsDeduplicatesRepresentative is the Table-4 accounting
// bugfix: a representative whose last octet collides with a configured
// sweep offset must be probed once per VP, not twice.
func TestSweepAddrsDeduplicatesRepresentative(t *testing.T) {
	// Any responsive target works; the probe count is what matters.
	var id int = -1
	var rep uint8
	for i := range testWorld.NumTargets(false) {
		tg := testWorld.TargetAt(false, i)
		if tg.Responsive[packet.ICMP] {
			id = tg.ID
			b := tg.Addr.AsSlice()
			rep = b[len(b)-1]
			break
		}
	}
	if id < 0 {
		t.Fatal("no responsive target")
	}
	camp := arkCampaign(t, 230, false)
	camp.VPs = camp.VPs[:5]

	// Baseline: no configured offsets — only the representative is probed.
	_, probesRepOnly, _ := SweepAddrs(testWorld, []int{id}, false, nil, camp)
	if want := int64(len(camp.VPs)); probesRepOnly != want {
		t.Fatalf("rep-only sweep sent %d probes, want %d", probesRepOnly, want)
	}

	// A colliding offset list must not probe the representative twice.
	_, probesColliding, _ := SweepAddrs(testWorld, []int{id}, false, []uint8{rep}, camp)
	if probesColliding != probesRepOnly {
		t.Fatalf("colliding offset sweep sent %d probes, want %d (representative deduplicated)",
			probesColliding, probesRepOnly)
	}

	// Duplicates inside the configured list collapse too.
	other := rep + 1
	_, probesDup, _ := SweepAddrs(testWorld, []int{id}, false, []uint8{other, other, rep}, camp)
	if want := int64(2 * len(camp.VPs)); probesDup != want {
		t.Fatalf("duplicated offset list sent %d probes, want %d", probesDup, want)
	}
}

// TestDedupeOffsets pins the helper's ordering: configured offsets first
// in order, the representative appended only when new.
func TestDedupeOffsets(t *testing.T) {
	got := dedupeOffsets(nil, []uint8{8, 13, 8, 200}, 13)
	want := []uint8{8, 13, 200}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("dedupeOffsets = %v, want %v", got, want)
	}
	got = dedupeOffsets(got[:0], []uint8{8, 13}, 77)
	want = []uint8{8, 13, 77}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("dedupeOffsets = %v, want %v", got, want)
	}
}

// TestRunParallelOutOfRangeIDs: the sharded loop must keep skipping
// out-of-range target IDs.
func TestRunParallelOutOfRangeIDs(t *testing.T) {
	anycast, _ := sampleIDs(5)
	ids := append([]int{-5, testWorld.NumTargets(false) + 10}, anycast...)
	camp := arkCampaign(t, 10, false)
	camp.Parallelism = 4
	rep := Run(testWorld, ids, false, camp)
	for id := range rep.Outcomes {
		if id < 0 || id >= testWorld.NumTargets(false) {
			t.Fatalf("outcome for out-of-range id %d", id)
		}
	}
}
