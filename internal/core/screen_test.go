package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"slices"
	"testing"
	"time"

	"github.com/laces-project/laces/internal/budget"
	"github.com/laces-project/laces/internal/netsim"
	"github.com/laces-project/laces/internal/packet"
	"github.com/laces-project/laces/internal/par"
	"github.com/laces-project/laces/internal/platform"
	"github.com/laces-project/laces/internal/traceroute"
)

// screenReference is the sequential loop the screen stage replaced: each
// ICMP-answering candidate traced from every VP in turn, in list order.
func screenReference(t *testing.T, w *netsim.World, vps []netsim.VP, cands []*netsim.Target, at time.Time) (confirmed []int, probes int64) {
	t.Helper()
	opts := traceroute.Options{At: at, Measurement: uint16(netsim.DayOf(at))}
	for _, tg := range cands {
		if !tg.Responsive[packet.ICMP] {
			continue
		}
		f, err := traceroute.Measure(w, vps, tg, opts)
		if err != nil {
			t.Fatal(err)
		}
		probes += f.ProbesSent
		if f.GlobalBGP() {
			confirmed = append(confirmed, tg.ID)
		}
	}
	slices.Sort(confirmed)
	return confirmed, probes
}

// TestScreenStageScreensCandidates: on global-unicast and plain unicast
// candidates, the screen stage confirms at Parallelism 1 and 4 the IDs
// the sequential loop confirms, with its probe count, and only
// global-unicast targets. Ungoverned, it records no usage.
func TestScreenStageScreensCandidates(t *testing.T) {
	w := testWorld
	var vps []netsim.VP
	for i, city := range []string{"Amsterdam", "Tokyo", "Los Angeles", "Sao Paulo", "Sydney", "Johannesburg"} {
		vp, err := w.NewVP("scr-"+string(rune('1'+i)), city)
		if err != nil {
			t.Fatal(err)
		}
		vps = append(vps, vp)
	}
	var cands []*netsim.Target
	var ids []int // the ICMP-answering candidates, as the screen filters them
	for i := range w.NumTargets(false) {
		tg := w.TargetAt(false, i)
		if tg.Kind == netsim.GlobalUnicast || (tg.Kind == netsim.Unicast && len(tg.TempWindows) == 0) {
			cands = append(cands, tg)
			if tg.Responsive[packet.ICMP] {
				ids = append(ids, tg.ID)
			}
		}
		if len(cands) >= 50 {
			break
		}
	}
	at := netsim.DayTime(5)
	want, wantProbes := screenReference(t, w, vps, cands, at)
	if wantProbes == 0 || len(want) == 0 {
		t.Fatalf("the reference confirmed %v with %d probes; the candidates exercise nothing", want, wantProbes)
	}
	for _, parallelism := range []int{1, 4} {
		var usage budget.Usage
		got, probes, err := screenGlobalBGP(par.Stage{Label: "screen", World: w, Parallelism: parallelism}, vps, ids, at, &usage)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) || probes != wantProbes || usage != (budget.Usage{}) {
			t.Fatalf("parallelism %d: confirmed %v with %d probes, usage %+v; the sequential loop confirms %v with %d",
				parallelism, got, probes, usage, want, wantProbes)
		}
	}
	for _, id := range want {
		if kind := w.TargetAt(false, id).Kind; kind != netsim.GlobalUnicast {
			t.Fatalf("confirmed %v target %d as global BGP", kind, id)
		}
	}
}

// screenedDocs are the SHA-256 digests of the ungoverned day-40
// documents a ConfirmGlobalBGP pipeline on the test world published
// when the screen was a sequential loop outside par.Run.
var screenedDocs = map[bool]string{
	false: "d40a985553eea98594e551abce18c6954d9028ffdee8c6304948225711a81924",
	true:  "8f7038af9a081f660c923ffec5afa35cf2570683b499abaed1ee70c42f35ccca",
}

// TestScreenedCensusKeepsItsBytes: an ungoverned census with the
// global-BGP screen publishes, at Parallelism 1 and 4, the bytes the
// sequential screen published.
func TestScreenedCensusKeepsItsBytes(t *testing.T) {
	dep, err := platform.Tangled(testWorld, netsim.PolicyUnmodified)
	if err != nil {
		t.Fatal(err)
	}
	for _, parallelism := range []int{1, 4} {
		p, err := NewPipeline(testWorld, Config{
			Deployment:       dep,
			GCDVPs:           func(day int, v6 bool) ([]netsim.VP, error) { return platform.Ark(testWorld, day, v6) },
			ConfirmGlobalBGP: true,
			Parallelism:      parallelism,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, v6 := range []bool{false, true} {
			c, err := p.RunDaily(40, v6, DayOptions{})
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := c.WriteJSON(&buf); err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(buf.Bytes())
			if got := hex.EncodeToString(sum[:]); got != screenedDocs[v6] {
				t.Errorf("parallelism %d, v6=%v: document %s, want %s", parallelism, v6, got, screenedDocs[v6])
			}
		}
	}
}
