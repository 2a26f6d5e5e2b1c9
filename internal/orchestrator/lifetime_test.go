package orchestrator

import (
	"context"
	"fmt"
	"math"
	"net"
	"net/netip"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/laces-project/laces/internal/client"
	"github.com/laces-project/laces/internal/netsim"
	"github.com/laces-project/laces/internal/obs"
	"github.com/laces-project/laces/internal/wire"
	"github.com/laces-project/laces/internal/worker"
)

// gateProber stalls its worker inside the probe of one address until
// released — the handle a test needs to hold a measurement at a phase.
type gateProber struct {
	worker.Prober
	at      netip.Addr
	reached chan struct{} // closed when the probe of at is entered
	release chan struct{} // closed by open
	reach   sync.Once
	opened  sync.Once
}

func newGate(t *testing.T, at netip.Addr) *gateProber {
	g := &gateProber{at: at, reached: make(chan struct{}), release: make(chan struct{})}
	t.Cleanup(g.open)
	return g
}

// open lets the stalled probe, and every later one, through.
func (g *gateProber) open() { g.opened.Do(func() { close(g.release) }) }

func (g *gateProber) ProbeTarget(def wire.MeasurementDef, addr netip.Addr, tx time.Time) ([]worker.Reply, error) {
	if addr == g.at {
		g.reach.Do(func() { close(g.reached) })
		<-g.release
	}
	return g.Prober.ProbeTarget(def, addr, tx)
}

// lifetimeCluster boots an orchestrator and n traced workers that log
// nowhere (so nothing can land after the test); site 0 probes through
// gate when one is given. Everything stops with the test.
func lifetimeCluster(t *testing.T, n int, cfg Config, gate *gateProber) (*Orchestrator, []*obs.Registry) {
	t.Helper()
	w := world(t)
	dep, err := w.NewDeployment("lifetime-"+t.Name(), eightSites[:n], netsim.PolicyUnmodified)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Addr = "127.0.0.1:0"
	o, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	go o.Serve(ctx)
	regs := make([]*obs.Registry, n)
	for i := range regs {
		regs[i] = obs.New()
		wk, err := worker.New(worker.Config{
			Name:         eightSites[i],
			Orchestrator: o.Addr(),
			NewProber: func(self int) (worker.Prober, error) {
				p, err := worker.NewSimProber(w, dep, self)
				if err != nil || gate == nil || self != 0 {
					return p, err
				}
				gate.Prober = p
				return gate, nil
			},
			ReconnectMin: 20 * time.Millisecond,
			Obs:          regs[i],
		})
		if err != nil {
			t.Fatal(err)
		}
		go wk.Run(ctx)
	}
	eventually(t, "workers to connect", func() bool { return o.NumWorkers() == n })
	return o, regs
}

// within polls cond for up to ten seconds.
func within(cond func() bool) bool {
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			return false
		}
	}
	return true
}

// eventually fails the test when cond does not come true.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	if !within(cond) {
		t.Fatalf("timed out waiting for %s", what)
	}
}

// measurementsStarted and idle read the slot the way a frame pump does.
func (o *Orchestrator) measurementsStarted() uint64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.lastSeq
}

func (o *Orchestrator) idle() bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.active == nil
}

// framesTo returns the frames written so far to the worker registered
// under idx.
func (o *Orchestrator) framesTo(idx int) int64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.workers[idx].conn.ConnStats().FramesTx()
}

// firstTargets returns the first n IPv4 addresses of the test world.
func firstTargets(t *testing.T, n int) []netip.Addr {
	t.Helper()
	w := world(t)
	if w.NumTargets(false) < n {
		t.Fatalf("test world has %d targets, need %d", w.NumTargets(false), n)
	}
	addrs := make([]netip.Addr, n)
	for i := range addrs {
		addrs[i] = w.TargetAt(false, i).Addr
	}
	return addrs
}

// resultSet renders an outcome's results as a sorted multiset of
// target/tx/rx lines. RTTs are left out: the sim stamps probes with the
// wall clock, and jitter moves with it.
func resultSet(out *client.Outcome) []string {
	lines := make([]string, len(out.Results))
	for i, r := range out.Results {
		lines[i] = fmt.Sprintf("m%d %v tx%d rx%d", r.Measurement, r.Target, r.TxWorker, r.RxWorker)
	}
	slices.Sort(lines)
	return lines
}

// TestCancelledMeasurementDoesNotLeak cancels measurement A's client at
// each phase and starts B, with A's measurement ID, the moment the slot is
// free. B must return what a fresh cluster returns for B's targets:
// nothing A's workers still had in flight may reach it, A's WorkerDone
// frames must not count towards its quorum, and no worker may be left
// holding A's measure span open.
func TestCancelledMeasurementDoesNotLeak(t *testing.T) {
	const sites, id = 4, 77
	// A is three batches; B is fifty targets A does not contain.
	all := firstTargets(t, 3050)
	targetsA, targetsB := all[:3000], all[3000:]
	defB := wire.MeasurementDef{ID: id, Protocol: "ICMP", OffsetMS: 1000, Rate: 1e6}
	ctx, cancelAll := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancelAll()

	fresh, _ := lifetimeCluster(t, sites, Config{}, nil)
	ref, err := (&client.Client{Addr: fresh.Addr()}).Run(ctx, defB, targetsB, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := resultSet(ref)
	if len(want) == 0 {
		t.Fatal("reference measurement returned nothing")
	}

	for _, phase := range []struct {
		name string
		// rate paces A. Site 0 stalls in the probe of targetsA[stallAt];
		// frames is what the orchestrator has written to it by then, and A
		// is cancelled at that point. stallAt < 0: A's CLI is gone as
		// soon as its Run frame is out.
		rate    float64
		stallAt int
		frames  int64
	}{
		{"before the first batch", 1e6, -1, 0},
		// One batch is with the workers, the second is 500 ms away.
		{"mid-stream", 2000, 500, 3}, // HelloAck, Start, Targets
		// EndTargets is out, and Complete cannot follow while site 0 stalls.
		{"after EndTargets", 1e6, len(targetsA) - 1, 6}, // … two more Targets, EndTargets
	} {
		t.Run(phase.name, func(t *testing.T) {
			defA := wire.MeasurementDef{ID: id, Protocol: "ICMP", OffsetMS: 1000, Rate: phase.rate}
			var gate *gateProber
			if phase.stallAt >= 0 {
				gate = newGate(t, targetsA[phase.stallAt])
			}
			o, regs := lifetimeCluster(t, sites, Config{}, gate)
			if gate == nil {
				nc, err := net.Dial("tcp", o.Addr())
				if err != nil {
					t.Fatal(err)
				}
				conn := wire.NewConn(nc)
				_ = conn.Write(wire.MsgHello, wire.Hello{Role: "cli", Name: "gone"})
				_ = conn.Write(wire.MsgRun, wire.Run{Def: defA, Targets: targetsA})
				conn.Close()
				eventually(t, "A to start", func() bool { return o.measurementsStarted() == 1 })
			} else {
				ctxA, cancelA := context.WithCancel(ctx)
				defer cancelA()
				failed := make(chan error, 1)
				go func() {
					_, err := (&client.Client{Addr: o.Addr()}).Run(ctxA, defA, targetsA, nil)
					failed <- err
				}()
				<-gate.reached
				eventually(t, "A's frames to site 0", func() bool { return o.framesTo(0) == phase.frames })
				cancelA()
				if err := <-failed; err == nil {
					t.Fatal("cancelled measurement reported success")
				}
				// A's tail — what site 0 has yet to probe and report,
				// its WorkerDone if it got that far — is let go only
				// once B is under way.
				go func() {
					if !within(func() bool { return o.framesTo(0) > phase.frames }) {
						t.Error("B's Start never reached site 0")
					}
					gate.open()
				}()
			}
			eventually(t, "A's slot to be released", o.idle)

			out, err := (&client.Client{Addr: o.Addr()}).Run(ctx, defB, targetsB, nil)
			if err != nil {
				t.Fatal(err)
			}
			if out.Workers != sites {
				t.Errorf("B ran with %d workers, want %d", out.Workers, sites)
			}
			if got := resultSet(out); !slices.Equal(got, want) {
				stray := 0
				for _, r := range out.Results {
					if !slices.Contains(targetsB, r.Target) {
						stray++
					}
				}
				t.Errorf("B returned %d results, a fresh cluster %d; %d are for targets B never asked for",
					len(got), len(want), stray)
			}
			// Every worker was sent two MsgStart frames with this ID; both
			// measure spans must have been ended — A's as aborted where it
			// did not reach EndTargets.
			for i, reg := range regs {
				ended := 0
				for _, sp := range reg.TraceSpans() {
					if sp.Name == "worker/measure" {
						ended++
					}
				}
				if ended != 2 {
					t.Errorf("worker %d ended %d measure spans, want 2 (A's is still open)", i, ended)
				}
			}
		})
	}
}

// TestWorkerDeathCountsOnce kills one worker early in a four-batch
// measurement. The loss must be counted, recorded and dumped once — not
// once more per batch written to the dead connection — and that
// connection must see no frame after the drop.
func TestWorkerDeathCountsOnce(t *testing.T) {
	const sites = 3
	oReg, sink := obs.New(), &syncBuffer{}
	o, _ := lifetimeCluster(t, sites, Config{Obs: oReg, FlightSink: sink}, nil)

	w := world(t)
	dep, err := w.NewDeployment("death", eightSites[:sites], netsim.PolicyUnmodified)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	wk, err := worker.New(worker.Config{
		Name:         "chaos",
		Orchestrator: o.Addr(),
		NewProber: func(self int) (worker.Prober, error) {
			return worker.NewSimProber(w, dep, self%sites)
		},
		ReconnectMin:     time.Minute, // stays away for the rest of the test
		FailAfterTargets: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	go wk.Run(ctx)
	eventually(t, "the chaos worker", func() bool { return o.NumWorkers() == sites+1 })
	o.mu.Lock()
	chaos := o.workers[sites]
	o.mu.Unlock()
	if chaos.name != "chaos" {
		t.Fatalf("worker %d is %q", sites, chaos.name)
	}

	// 3,500 targets at 20,000/s: the batches after the first leave 50 ms
	// apart, all of them after the death.
	def := wire.MeasurementDef{ID: 31, Protocol: "ICMP", OffsetMS: 1000, Rate: 20000}
	out, err := (&client.Client{Addr: o.Addr()}).Run(ctx, def, firstTargets(t, 3500), nil)
	if err != nil {
		t.Fatalf("measurement did not survive the death: %v", err)
	}
	if out.Workers != sites+1 || len(out.Results) == 0 {
		t.Fatalf("workers=%d results=%d", out.Workers, len(out.Results))
	}

	if got := o.disconnects.Value(); got != 1 {
		t.Errorf("laces_orchestrator_worker_disconnects_total = %d, want 1", got)
	}
	// The sink holds every dump, and every dump repeats the ring, earlier
	// dump markers included: one marker is one dump, and one disconnect
	// event in it is one event recorded. (The ring itself has long wrapped
	// under the result frames' events by now.)
	var framesAtDrop string
	events, dumps := 0, 0
	for _, ev := range decodeFlightDump(t, sink.Bytes()) {
		switch ev.Kind {
		case "flight_dump":
			dumps++
		case "worker_disconnect":
			events++
			for _, f := range ev.Fields {
				if f.Name == "frames_tx" {
					framesAtDrop = f.Value
				}
			}
		}
	}
	if events != 1 || dumps != 1 {
		t.Errorf("sink holds %d worker_disconnect events in %d dumps, want 1 in 1", events, dumps)
	}
	if got := fmt.Sprint(chaos.conn.ConnStats().FramesTx()); got != framesAtDrop {
		t.Errorf("dead connection was written %s frames, %s at the drop", got, framesAtDrop)
	}
}

// TestRunFrameValidation submits definitions no measurement can run with.
// Each is answered with one error naming the field, and no worker hears of
// the measurement.
func TestRunFrameValidation(t *testing.T) {
	o, regs := lifetimeCluster(t, 2, Config{}, nil)
	good := wire.MeasurementDef{ID: 5, Protocol: "ICMP", OffsetMS: 1000, Rate: 1e6}
	with := func(edit func(*wire.MeasurementDef)) wire.MeasurementDef {
		def := good
		edit(&def)
		return def
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, tc := range []struct {
		name string
		def  wire.MeasurementDef
		want string
	}{
		{"zero rate", with(func(d *wire.MeasurementDef) { d.Rate = 0 }), "orchestrator error: wire: measurement rate must be a positive, finite number of targets per second, got 0"},
		{"negative rate", with(func(d *wire.MeasurementDef) { d.Rate = -10 }), "orchestrator error: wire: measurement rate must be a positive, finite number of targets per second, got -10"},
		{"negative offset", with(func(d *wire.MeasurementDef) { d.OffsetMS = -1 }), "orchestrator error: wire: measurement offset_ms must not be negative, got -1"},
		{"unknown protocol", with(func(d *wire.MeasurementDef) { d.Protocol = "QUIC" }), `orchestrator error: wire: measurement protocol: packet: unknown protocol "QUIC"`},
		{"lower-case protocol", with(func(d *wire.MeasurementDef) { d.Protocol = "icmp" }), `orchestrator error: wire: measurement protocol: packet: unknown protocol "icmp"`},
		// JSON has no spelling for these, so they cannot reach the
		// orchestrator at all: the CLI's own encoder refuses the frame.
		// (`laces measure` names the field itself, from the same Validate.)
		{"NaN rate", with(func(d *wire.MeasurementDef) { d.Rate = math.NaN() }), "unsupported value: NaN"},
		{"+Inf rate", with(func(d *wire.MeasurementDef) { d.Rate = math.Inf(1) }), "unsupported value: +Inf"},
		{"-Inf rate", with(func(d *wire.MeasurementDef) { d.Rate = math.Inf(-1) }), "unsupported value: -Inf"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := (&client.Client{Addr: o.Addr()}).Run(ctx, tc.def, firstTargets(t, 10), nil)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error = %v, want one containing %q", err, tc.want)
			}
			if n := o.NumWorkers(); n != 2 {
				t.Fatalf("%d workers connected after the rejection, want 2", n)
			}
		})
	}
	for i, reg := range regs {
		for _, ev := range reg.Flight().Snapshot() {
			if ev.Kind == "frame_rx" && ev.Name == wire.MsgStart.String() {
				t.Errorf("worker %d received a MsgStart", i)
			}
		}
	}
	// The cluster is unharmed: the valid definition runs.
	if _, err := (&client.Client{Addr: o.Addr()}).Run(ctx, good, firstTargets(t, 10), nil); err != nil {
		t.Fatal(err)
	}
}
