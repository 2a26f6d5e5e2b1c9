package orchestrator

import (
	"context"
	"net"
	"net/netip"
	"sync"
	"testing"
	"time"

	"github.com/laces-project/laces/internal/client"
	"github.com/laces-project/laces/internal/netsim"
	"github.com/laces-project/laces/internal/packet"
	"github.com/laces-project/laces/internal/wire"
	"github.com/laces-project/laces/internal/worker"
)

var (
	testWorldOnce sync.Once
	testWorld     *netsim.World
)

func world(t testing.TB) *netsim.World {
	t.Helper()
	testWorldOnce.Do(func() {
		cfg := netsim.TestConfig()
		cfg.V4Targets = 4000
		cfg.V6Targets = 1000
		cfg.NumASes = 200
		// The sim workers stamp probes with the wall clock, so which
		// targets have a bad routing day depends on the date the tests
		// run; without this a "clean" unicast flaps on some dates.
		cfg.TransientDisturbFrac = 0
		w, err := netsim.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		testWorld = w
	})
	return testWorld
}

// eightSites is a small measurement deployment for fast integration tests.
var eightSites = []string{
	"Amsterdam", "New York", "Tokyo", "Sydney",
	"Sao Paulo", "Johannesburg", "Frankfurt", "Singapore",
}

// startCluster boots an orchestrator plus n workers over loopback TCP and
// waits until all workers registered.
func startCluster(t testing.TB, n int) (*Orchestrator, *netsim.Deployment, context.CancelFunc) {
	return startClusterCfg(t, n, Config{})
}

// startClusterCfg is startCluster with orchestrator configuration
// (governance knobs); Addr and Logf are always overridden. The returned
// cancel silences logging before tearing the cluster down, so disconnect
// messages from draining goroutines cannot land after the test completes
// (a panic once the binary runs another iteration under -count).
func startClusterCfg(t testing.TB, n int, cfg Config) (*Orchestrator, *netsim.Deployment, context.CancelFunc) {
	t.Helper()
	w := world(t)
	dep, err := w.NewDeployment("itest", eightSites[:n], netsim.PolicyUnmodified)
	if err != nil {
		t.Fatal(err)
	}
	var logMu sync.Mutex
	quiet := false
	logf := func(format string, args ...any) {
		logMu.Lock()
		defer logMu.Unlock()
		if !quiet {
			t.Logf(format, args...)
		}
	}
	cfg.Addr = "127.0.0.1:0"
	cfg.Logf = logf
	o, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go o.Serve(ctx)

	for i := 0; i < n; i++ {
		wk, err := worker.New(worker.Config{
			Name:         eightSites[i],
			Orchestrator: o.Addr(),
			NewProber: func(self int) (worker.Prober, error) {
				return worker.NewSimProber(w, dep, self)
			},
			ReconnectMin: 20 * time.Millisecond,
			Logf:         logf,
		})
		if err != nil {
			t.Fatal(err)
		}
		go wk.Run(ctx)
	}
	deadline := time.Now().Add(5 * time.Second)
	for o.NumWorkers() < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d workers connected", o.NumWorkers(), n)
		}
		time.Sleep(5 * time.Millisecond)
	}
	return o, dep, func() {
		logMu.Lock()
		quiet = true
		logMu.Unlock()
		cancel()
	}
}

// pickTargets selects sample targets of different kinds.
func pickTargets(w *netsim.World, nEach int) (addrs []netip.Addr, anycastAddrs, unicastAddrs map[netip.Addr]bool) {
	anycastAddrs = make(map[netip.Addr]bool)
	unicastAddrs = make(map[netip.Addr]bool)
	var nAny, nUni int
	for i := range w.NumTargets(false) {
		tg := w.TargetAt(false, i)
		if !tg.Responsive[packet.ICMP] {
			continue
		}
		switch {
		case tg.Kind == netsim.Anycast && len(tg.Sites) >= 20 && tg.AnycastBornDay == 0 && nAny < nEach:
			anycastAddrs[tg.Addr] = true
			addrs = append(addrs, tg.Addr)
			nAny++
		case tg.Kind == netsim.Unicast && len(tg.TempWindows) == 0 && nUni < nEach:
			if a, ok := w.ASByNumber(tg.Origin); ok && !a.TieSplit && !a.Wobbly && !a.Drifty && len(a.WobblyWindows) == 0 {
				unicastAddrs[tg.Addr] = true
				addrs = append(addrs, tg.Addr)
				nUni++
			}
		}
		if nAny >= nEach && nUni >= nEach {
			break
		}
	}
	return
}

func TestEndToEndMeasurement(t *testing.T) {
	o, _, cancel := startCluster(t, 8)
	defer cancel()

	w := world(t)
	addrs, anycastAddrs, unicastAddrs := pickTargets(w, 40)
	if len(anycastAddrs) < 10 || len(unicastAddrs) < 10 {
		t.Fatalf("too few sample targets: %d anycast, %d unicast", len(anycastAddrs), len(unicastAddrs))
	}

	cli := &client.Client{Addr: o.Addr()}
	def := wire.MeasurementDef{ID: 42, Protocol: "ICMP", OffsetMS: 1000, Rate: 1e6}
	ctx, cancelRun := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancelRun()
	out, err := cli.Run(ctx, def, addrs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Workers != 8 {
		t.Fatalf("workers = %d, want 8", out.Workers)
	}
	if len(out.Results) == 0 {
		t.Fatal("no results")
	}
	for _, r := range out.Results {
		if r.Measurement != 42 {
			t.Fatalf("stray measurement id %d", r.Measurement)
		}
		if r.RxWorker < 0 || r.RxWorker >= 8 || r.TxWorker < 0 || r.TxWorker >= 8 {
			t.Fatalf("worker index out of range: %+v", r)
		}
		if r.RTTMicros <= 0 {
			t.Fatalf("non-positive RTT: %+v", r)
		}
	}

	sets := out.ReceiverSets()
	for a := range unicastAddrs {
		if s, ok := sets[a]; ok && len(s) != 1 {
			t.Errorf("clean unicast %s received at %d VPs", a, len(s))
		}
	}
	multi := 0
	for a := range anycastAddrs {
		if len(sets[a]) >= 2 {
			multi++
		}
	}
	if multi < len(anycastAddrs)*2/3 {
		t.Fatalf("only %d of %d wide anycast targets detected over the wire", multi, len(anycastAddrs))
	}
	if len(out.Candidates()) < multi {
		t.Fatal("Candidates() inconsistent with receiver sets")
	}
}

func TestEndToEndTCPAndDNS(t *testing.T) {
	o, _, cancel := startCluster(t, 4)
	defer cancel()
	w := world(t)

	for _, proto := range []string{"TCP", "DNS"} {
		var addrs []netip.Addr
		p, _ := packet.ParseProtocol(proto)
		for i := range w.NumTargets(false) {
			tg := w.TargetAt(false, i)
			if tg.Responsive[p] && tg.Kind == netsim.Anycast && len(tg.Sites) >= 20 {
				addrs = append(addrs, tg.Addr)
				if len(addrs) >= 10 {
					break
				}
			}
		}
		if len(addrs) == 0 {
			t.Fatalf("no %s targets", proto)
		}
		cli := &client.Client{Addr: o.Addr()}
		ctx, cancelRun := context.WithTimeout(context.Background(), 20*time.Second)
		out, err := cli.Run(ctx, wire.MeasurementDef{ID: 7, Protocol: proto, OffsetMS: 1000, Rate: 1e6}, addrs, nil)
		cancelRun()
		if err != nil {
			t.Fatalf("%s: %v", proto, err)
		}
		if len(out.Candidates()) == 0 {
			t.Fatalf("%s measurement found no candidates", proto)
		}
	}
}

func TestMeasurementSurvivesWorkerLoss(t *testing.T) {
	o, _, cancel := startCluster(t, 4)
	defer cancel()
	w := world(t)

	// A saboteur "worker" that registers, then dies as soon as targets
	// arrive — the link-failure case of §4.2.3.
	go func() {
		nc, err := net.Dial("tcp", o.Addr())
		if err != nil {
			return
		}
		conn := wire.NewConn(nc)
		_ = conn.Write(wire.MsgHello, wire.Hello{Role: "worker", Name: "doomed"})
		for {
			typ, _, err := conn.Read()
			if err != nil {
				return
			}
			if typ == wire.MsgTargets {
				conn.Close() // die mid-measurement
				return
			}
		}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for o.NumWorkers() < 5 {
		if time.Now().After(deadline) {
			t.Fatal("saboteur did not connect")
		}
		time.Sleep(5 * time.Millisecond)
	}

	addrs, _, _ := pickTargets(w, 20)
	cli := &client.Client{Addr: o.Addr()}
	ctx, cancelRun := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancelRun()
	out, err := cli.Run(ctx, wire.MeasurementDef{ID: 9, Protocol: "ICMP", OffsetMS: 1000, Rate: 1e6}, addrs, nil)
	if err != nil {
		t.Fatalf("measurement did not survive worker loss: %v", err)
	}
	if len(out.Results) == 0 {
		t.Fatal("no results after worker loss")
	}
}

func TestMeasurementSurvivesInjectedDisconnect(t *testing.T) {
	o, dep, cancel := startCluster(t, 4)
	defer cancel()
	w := world(t)

	// A fifth worker with deterministic fault injection: it probes a
	// handful of targets, then drops its connection mid-measurement (the
	// pre-July-2025 disconnect incidents). The long reconnect floor keeps
	// it out of the rest of the test.
	ctx, cancelChaos := context.WithCancel(context.Background())
	defer cancelChaos()
	wk, err := worker.New(worker.Config{
		Name:         "chaos",
		Orchestrator: o.Addr(),
		NewProber: func(self int) (worker.Prober, error) {
			return worker.NewSimProber(w, dep, self%dep.NumSites())
		},
		ReconnectMin:     time.Minute,
		Logf:             t.Logf,
		FailAfterTargets: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	go wk.Run(ctx)
	deadline := time.Now().Add(5 * time.Second)
	for o.NumWorkers() < 5 {
		if time.Now().After(deadline) {
			t.Fatal("chaos worker did not connect")
		}
		time.Sleep(5 * time.Millisecond)
	}

	addrs, _, _ := pickTargets(w, 20)
	cli := &client.Client{Addr: o.Addr()}
	runCtx, cancelRun := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancelRun()
	out, err := cli.Run(runCtx, wire.MeasurementDef{ID: 11, Protocol: "ICMP", OffsetMS: 1000, Rate: 1e6}, addrs, nil)
	if err != nil {
		t.Fatalf("measurement did not survive the injected disconnect: %v", err)
	}
	if out.Workers != 5 {
		t.Fatalf("measurement started with %d workers, want 5", out.Workers)
	}
	if len(out.Results) == 0 {
		t.Fatal("no results after injected disconnect")
	}
	if o.NumWorkers() >= 5 {
		t.Fatal("injected disconnect did not drop the chaos worker")
	}
}

func TestWorkerReconnects(t *testing.T) {
	w := world(t)
	dep, err := w.NewDeployment("itest-rc", eightSites[:2], netsim.PolicyUnmodified)
	if err != nil {
		t.Fatal(err)
	}
	o, err := New(Config{Addr: "127.0.0.1:0", Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go o.Serve(ctx)

	// A dialer whose first connection gets severed shortly after setup,
	// forcing the worker's automatic reconnect path.
	var mu sync.Mutex
	dials := 0
	d := &net.Dialer{}
	wk, err := worker.New(worker.Config{
		Name:         "flaky",
		Orchestrator: o.Addr(),
		NewProber: func(self int) (worker.Prober, error) {
			return worker.NewSimProber(w, dep, self%dep.NumSites())
		},
		ReconnectMin: 10 * time.Millisecond,
		Logf:         t.Logf,
		Dialer: func(ctx context.Context, addr string) (net.Conn, error) {
			nc, err := d.DialContext(ctx, "tcp", addr)
			if err != nil {
				return nil, err
			}
			mu.Lock()
			dials++
			first := dials == 1
			mu.Unlock()
			if first {
				go func() {
					time.Sleep(50 * time.Millisecond)
					nc.Close()
				}()
			}
			return nc, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	go wk.Run(ctx)

	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		d := dials
		mu.Unlock()
		if d >= 2 && o.NumWorkers() >= 1 {
			return // reconnected
		}
		if time.Now().After(deadline) {
			t.Fatalf("worker did not reconnect (dials=%d, workers=%d)", d, o.NumWorkers())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestRunWithoutWorkersFails(t *testing.T) {
	o, err := New(Config{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go o.Serve(ctx)

	cli := &client.Client{Addr: o.Addr()}
	runCtx, cancelRun := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancelRun()
	_, err = cli.Run(runCtx, wire.MeasurementDef{ID: 1, Protocol: "ICMP", Rate: 1e6},
		[]netip.Addr{netip.MustParseAddr("192.0.2.1")}, nil)
	if err == nil {
		t.Fatal("measurement without workers should fail")
	}
}

// BenchmarkOrchestratorThroughput measures end-to-end distributed
// measurement throughput (targets streamed, probed and aggregated per
// second) over real loopback TCP — the streaming-aggregation ablation.
func BenchmarkOrchestratorThroughput(b *testing.B) {
	o, _, cancel := startCluster(b, 4)
	defer cancel()
	w := world(b)
	addrs, _, _ := pickTargets(w, 100)
	cli := &client.Client{Addr: o.Addr()}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx, cancelRun := context.WithTimeout(context.Background(), 60*time.Second)
		def := wire.MeasurementDef{ID: uint16(i + 100), Protocol: "ICMP", OffsetMS: 1000, Rate: 1e6}
		out, err := cli.Run(ctx, def, addrs, nil)
		cancelRun()
		if err != nil {
			b.Fatal(err)
		}
		if len(out.Results) == 0 {
			b.Fatal("no results")
		}
	}
	b.ReportMetric(float64(len(addrs)), "targets/run")
}

// TestBackToBackMeasurements starts each measurement the moment the
// previous one's Complete frame has been read. The slot used to be freed
// only after that frame was on the wire, so the next Run could be refused
// with "a measurement is already running".
func TestBackToBackMeasurements(t *testing.T) {
	o, _, cancel := startCluster(t, 4)
	defer cancel()
	addrs, _, _ := pickTargets(world(t), 2)

	cli := &client.Client{Addr: o.Addr()}
	ctx, cancelRun := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancelRun()
	for i := 0; i < 200; i++ {
		def := wire.MeasurementDef{ID: uint16(100 + i), Protocol: "ICMP", OffsetMS: 1000, Rate: 1e6}
		out, err := cli.Run(ctx, def, addrs, nil)
		if err != nil {
			t.Fatalf("measurement %d of 200: %v", i+1, err)
		}
		if len(out.Results) == 0 {
			t.Fatalf("measurement %d of 200: no results", i+1)
		}
	}
}
