package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"math/rand"
	"net/netip"
	"runtime"
	"sort"
	"strings"
	"time"

	"github.com/laces-project/laces/internal/chaosdns"
	"github.com/laces-project/laces/internal/cities"
	"github.com/laces-project/laces/internal/core"
	"github.com/laces-project/laces/internal/gcdmeas"
	"github.com/laces-project/laces/internal/geo"
	"github.com/laces-project/laces/internal/hitlist"
	"github.com/laces-project/laces/internal/igreedy"
	"github.com/laces-project/laces/internal/manycast"
	"github.com/laces-project/laces/internal/netsim"
	"github.com/laces-project/laces/internal/packet"
	"github.com/laces-project/laces/internal/platform"
	"github.com/laces-project/laces/internal/rate"
)

const (
	// censusFirstDay is the first timed day of seed 1; a seed moves it by up
	// to censusDaySpan days (firstCensusDay). The day before runs untimed, so
	// that the routing caches are filled and the feedback loop is live, as on
	// any production day but the first.
	censusFirstDay = 200
	censusDaySpan  = 16
	// layerSample bounds the target sets of the per-layer micro-measurements.
	layerSample = 512
)

// runCensusV4Seq is the single-threaded baseline of the whole pipeline on the
// eager world: probe path, IPv4 codecs, manycast, GCD, iGreedy and the city
// lookup in one number with no scheduler in it.
func runCensusV4Seq(o options, tr *tracer) (*result, error) {
	cfg := netsim.DefaultConfig()
	if o.smoke {
		cfg = netsim.TestConfig()
	}
	return runCensus(o, tr, cfg, false, 1, 4)
}

// runCensusV6Paper drives the same layers the other way: lazily derived
// targets through the arena, IPv6 codecs, every stage sharded by internal/par.
func runCensusV6Paper(o options, tr *tracer) (*result, error) {
	cfg := netsim.PaperScaleConfig()
	if o.smoke {
		cfg = netsim.TestConfig()
		cfg.LazyTargets = true
	}
	return runCensus(o, tr, cfg, true, 0, 4)
}

// publishSink counts and hashes what a workload publishes.
type publishSink struct {
	h hash.Hash
	n int64
}

func newPublishSink() *publishSink { return &publishSink{h: sha256.New()} }

func (p *publishSink) Write(b []byte) (int, error) {
	p.h.Write(b)
	p.n += int64(len(b))
	return len(b), nil
}

func (p *publishSink) sum() string { return hex.EncodeToString(p.h.Sum(nil)) }

// censusDay is what the layer pass needs from the last rep.
type censusDay struct {
	day      int
	census   *core.DailyCensus
	sha      string // of the day's published bytes
	feedback []int  // the feedback list the day started from
}

// firstCensusDay is what the seed chooses on a census workload: which days of
// the shipped world are measured. The world itself stays put, because a day of
// another world is another amount of work — re-seeding it moved work_per_s by
// 17% between seeds, more than any bound could tell from a regression — while
// these days share one hitlist quarter and an Ark pool that grows by under 3%.
func firstCensusDay(seed int) int { return censusFirstDay + (seed-1)%censusDaySpan }

func runCensus(o options, tr *tracer, cfg netsim.Config, v6 bool, parallelism, baseReps int) (*result, error) {
	res := &result{Unit: "hitlist target", Metrics: make(map[string]float64)}

	s := tr.begin("netsim.world_build")
	w, err := netsim.New(cfg)
	tr.end(s)
	if err != nil {
		return nil, err
	}
	dep, err := platform.Tangled(w, netsim.PolicyUnmodified)
	if err != nil {
		return nil, err
	}
	newPipeline := func(par int) (*core.Pipeline, error) {
		return core.NewPipeline(w, core.Config{
			Deployment:  dep,
			GCDVPs:      func(day int, v6 bool) ([]netsim.VP, error) { return platform.Ark(w, day, v6) },
			Parallelism: par,
		})
	}
	pipe, err := newPipeline(parallelism)
	if err != nil {
		return nil, err
	}
	firstDay := firstCensusDay(o.seed)
	warm, err := pipe.RunDaily(firstDay-1, v6, core.DayOptions{})
	if err != nil {
		return nil, fmt.Errorf("warm-up day: %w", err)
	}
	if err := warm.WriteJSON(io.Discard); err != nil {
		return nil, err
	}
	// The pipeline's feedback list is the union of every earlier day's 𝒢;
	// tracked here so that the sequential check day can start from the same.
	feedback := make(map[int]bool)
	for _, id := range warm.G() {
		feedback[id] = true
	}

	reps := o.reps(baseReps)
	units := w.NumTargets(v6)
	all := newPublishSink()
	var last censusDay
	var repS, runDailyS []float64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res.Metrics["setup_s"] = seconds(since(procStart))

	for i := 0; i < reps; i++ {
		day := firstDay + i
		if i == reps-1 {
			last.day = day
			for id := range feedback {
				last.feedback = append(last.feedback, id)
			}
			sort.Ints(last.feedback)
		}
		tr.setRep(i + 1)
		one := newPublishSink()
		rep := tr.begin("rep")
		t0 := now()
		s := tr.begin("core.run_daily")
		census, err := pipe.RunDaily(day, v6, core.DayOptions{})
		tr.end(s)
		runDaily := seconds(since(t0))
		if err == nil {
			s = tr.begin("core.document_encode")
			err = census.Document().WriteJSON(io.MultiWriter(all, one))
			tr.end(s)
		}
		dt := seconds(since(t0))
		tr.end(rep)

		res.Ops++
		if err != nil || len(census.Candidates()) == 0 {
			res.Failed++
			res.fail("day %d: err=%v, or no anycast candidates", day, err)
			continue
		}
		repS = append(repS, dt)
		runDailyS = append(runDailyS, runDaily)
		for _, id := range census.G() {
			feedback[id] = true
		}
		last.census, last.sha = census, one.sum()
	}
	tr.setRep(0)
	runtime.ReadMemStats(&after)
	if len(repS) == 0 {
		return nil, fmt.Errorf("no census day succeeded")
	}

	med := median(repS)
	res.Reps = reps
	res.RepS = repS
	res.OutSHA256 = all.sum()
	res.Metrics["work_per_s"] = float64(units) / med
	res.Metrics["out_bytes_per_unit"] = float64(all.n) / float64(len(repS)*units)
	// One operation per rep — the day — so both latency readings are the
	// median day.
	res.Metrics["p50_ms"] = med * 1e3
	res.Metrics["p95_ms"] = med * 1e3
	if !o.traced {
		return res, nil
	}

	m := res.Metrics
	m["netsim.world_build_s"] = median(tr.durations("netsim.world_build"))
	m["core.run_daily_s"] = median(runDailyS)
	m["core.document_encode_s"] = median(tr.durations("core.document_encode"))
	m["core.alloc_kb_per_target"] = float64(after.TotalAlloc-before.TotalAlloc) / 1024 / float64(reps*units)
	m["core.allocs_per_target"] = float64(after.Mallocs-before.Mallocs) / float64(reps*units)
	m["trace_overhead_share"] = tr.overheadShare(repS)
	m["trace_coverage_share"] = tr.coverage("rep")
	if last.census == nil || last.census.DayIndex != last.day {
		res.fail("the last day failed: no layer pass")
		return res, nil
	}

	// The stage calls repeat the last rep's day right after it: same work,
	// same minute, so that day's RunDaily is what their total is held against.
	stages := censusStagePass(res, tr, w, dep, v6, parallelism, last)
	m["core.self_share"] = 1 - stages/runDailyS[len(runDailyS)-1]
	censusMicroPass(res, w, dep, v6, last)

	if parallelism != 1 {
		// One more day, sequential, from the same feedback list: it must
		// publish the parallel day's bytes, and its time over the median
		// parallel day is what the sharding buys.
		seq, err := newPipeline(1)
		if err != nil {
			return nil, err
		}
		seq.SeedFeedback(v6, last.feedback)
		one := newPublishSink()
		t0 := now()
		census, err := seq.RunDaily(last.day, v6, core.DayOptions{})
		if err == nil {
			err = census.WriteJSON(one)
		}
		dt := seconds(since(t0))
		if err != nil {
			return nil, fmt.Errorf("sequential day: %w", err)
		}
		if one.sum() != last.sha {
			res.fail("day %d: the sequential census is not byte-identical to the parallel one", last.day)
		}
		m["core.par_speedup"] = dt / med
	}
	return res, nil
}

// censusStagePass calls each stage the way RunDaily does, on the last rep's
// day, and returns the stages' total time in seconds.
func censusStagePass(res *result, tr *tracer, w *netsim.World, dep *netsim.Deployment, v6 bool, parallelism int, last censusDay) float64 {
	m := res.Metrics
	start := netsim.DayTime(last.day)
	timed := func(name string, fn func()) float64 {
		s := tr.begin(name)
		t0 := now()
		fn()
		dt := seconds(since(t0))
		tr.end(s)
		return dt
	}

	var hl *hitlist.Hitlist
	m["hitlist.for_day_s"] = timed("hitlist.for_day", func() { hl = hitlist.ForDay(w, v6, last.day) })
	total := m["hitlist.for_day_s"]

	// Protocol runs follow one another on the census clock, as in
	// manycast.MultiProtocol.
	opts := manycast.Options{Start: start, Offset: time.Second, MeasurementID: uint16(last.day), Parallelism: parallelism}
	var probes int64
	for _, p := range packet.Protocols() {
		opts.Protocol = p
		name := "manycast." + strings.ToLower(p.String())
		m[name+"_s"] = timed(name, func() {
			r, err := manycast.Run(w, dep, hl, opts)
			if err != nil {
				res.fail("%s: %v", name, err)
				return
			}
			probes += r.ProbesSent
			opts.Start = opts.Start.Add(r.Duration)
		})
		total += m[name+"_s"]
	}
	m["manycast.probes"] = float64(probes)
	if probes != last.census.ProbesAnycastStage {
		res.fail("manycast layer pass sent %d probes, the census day %d", probes, last.census.ProbesAnycastStage)
	}

	// The day's candidates ∪ feedback, split as RunDaily splits them: ICMP
	// first, TCP for the ICMP-unresponsive.
	icmpIDs, tcpIDs := gcdTargets(w, v6, last.census)
	vps, err := platform.Ark(w, last.day, v6)
	if err != nil {
		res.fail("ark: %v", err)
		return total
	}
	campaign := gcdmeas.Campaign{VPs: vps, At: start.Add(6 * time.Hour), Parallelism: parallelism}
	probes = 0
	m["gcdmeas.run_s"] = timed("gcdmeas.run", func() {
		for _, part := range []struct {
			proto packet.Protocol
			ids   []int
		}{{packet.ICMP, icmpIDs}, {packet.TCP, tcpIDs}} {
			if len(part.ids) > 0 {
				campaign.Proto = part.proto
				probes += gcdmeas.Run(w, part.ids, v6, campaign).ProbesSent
			}
		}
	})
	total += m["gcdmeas.run_s"]
	m["gcdmeas.targets"] = float64(len(icmpIDs) + len(tcpIDs))
	m["gcdmeas.probes"] = float64(probes)
	if probes != last.census.ProbesGCDStage {
		res.fail("gcdmeas layer pass sent %d probes, the census day %d", probes, last.census.ProbesGCDStage)
	}

	// Stages the default pipeline leaves off: measured as layers, but no part
	// of a rep, so not in the total.
	if !v6 {
		sample := strided(icmpIDs, layerSample)
		campaign.Proto = packet.ICMP
		m["gcdmeas.sweep_s"] = timed("gcdmeas.sweep", func() {
			gcdmeas.SweepAddrs(w, sample, v6, gcdmeas.DefaultSweepOffsets(), campaign)
		})
	}
	inCensus := last.census.Entries
	sub := &hitlist.Hitlist{V6: v6, Day: hl.Day}
	for _, e := range hl.Entries {
		if _, ok := inCensus[e.TargetID]; ok && e.Protocols[packet.DNS] {
			sub.Entries = append(sub.Entries, e)
		}
	}
	m["chaosdns.census_s"] = timed("chaosdns.census", func() {
		chaosdns.Census(w, dep, sub, start.Add(9*time.Hour), nil, parallelism, nil)
	})
	return total
}

// strided returns at most n of ids, evenly spaced: the low ids are the named
// operators' large deployments, so a prefix of the list is no fair sample.
func strided(ids []int, n int) []int {
	if len(ids) <= n {
		return ids
	}
	out := make([]int, n)
	for i := range out {
		out[i] = ids[i*len(ids)/n]
	}
	return out
}

// gcdTargets returns the sorted ids RunDaily hands to the GCD stage.
func gcdTargets(w *netsim.World, v6 bool, c *core.DailyCensus) (icmpIDs, tcpIDs []int) {
	for id := range c.Entries {
		tg := w.TargetAt(v6, id)
		switch {
		case tg.Responsive[packet.ICMP]:
			icmpIDs = append(icmpIDs, id)
		case tg.Responsive[packet.TCP]:
			tcpIDs = append(tcpIDs, id)
		}
	}
	sort.Ints(icmpIDs)
	sort.Ints(tcpIDs)
	return icmpIDs, tcpIDs
}

// sink keeps the micro-measurements' results alive so that the compiler
// cannot drop the calls.
var sink float64

// perCall times n calls of fn and returns nanoseconds per call.
func perCall(n int, fn func(i int)) float64 {
	t0 := now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return float64(since(t0)) / float64(n)
}

// censusMicroPass measures the layers below the stages with direct calls on
// the same world and day.
func censusMicroPass(res *result, w *netsim.World, dep *netsim.Deployment, v6 bool, last censusDay) {
	m := res.Metrics
	start := netsim.DayTime(last.day)
	n := w.NumTargets(v6)

	t0 := now()
	seen := 0
	w.IterTargets(v6, 0, func(batch []netsim.Target) bool { seen += len(batch); return true })
	m["netsim.iter_targets_per_s"] = float64(seen) / seconds(since(t0))
	rng := rand.New(rand.NewSource(int64(w.Seed())))
	ids := make([]int, 200_000)
	for i := range ids {
		ids[i] = rng.Intn(n)
	}
	m["netsim.target_at_ns"] = perCall(len(ids), func(i int) { sink += float64(w.TargetAt(v6, ids[i]).ID) })

	// The anycast probe path as manycast drives it: the first hitlist
	// targets from every site.
	hl := hitlist.ForDay(w, v6, last.day).FilterProtocol(packet.ICMP)
	hl = hl[:min(len(hl), 20_000)]
	pacer, err := rate.NewPacer(start, manycast.DefaultRate, time.Second)
	if err != nil {
		res.fail("pacer: %v", err)
		return
	}
	sites := dep.NumSites()
	m["netsim.probe_anycast_ns"] = perCall(len(hl)*sites, func(i int) {
		e, wk := hl[i/sites], i%sites
		ctx := netsim.ProbeCtx{
			At:   pacer.SendTime(i/sites, wk),
			Flow: netsim.FlowKey{Proto: packet.ICMP, StaticFlow: uint64(last.day) + 1, VaryingPayload: uint64(wk + 1)},
			Gap:  time.Second,
			Seq:  uint64(e.TargetID),
		}
		if del, ok := w.ProbeAnycast(dep, wk, w.TargetAt(v6, e.TargetID), ctx); ok {
			sink += float64(del.WorkerIdx)
		}
	})

	// The unicast probe path as gcdmeas drives it, keeping the RTT samples
	// for the analysis layers below.
	icmpIDs, _ := gcdTargets(w, v6, last.census)
	icmpIDs = strided(icmpIDs, layerSample)
	vps, err := platform.Ark(w, last.day, v6)
	if err != nil || len(icmpIDs) == 0 {
		res.fail("no GCD sample set (ark: %v)", err)
		return
	}
	at := start.Add(6 * time.Hour)
	sets := make([][]igreedy.Sample, len(icmpIDs))
	m["netsim.probe_unicast_ns"] = perCall(len(icmpIDs)*len(vps), func(i int) {
		t, vp := i/len(vps), vps[i%len(vps)]
		if rtt, _, ok := w.ProbeUnicast(vp, w.TargetAt(v6, icmpIDs[t]), packet.ICMP, at, 0); ok {
			sets[t] = append(sets[t], igreedy.Sample{VP: vp.Name, Loc: vp.Loc, RTT: rtt})
		}
	})

	var discs []geo.Disc
	m["igreedy.analyze_ns"] = perCall(len(sets), func(i int) {
		for _, site := range igreedy.Analyze(sets[i], igreedy.Options{}).Sites {
			discs = append(discs, site.Disc)
		}
	})
	m["igreedy.detect_ns"] = perCall(len(sets), func(i int) {
		if igreedy.Detect(sets[i], igreedy.Options{}) {
			sink++
		}
	})
	db := cities.Default()
	m["cities.highest_population_ns"] = perCall(len(discs), func(i int) {
		if c, ok := db.HighestPopulationIn(discs[i]); ok {
			sink += float64(c.Population)
		}
	})
	all := db.All()
	m["geo.distance_ns"] = perCall(1_000_000, func(i int) {
		sink += vps[i%len(vps)].Loc.DistanceKm(all[i%len(all)].Location)
	})

	// Codec round trips in the workload's family: encode the probe, decode
	// it, encode the reply, decode that — what a worker does per probe.
	src, dst := netip.MustParseAddr("192.0.2.1"), netip.MustParseAddr("198.51.100.7")
	if v6 {
		src, dst = netip.MustParseAddr("2001:db8::1"), netip.MustParseAddr("2001:db8:ffff::7")
	}
	id := packet.Identity{Measurement: uint16(last.day), Worker: 3, TxTime: start}
	var buf [2][]byte // probe, reply
	const codecCalls = 100_000
	codecErr := func(proto string, err error) {
		if err != nil {
			res.fail("packet %s round trip: %v", proto, err)
		}
	}
	m["packet.icmp_ns"] = perCall(codecCalls, func(int) { codecErr("icmp", icmpRoundTrip(buf, id, v6, src, dst)) })
	m["packet.tcp_ns"] = perCall(codecCalls, func(int) { codecErr("tcp", tcpRoundTrip(buf, id, src, dst)) })
	m["packet.dns_ns"] = perCall(codecCalls, func(int) { codecErr("dns", dnsRoundTrip(buf, id)) })
}

func icmpRoundTrip(buf [2][]byte, id packet.Identity, v6 bool, src, dst netip.Addr) error {
	enc := func(m *packet.ICMPEcho, dst []byte, from, to netip.Addr) ([]byte, error) {
		if v6 {
			return m.AppendToV6(dst[:0], from, to)
		}
		return m.AppendTo(dst[:0]), nil
	}
	dec := func(m *packet.ICMPEcho, b []byte, from, to netip.Addr) error {
		if v6 {
			return m.DecodeFromV6(b, from, to)
		}
		return m.DecodeFrom(b)
	}
	b, err := enc(packet.NewICMPProbe(id, v6), buf[0], src, dst)
	if err != nil {
		return err
	}
	var rx packet.ICMPEcho
	if err := dec(&rx, b, src, dst); err != nil {
		return err
	}
	if b, err = enc(rx.EchoReply(v6), buf[1], dst, src); err != nil {
		return err
	}
	var echoed packet.ICMPEcho
	if err := dec(&echoed, b, dst, src); err != nil {
		return err
	}
	_, err = packet.ParseICMPPayload(echoed.Payload)
	return err
}

func tcpRoundTrip(buf [2][]byte, id packet.Identity, src, dst netip.Addr) error {
	b, err := packet.NewTCPProbe(id).AppendTo(buf[0][:0], src, dst)
	if err != nil {
		return err
	}
	var rx packet.TCPSegment
	if err := rx.DecodeFrom(b, src, dst); err != nil {
		return err
	}
	if b, err = rx.RSTReply().AppendTo(buf[1][:0], dst, src); err != nil {
		return err
	}
	var rst packet.TCPSegment
	if err := rst.DecodeFrom(b, dst, src); err != nil {
		return err
	}
	if !rst.IsProbeReply(id.Measurement) {
		return fmt.Errorf("RST does not match the measurement")
	}
	return nil
}

func dnsRoundTrip(buf [2][]byte, id packet.Identity) error {
	b, err := packet.NewDNSProbe(id, "census.laces.example", packet.DNSTypeA, packet.DNSClassIN).AppendTo(buf[0][:0])
	if err != nil {
		return err
	}
	var rx packet.DNSMessage
	if err := rx.DecodeFrom(b); err != nil {
		return err
	}
	if b, err = rx.Reply().AppendTo(buf[1][:0]); err != nil {
		return err
	}
	var resp packet.DNSMessage
	if err := resp.DecodeFrom(b); err != nil {
		return err
	}
	_, _, err = packet.ParseDNSProbeName(resp.Question[0].Name)
	return err
}
