// Package gcdmeas runs the latency-based GCD measurement campaigns of the
// LACeS pipeline (§4.3): the daily GCD towards anycast candidates using
// Ark, the periodic full-hitlist GCD_LS sweeps (§5.1.1), and the
// /32-granularity GCD_IPv4 sweep that uncovers partial anycast (§5.7).
// The analysis itself lives in internal/igreedy; this package collects the
// RTT samples from a VP pool and accounts probing cost.
//
// It also owns the §4.3 protocol rule, in Confirm: a target is measured
// over ICMP when it answers ICMP, over TCP when it answers TCP but not
// ICMP, and not at all otherwise — DNS is excluded because resolver
// processing time jitters the RTTs the discs are drawn from. The ICMP
// campaign runs first, so under a binding budget the ICMP targets are
// admitted, in list order, before any TCP target is. The daily pipeline,
// the GCD_LS sweep and the API's live measurement all go through Confirm;
// Run is one campaign of it (and what the experiments that fix a protocol
// call).
package gcdmeas

import (
	"strings"
	"time"

	"github.com/laces-project/laces/internal/budget"
	"github.com/laces-project/laces/internal/igreedy"
	"github.com/laces-project/laces/internal/netsim"
	"github.com/laces-project/laces/internal/obs"
	"github.com/laces-project/laces/internal/packet"
	"github.com/laces-project/laces/internal/par"
)

// StageLabel names the GCD stage's metric label for a protocol
// campaign: gcd_icmp or gcd_tcp.
func StageLabel(p packet.Protocol) string {
	return "gcd_" + strings.ToLower(p.String())
}

// SweepStage is the metric label of the /32-granularity address sweep.
const SweepStage = "gcd_sweep"

// Campaign configures one latency measurement campaign.
type Campaign struct {
	VPs []netsim.VP
	// Proto is the campaign's protocol, ICMP or TCP. Confirm sets it per
	// the §4.3 rule and ignores the caller's value.
	Proto packet.Protocol
	At    time.Time
	// Attempts per VP; the smallest RTT is kept (retries only shrink
	// discs). Zero means 1.
	Attempts int
	// Parallelism shards the target loop across this many goroutines
	// (<= 0 means GOMAXPROCS, 1 is sequential); results are byte-identical
	// at every worker count.
	Parallelism int
	// Gate is the responsible-probing admission gate (R3 governance),
	// consulted once per target in list order before the sharded probing
	// runs. Each target demands VPs × Attempts budget units (the
	// worst-case transmission count; unresponsive targets send fewer).
	// Denied targets are skipped and accounted in Report.Usage. A nil
	// gate admits everything.
	Gate *budget.Gate
	// Obs receives the stage's telemetry (laces_stage_* series, the RTT
	// histogram, the pipeline span and live progress). Nil disables
	// instrumentation; telemetry never changes the report.
	Obs *obs.Registry
}

// TargetOutcome is the GCD result for one target.
type TargetOutcome struct {
	TargetID int
	// Proto is the protocol the target was measured with.
	Proto  packet.Protocol
	Result igreedy.Result
	// VPs is the number of vantage points that obtained a sample; the
	// census publishes it because it bounds enumeration quality (§4.4).
	VPs int
}

// Report is the outcome of a campaign.
type Report struct {
	Outcomes map[int]TargetOutcome
	// ProbesSent counts transmitted probes (Table 4 cost accounting).
	ProbesSent int64
	// Usage is the governance accounting when Campaign.Gate was set
	// (zero when ungoverned).
	Usage budget.Usage
}

// Anycast returns the set of targets the campaign confirms as anycast.
func (r *Report) Anycast() map[int]bool {
	out := make(map[int]bool)
	for id, o := range r.Outcomes {
		if o.Result.Anycast {
			out[id] = true
		}
	}
	return out
}

// Confirm measures the listed targets under the §4.3 protocol rule (see
// the package comment): one ICMP campaign over the ICMP-responsive ones,
// then one TCP campaign over those answering TCP only, each in list
// order; DNS-only, unresponsive and out-of-range IDs are left out. The
// report is the two campaigns' merged — every outcome names its protocol.
// Admission is order-sensitive by design (first come, first charged), so
// callers present IDs in a reproducible order; the split walks the list,
// which is cheapest in ascending ID order.
func Confirm(w *netsim.World, targetIDs []int, v6 bool, c Campaign) *Report {
	var byProto [2][]int // indexed by packet.ICMP, packet.TCP
	wk := w.Walker(v6)
	for _, id := range targetIDs {
		if id < 0 || id >= w.NumTargets(v6) {
			continue
		}
		switch tg := wk.At(id); {
		case tg.Responsive[packet.ICMP]:
			byProto[packet.ICMP] = append(byProto[packet.ICMP], id)
		case tg.Responsive[packet.TCP]:
			byProto[packet.TCP] = append(byProto[packet.TCP], id)
		}
	}
	total := &Report{Outcomes: map[int]TargetOutcome{}}
	for proto, ids := range byProto {
		if len(ids) == 0 {
			continue
		}
		c.Proto = packet.Protocol(proto)
		rep := Run(w, ids, v6, c)
		total.ProbesSent += rep.ProbesSent
		total.Usage.Add(rep.Usage)
		if len(total.Outcomes) == 0 {
			total.Outcomes = rep.Outcomes // the ICMP campaign's map, typically most of the list
			continue
		}
		for id, o := range rep.Outcomes {
			total.Outcomes[id] = o
		}
	}
	return total
}

// Run measures the listed targets from every VP with c.Proto and
// analyses each with iGreedy.
func Run(w *netsim.World, targetIDs []int, v6 bool, c Campaign) *Report {
	attempts := c.Attempts
	if attempts < 1 {
		attempts = 1
	}
	rep := &Report{Outcomes: make(map[int]TargetOutcome, len(targetIDs))}
	// The RTT histogram records each VP's best sample; a no-op when Obs is
	// nil, and nothing in it feeds back into the report.
	rtts := c.Obs.Histogram("laces_gcd_rtt_seconds",
		"Best per-VP RTT samples collected by the GCD stage.", nil)

	// One admitted target: one fan of up to `attempts` probes from every VP
	// (the worst case is what the gate charges), the best RTT per VP kept
	// in the shard's buffer and analysed with iGreedy by VP index.
	vps, table := netsim.NewVPTable(c.VPs), c.igreedyTable()
	measure := func(sh *par.Shard[TargetOutcome]) func(int, *netsim.Target) {
		best := make([]time.Duration, len(c.VPs))
		return func(_ int, tg *netsim.Target) {
			probes, replies := w.UnicastFan(vps, tg, c.Proto, c.At, attempts, best)
			sh.Probes += int64(probes)
			sh.Replies += int64(replies)
			answered := 0
			for _, rtt := range best {
				if rtt != 0 {
					rtts.Observe(rtt.Seconds())
					answered++
				}
			}
			if answered == 0 {
				return
			}
			sh.Out = append(sh.Out, TargetOutcome{
				TargetID: tg.ID,
				Proto:    c.Proto,
				Result:   table.Analyze(best, igreedy.Options{}),
				VPs:      answered,
			})
		}
	}
	sum, _ := par.Run(c.stage(StageLabel(c.Proto), w, v6), targetIDs, &rep.Usage,
		func(id int) int { return id },
		func(*netsim.Target) int64 { return int64(len(c.VPs)) * int64(attempts) }, measure)
	rep.ProbesSent = sum.Probes
	for _, o := range sum.Out {
		rep.Outcomes[o.TargetID] = o
	}
	return rep
}

// igreedyTable is the campaign's VPs as iGreedy reads a fan.
func (c Campaign) igreedyTable() *igreedy.VPTable {
	vps := make([]igreedy.VP, len(c.VPs))
	for i, vp := range c.VPs {
		vps[i] = igreedy.VP{Name: vp.Name, Loc: vp.Loc}
	}
	return igreedy.NewVPTable(vps)
}

// stage binds the campaign's governance, telemetry and parallelism to one
// stage run over a family of w.
func (c Campaign) stage(label string, w *netsim.World, v6 bool) par.Stage {
	return par.Stage{Label: label, World: w, V6: v6, Gate: c.Gate, Obs: c.Obs, Parallelism: c.Parallelism}
}

// RunAddrSweep is the GCD_IPv4-style /32-granularity sweep over one
// prefix: it probes sampled address offsets within each target prefix and
// reports which offsets are anycast. Partial anycast is a prefix whose
// representative is unicast while some offset is anycast (§5.7).
type AddrSweepOutcome struct {
	TargetID int
	// AnycastOffsets are the address offsets confirmed anycast.
	AnycastOffsets []uint8
	// RepresentativeAnycast is true when the /24's representative address
	// itself is anycast.
	RepresentativeAnycast bool
}

// Partial reports whether the sweep found a partial-anycast prefix: a
// unicast representative with anycast addresses inside.
func (o AddrSweepOutcome) Partial() bool {
	return !o.RepresentativeAnycast && len(o.AnycastOffsets) > 0
}

// SweepAddrs probes the given offsets of every listed target prefix from
// every VP. The paper's sweep covered all four billion IPv4 addresses with
// 13 VPs over ten days; we cover a deterministic sample of offsets per
// prefix (the caller picks them). When the
// campaign carries a Gate, targets are admitted sequentially before the
// sharded sweep (each demands distinct-offsets × VPs budget units) and
// the returned Usage accounts every skipped target.
func SweepAddrs(w *netsim.World, targetIDs []int, v6 bool, offsets []uint8, c Campaign) ([]AddrSweepOutcome, int64, budget.Usage) {
	// Distinct configured offsets, mirroring dedupeOffsets: a target whose
	// representative collides with a configured offset demands one fewer
	// address.
	var seen [256]bool
	distinct := 0
	for _, off := range offsets {
		if !seen[off] {
			seen[off] = true
			distinct++
		}
	}
	demand := func(tg *netsim.Target) int64 {
		addrs := distinct
		if !seen[repOffset(tg)] {
			addrs++
		}
		return int64(addrs) * int64(len(c.VPs))
	}
	vps, table := netsim.NewVPTable(c.VPs), c.igreedyTable()
	sweep := func(sh *par.Shard[AddrSweepOutcome]) func(int, *netsim.Target) {
		best := make([]time.Duration, len(c.VPs))
		offs := make([]uint8, 0, len(offsets)+1)
		return func(_ int, tg *netsim.Target) {
			o := AddrSweepOutcome{TargetID: tg.ID}
			rep := repOffset(tg)
			offs = dedupeOffsets(offs[:0], offsets, rep)
			for _, off := range offs {
				clear(best)
				answered := 0
				for i := range c.VPs {
					sh.Probes++
					rtt, _, ok := w.ProbeAddrFrom(vps, i, tg, off, c.Proto, c.At, uint64(off))
					if !ok {
						continue
					}
					sh.Replies++
					best[i] = rtt
					answered++
				}
				if answered < 2 {
					continue
				}
				if table.Detect(best, igreedy.Options{}) {
					if off == rep {
						o.RepresentativeAnycast = true
					} else {
						o.AnycastOffsets = append(o.AnycastOffsets, off)
					}
				}
			}
			if o.RepresentativeAnycast || len(o.AnycastOffsets) > 0 {
				sh.Out = append(sh.Out, o)
			}
		}
	}
	var usage budget.Usage
	sum, _ := par.Run(c.stage(SweepStage, w, v6), targetIDs, &usage, func(id int) int { return id }, demand, sweep)
	return sum.Out, sum.Probes, usage
}

// repOffset is the last address byte of the target's representative.
func repOffset(tg *netsim.Target) uint8 {
	b := tg.Addr.AsSlice()
	return b[len(b)-1]
}

// dedupeOffsets appends to dst the distinct configured offsets plus the
// representative's offset. The representative used to be appended blindly,
// so a representative whose last octet collided with a configured offset
// was probed twice from every VP, inflating the Table-4 probe-cost
// accounting; each address is now probed exactly once per VP.
func dedupeOffsets(dst, offsets []uint8, rep uint8) []uint8 {
	var seen [256]bool
	for _, off := range offsets {
		if !seen[off] {
			seen[off] = true
			dst = append(dst, off)
		}
	}
	if !seen[rep] {
		dst = append(dst, rep)
	}
	return dst
}

// DefaultSweepOffsets returns the deterministic per-prefix address sample
// used by the GCD_IPv4 sweep: a spread of offsets that, combined with the
// representative, gives high probability of hitting a partial-anycast run
// (generated runs are 6 consecutive addresses).
func DefaultSweepOffsets() []uint8 {
	out := make([]uint8, 0, 43)
	for off := 8; off < 224; off += 5 {
		out = append(out, uint8(off))
	}
	return out
}
