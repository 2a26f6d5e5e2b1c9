// Package manycast implements the anycast-based measurement stage of
// LACeS (§4.2): probing every hitlist target once from every site of an
// anycast deployment with synchronized, offset-spaced probes, then
// classifying targets by the number of distinct vantage points that
// received replies. One receiving VP means unicast; two or more make the
// target an anycast candidate (AC) for the follow-up GCD stage.
//
// This is the in-process engine used by the census pipeline and the
// experiment harness. The distributed Orchestrator/Worker plane
// (internal/orchestrator, internal/worker, internal/client) performs the
// same measurement over real sockets and imports nothing from here: the
// client applies its own two-or-more-receivers rule to the replies the
// workers stream back. What the two share is the rate.Pacer schedule,
// the flow-header convention and the simulated Internet's routing
// decision — Run asks netsim for a whole train's receivers
// (World.AnycastTrain), worker.SimProber for one ProbeAnycast per probe,
// RTT included — and TestRunMatchesFabricProbers holds them to the same
// receivers for every target. That test drives the probers directly;
// what the sockets add on top — one measurement at a time, owned from
// start to release, and one wire.Endpoint under orchestrator, worker and
// client — is internal/orchestrator's package comment, and an Outcome
// compared with Run's Result through the sockets is still to be written.
package manycast

import (
	"fmt"
	"math/bits"
	"strings"
	"time"

	"github.com/laces-project/laces/internal/budget"
	"github.com/laces-project/laces/internal/hitlist"
	"github.com/laces-project/laces/internal/netsim"
	"github.com/laces-project/laces/internal/obs"
	"github.com/laces-project/laces/internal/packet"
	"github.com/laces-project/laces/internal/par"
	"github.com/laces-project/laces/internal/rate"
)

// StageLabel names the anycast-based stage's metric label for a
// protocol run: anycast_icmp, anycast_tcp or anycast_dns.
func StageLabel(p packet.Protocol) string {
	return "anycast_" + strings.ToLower(p.String())
}

// Options configures one anycast-based measurement.
type Options struct {
	Protocol packet.Protocol
	// Start is the measurement start time; it positions the measurement
	// on the census timeline (route churn, temporary anycast, …).
	Start time.Time
	// Offset is the spacing between consecutive workers' probes to the
	// same target (§4.2.3; the paper's default is 1 s, "mimicking a
	// regular ping sequence").
	Offset time.Duration
	// Rate is the hitlist consumption rate in targets per second (R3).
	// Zero means 10,000/s, the paper-equivalent daily-census rate.
	Rate float64
	// MeasurementID goes into the train's flow key as
	// netsim.FlowKey.StaticFlow, which the simulator never reads, so it
	// changes no result. It remains because bench/census.go sets it.
	MeasurementID uint16
	// MissingWorkers is the mask of deployment sites (bit i = site i) that
	// are disconnected for the duration of the run (failure awareness,
	// §4.2.3: the measurement is completed by the remaining workers, which
	// Result.Workers counts). Bits beyond the deployment are ignored.
	MissingWorkers uint64
	// Parallelism shards the target loop across this many goroutines
	// (<= 0 means GOMAXPROCS, 1 is sequential). The result is
	// byte-identical at every worker count: shards are contiguous hitlist
	// ranges whose observation buffers merge back in hitlist order.
	Parallelism int
	// Gate is the responsible-probing admission gate (R3 governance): it
	// is consulted once per hitlist entry, in hitlist order, before the
	// (possibly sharded) probing loop runs, charging one budget unit per
	// participating site. Denied entries are skipped and accounted in
	// Result.Usage — never silently dropped. A nil gate admits
	// everything, reproducing the ungoverned run byte-for-byte.
	Gate *budget.Gate
	// Obs receives the stage's telemetry (laces_stage_* series, the
	// pipeline span and live progress). Nil disables instrumentation;
	// telemetry never changes the result — the census is byte-identical
	// with Obs set or nil.
	Obs *obs.Registry
}

// DefaultRate is the daily-census hitlist rate in targets per second.
const DefaultRate = 10_000

// TargetObs is the per-target observation: which deployment sites
// received replies. Receiver sets are bitmasks, so deployments are limited
// to 64 sites — enough for Vultr+Melbicom's 48.
type TargetObs struct {
	TargetID  int
	Receivers uint64
}

// NumReceivers returns the count of distinct receiving VPs.
func (o TargetObs) NumReceivers() int { return bits.OnesCount64(o.Receivers) }

// IsCandidate reports whether the anycast-based stage classifies the
// target as an anycast candidate (two or more receiving VPs, §2.2).
func (o TargetObs) IsCandidate() bool { return o.NumReceivers() >= 2 }

// Result is the outcome of one measurement.
type Result struct {
	Deployment string
	Protocol   packet.Protocol
	Start      time.Time
	// Observations holds one entry per responsive hitlist target, in
	// hitlist order.
	Observations []TargetObs
	// ProbesSent counts transmitted probes (the probing-cost accounting
	// of Table 4).
	ProbesSent int64
	// Workers is the number of participating deployment sites.
	Workers int
	// Duration is the modelled wall-clock duration of the run at the
	// configured rate and offsets.
	Duration time.Duration
	// Usage is the governance accounting when Options.Gate was set: the
	// probe demand presented to the ledger and the split between charged
	// and denied targets (zero when ungoverned).
	Usage budget.Usage
}

// Candidates returns the IDs of targets classified as anycast candidates.
func (r *Result) Candidates() []int {
	var out []int
	for _, o := range r.Observations {
		if o.IsCandidate() {
			out = append(out, o.TargetID)
		}
	}
	return out
}

// CandidateSet returns the candidates as a set.
func (r *Result) CandidateSet() map[int]bool {
	out := make(map[int]bool)
	for _, o := range r.Observations {
		if o.IsCandidate() {
			out[o.TargetID] = true
		}
	}
	return out
}

// ReceiverHistogram buckets targets by number of receiving VPs — the rows
// of Table 2 and the x-axis of Fig 5.
func (r *Result) ReceiverHistogram() map[int]int {
	out := make(map[int]int)
	for _, o := range r.Observations {
		if n := o.NumReceivers(); n > 0 {
			out[n]++
		}
	}
	return out
}

// Run executes an anycast-based measurement of the hitlist entries
// answering opts.Protocol against the deployment: the one-protocol entry,
// which takes that protocol's target IDs from hl.
func Run(w *netsim.World, d *netsim.Deployment, hl *hitlist.Hitlist, opts Options) (*Result, error) {
	return run(w, d, hl.V6, hl.ProtocolIDs(opts.Protocol), opts)
}

// MultiProtocol runs one measurement per protocol over that protocol's
// list in hl and returns them keyed by protocol — the daily census probes
// ICMP, TCP and DNS (§4.3).
func MultiProtocol(w *netsim.World, d *netsim.Deployment, hl *hitlist.Lists, base Options, protos []packet.Protocol) (map[packet.Protocol]*Result, error) {
	out := make(map[packet.Protocol]*Result, len(protos))
	for _, p := range protos {
		opts := base
		opts.Protocol = p
		// Protocol runs are sequential: offset each start by the previous
		// run's duration.
		r, err := run(w, d, hl.V6, hl.IDs[p], opts)
		if err != nil {
			return nil, err
		}
		out[p] = r
		base.Start = base.Start.Add(r.Duration)
	}
	return out, nil
}

// run is the probing loop: one train per admitted ID of ids, the
// ascending targets answering opts.Protocol. It never writes ids.
func run(w *netsim.World, d *netsim.Deployment, v6 bool, ids []int, opts Options) (*Result, error) {
	if d.NumSites() > 64 {
		return nil, fmt.Errorf("manycast: deployment has %d sites, receiver bitmask supports 64", d.NumSites())
	}
	if opts.Rate == 0 {
		opts.Rate = DefaultRate
	}
	pacer, err := rate.NewPacer(opts.Start, opts.Rate, opts.Offset)
	if err != nil {
		return nil, fmt.Errorf("manycast: %w", err)
	}
	missing := opts.MissingWorkers & (1<<uint(d.NumSites()) - 1)
	res := &Result{
		Deployment: d.Name,
		Protocol:   opts.Protocol,
		Start:      opts.Start,
		Workers:    d.NumSites() - bits.OnesCount64(missing),
	}
	// One admitted target: one probe train — a probe from every
	// participating site, which is what the gate charges for it — folded
	// into a receiver bitmask.
	train := netsim.Train{
		Offset:  opts.Offset,
		Gap:     opts.Offset,
		Flow:    netsim.FlowKey{Proto: opts.Protocol, StaticFlow: uint64(opts.MeasurementID) + 1, VaryingPayload: 1},
		Missing: missing,
	}
	probe := func(sh *par.Shard[TargetObs]) func(int, *netsim.Target) {
		return func(i int, tg *netsim.Target) {
			tr := train
			tr.First = pacer.SendTime(i, 0)
			mask, probes, replies := w.AnycastTrain(d, tg, tr)
			sh.Probes += int64(probes)
			sh.Replies += int64(replies)
			if mask != 0 {
				sh.Out = append(sh.Out, TargetObs{TargetID: tg.ID, Receivers: mask})
			}
		}
	}
	sum, admitted := par.Run(par.Stage{
		Label: StageLabel(opts.Protocol), World: w, V6: v6,
		Gate: opts.Gate, Obs: opts.Obs, Parallelism: opts.Parallelism,
	}, ids, &res.Usage, func(id int) int { return id },
		func(*netsim.Target) int64 { return int64(res.Workers) }, probe)
	res.Observations, res.ProbesSent = sum.Out, sum.Probes
	res.Duration = pacer.Duration(admitted, d.NumSites())
	return res, nil
}
