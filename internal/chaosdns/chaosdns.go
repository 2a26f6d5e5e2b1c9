// Package chaosdns implements the CHAOS TXT census of Appendix C: querying
// nameservers for their RFC 4892 identity (id.server/TXT/CH) from every
// worker of the anycast deployment, counting distinct records as a
// (weak) anycast indicator and enumeration baseline.
//
// The paper's conclusions reproduce here: CHAOS records over-count sites
// for load-balanced co-located servers ("auth1"/"auth2"), under-cover
// because many nameservers do not implement CHAOS, and yet provide a
// useful side-by-side enumeration comparison (Fig 12).
package chaosdns

import (
	"time"

	"github.com/laces-project/laces/internal/budget"
	"github.com/laces-project/laces/internal/hitlist"
	"github.com/laces-project/laces/internal/netsim"
	"github.com/laces-project/laces/internal/obs"
	"github.com/laces-project/laces/internal/packet"
	"github.com/laces-project/laces/internal/par"
)

// Stage is the CHAOS census's metric label in the laces_stage_* series.
const Stage = "chaos"

// Observation is the CHAOS census output for one nameserver.
type Observation struct {
	TargetID int
	// Supported is false when the target does not answer CHAOS queries
	// (RFC 4892 is optional).
	Supported bool
	// Records is the set of distinct TXT values observed across workers.
	Records map[string]bool
}

// UniqueRecords returns the number of distinct identity strings.
func (o Observation) UniqueRecords() int { return len(o.Records) }

// MultiRecord reports whether the target returned more than one distinct
// record — the naive CHAOS anycast indicator, confounded by co-located
// servers.
func (o Observation) MultiRecord() bool { return len(o.Records) > 1 }

// Census queries every DNS-responsive hitlist entry from every worker of
// the deployment and collects the identity records. The entry loop is
// sharded across `parallelism` goroutines (<= 0 means GOMAXPROCS, 1 is
// sequential); per-target observations are independent, so the returned
// map is identical at every worker count. The gate, when non-nil, is the
// responsible-probing admission pre-pass (one budget unit per deployment
// site per entry, decided sequentially in hitlist order); denied entries
// are skipped and accounted in the returned Usage. reg, when non-nil,
// receives the stage's telemetry (never feeding back into the result).
func Census(w *netsim.World, d *netsim.Deployment, hl *hitlist.Hitlist, at time.Time, gate *budget.Gate, parallelism int, reg *obs.Registry) (map[int]Observation, budget.Usage) {
	var usage budget.Usage
	sum, _ := par.Run(par.Stage{Label: Stage, World: w, V6: hl.V6, Gate: gate, Obs: reg, Parallelism: parallelism},
		hl.FilterProtocol(packet.DNS), &usage,
		func(e hitlist.Entry) int { return e.TargetID },
		func(*netsim.Target) int64 { return int64(d.NumSites()) },
		func(sh *par.Shard[Observation]) func(int, *netsim.Target) {
			return func(_ int, tg *netsim.Target) {
				ob := Observation{TargetID: tg.ID, Records: make(map[string]bool)}
				for wk := 0; wk < d.NumSites(); wk++ {
					ctx := netsim.ProbeCtx{
						At:   at.Add(time.Duration(wk) * time.Second),
						Flow: netsim.FlowKey{Proto: packet.DNS, StaticFlow: 0xc4, VaryingPayload: uint64(wk + 1)},
						Gap:  time.Second,
						Seq:  uint64(tg.ID),
					}
					sh.Probes++
					del, ok := w.ProbeAnycast(d, wk, tg, ctx)
					if !ok {
						continue
					}
					sh.Replies++
					// Each query observes the record of the site (or co-located
					// server) that answered it.
					rec, ok := w.ChaosRecord(tg, del.SiteIdx, uint64(tg.ID)*64+uint64(wk))
					if !ok {
						continue
					}
					ob.Supported = true
					ob.Records[rec] = true
				}
				sh.Out = append(sh.Out, ob)
			}
		})
	out := make(map[int]Observation, len(sum.Out))
	for _, ob := range sum.Out {
		out[ob.TargetID] = ob
	}
	return out, usage
}

// Stats summarises a CHAOS census the way Appendix C reports it.
type Stats struct {
	Probed      int // nameservers probed
	Unsupported int // no CHAOS support
	MultiRecord int // returned multiple distinct records
}

// Summarize computes census statistics.
func Summarize(census map[int]Observation) Stats {
	var s Stats
	for _, o := range census {
		s.Probed++
		if !o.Supported {
			s.Unsupported++
			continue
		}
		if o.MultiRecord() {
			s.MultiRecord++
		}
	}
	return s
}
