package netsim

import (
	"math/bits"
	"slices"
	"strings"
	"time"

	"github.com/laces-project/laces/internal/packet"
)

// ProbeCtx carries the measurement context of a single probe.
type ProbeCtx struct {
	At   time.Time     // transmit time (drives churn epochs and day kinds)
	Flow FlowKey       // fields load balancers may hash over
	Gap  time.Duration // spacing between consecutive workers' probes (R3)
	Seq  uint64        // per-probe sequence, varies latency jitter
}

// kmPerMs is the propagation speed of light in fibre expressed in km per
// millisecond of one-way travel.
const kmPerMs = 200.0

// rttOverDistance turns a path length into a round-trip time: propagation
// at fibre speed times a deterministic stretch factor ≥ 1.15 (BGP paths are
// longer than geodesics), plus protocol processing time and jitter. The
// stretch floor guarantees GCD discs always contain the true responder, so
// the simulator can never manufacture an impossible speed-of-light
// violation.
//
//laces:hotpath called once per simulated probe
func (w *World) rttOverDistance(distKm float64, key uint64, proto packet.Protocol, seq uint64) time.Duration {
	k := mix(w.seed, key)
	stretch := 1.15 + 0.45*unitFloat(mixFrom(k, 0x4717))
	ms := 2 * distKm * stretch / kmPerMs
	switch proto {
	case packet.ICMP:
		ms += 0.15 + 1.2*unitFloat(mixFrom(k, seq, 0x1))
	case packet.TCP:
		ms += 0.2 + 1.6*unitFloat(mixFrom(k, seq, 0x2))
	case packet.DNS:
		// DNS request processing adds enough jitter that the paper
		// excludes DNS from GCD measurements (§4.3).
		ms += 2 + 24*unitFloat(mixFrom(k, seq, 0x3))
	}
	ms += 0.7 * unitFloat(mixFrom(k, seq, 0x9))
	return time.Duration(ms * float64(time.Millisecond))
}

// isV6 reports the target's family.
func isV6(tg *Target) bool { return tg.Addr.Is6() && !tg.Addr.Is4In6() }

// ProbeAnycast simulates one probe of the anycast-based stage: worker
// `worker` of deployment d probes tg. It returns where the reply lands
// (possibly a different worker — that is the measurement principle) or
// ok=false when the target does not respond.
func (w *World) ProbeAnycast(d *Deployment, worker int, tg *Target, ctx ProbeCtx) (Delivery, bool) {
	del, ok := w.probeAnycast(d, worker, tg, ctx)
	if t := w.tel; t != nil {
		countProbe(&t.anycast, uint64(tg.ID), ok)
	}
	return del, ok
}

// probeAnycast is ProbeAnycast without the accounting wrapper: a plan for
// this one probe, its step, and the RTT over the path the step chose.
//
//laces:hotpath called once per anycast-stage probe
func (w *World) probeAnycast(d *Deployment, worker int, tg *Target, ctx ProbeCtx) (Delivery, bool) {
	if !tg.Responsive[ctx.Flow.Proto] {
		return Delivery{}, false
	}
	var p anycastPlan
	recv, site, extraRTT, ok := w.stepAnycast(&p, d, worker, tg, &ctx)
	w.countSites(tg, p.sites)
	if !ok {
		return Delivery{}, false
	}
	workerCity := d.Sites[worker].CityIdx
	var dist float64
	var arm uint64
	switch p.kind {
	case Anycast:
		fromCity := tg.Sites[site].CityIdx
		dist = (w.distKm(workerCity, fromCity) + w.distKm(fromCity, d.Sites[recv].CityIdx)) / 2
		arm = 0xa
	case GlobalUnicast:
		// The probe ingresses at edge PoP `site` and routes internally to
		// the single server, which is what the latency reflects.
		ingress := tg.Sites[site].CityIdx
		dist = w.distKm(workerCity, ingress) + w.distKm(ingress, tg.CityIdx)
		site, arm = -1, 0xb
	default: // Unicast, PartialAnycast, BackingAnycast representatives
		dist = (w.distKm(workerCity, tg.CityIdx) + w.distKm(tg.CityIdx, d.Sites[recv].CityIdx)) / 2
		arm = 0xc
	}
	rtt := w.rttOverDistance(dist, mix(w.seed, uint64(tg.ID), uint64(worker), arm), ctx.Flow.Proto, ctx.Seq)
	return Delivery{WorkerIdx: recv, RTT: rtt + extraRTT, SiteIdx: site}, true
}

// stepAnycast decides one probe of the anycast stage to a target
// responsive on ctx.Flow.Proto: whether a reply comes back, the deployment
// site that receives it, and the target site (or global-unicast ingress
// PoP) that answered, -1 for single-location kinds. p carries what the
// target's probes share from one step to the next; it is resolved here
// whenever the probe's effective day — after the impairer's TimeShift — is
// not the day p was planned for, so a zero plan is a valid start.
//
//laces:hotpath called once per anycast-stage probe that needs its own decision
func (w *World) stepAnycast(p *anycastPlan, d *Deployment, worker int, tg *Target, ctx *ProbeCtx) (recv, site int, extraRTT time.Duration, ok bool) {
	sent := ctx.At
	if w.imp != nil {
		pi := w.imp.ImpairAnycast(d, worker, tg, *ctx)
		if pi.Drop {
			return 0, -1, 0, false
		}
		if pi.TimeShift != 0 {
			sent = sent.Add(pi.TimeShift)
		}
		extraRTT = pi.ExtraRTT
	}
	if day := DayOf(sent); !p.planned || p.day != day {
		w.planAnycast(p, d, tg, ctx.Flow.Proto, ctx.Gap, day)
	}
	if p.limited && chance(mix(w.seed, uint64(tg.ID), uint64(worker), uint64(p.day), 0x11), 0.35) {
		return 0, -1, 0, false
	}
	at, varying := sent.Unix(), ctx.Flow.VaryingPayload
	workerCity := d.Sites[worker].CityIdx
	switch p.kind {
	case Anycast:
		site = w.siteIn(p.row, tg, workerCity, &p.sites)
		v := w.replyCatchment(d, tg.Origin, tg.Sites[site].CityIdx)
		return w.receive(p, d, tg, v, worker, varying, at), site, extraRTT, true
	case GlobalUnicast:
		// Probes ingress at the nearest edge PoP, route internally to the
		// single server, and replies egress at one of a handful of egress
		// edges near the ingress. Distinct workers therefore surface at a
		// small number (2–3) of VPs — the paper's Microsoft ℳ pattern
		// (§5.1.3, Table 2).
		site = w.siteIn(p.row, tg, workerCity, &p.sites)
		v := w.replyCatchment(d, tg.Origin, w.egressEdge(tg, workerCity, p.day))
		return w.receive(p, d, tg, v, worker, varying, at), site, extraRTT, true
	default:
		return w.receive(p, d, tg, p.home, worker, varying, at), -1, extraRTT, true
	}
}

// Train is one synchronized probe train of the anycast stage (§4.2.3):
// every connected site of a deployment probes the same target, site wk
// transmitting at First + wk×Offset.
type Train struct {
	First  time.Time
	Offset time.Duration
	// Gap and Flow are what each probe's ProbeCtx carries (Seq is the
	// target ID). Flow.Proto and Flow.StaticFlow are the train's; a
	// non-zero Flow.VaryingPayload means payloads vary per probe — site
	// wk's carries wk+1 — and zero means static probes (§5.1.4).
	Gap  time.Duration
	Flow FlowKey
	// Missing has bit wk set for a disconnected site: it sends no probe
	// and replies routed to it are lost.
	Missing uint64
}

// AnycastTrain simulates a whole probe train and keeps what the anycast
// stage keeps of it: the mask of connected sites that received a reply,
// the probes sent and the replies the target returned (lost ones
// included). It is the fold of one ProbeAnycast per connected site, minus
// the RTTs — and minus the per-site loop when the plan says every reply
// lands at the same site. d must have at most 64 sites.
func (w *World) AnycastTrain(d *Deployment, tg *Target, tr Train) (recv uint64, probes, replies int) {
	sending := ^tr.Missing
	if n := len(d.Sites); n < 64 {
		sending &= 1<<uint(n) - 1
	}
	probes = bits.OnesCount64(sending)
	recv, replies = w.anycastTrain(d, tg, tr, sending)
	if t := w.tel; t != nil {
		t.anycast.Add(uint64(tg.ID), int64(probes)+int64(replies)*telReply)
	}
	return recv &^ tr.Missing, probes, replies
}

// anycastTrain is AnycastTrain without the accounting wrapper; sending is
// the mask of sites that transmit.
//
//laces:hotpath called once per anycast-stage target
func (w *World) anycastTrain(d *Deployment, tg *Target, tr Train, sending uint64) (recv uint64, replies int) {
	if sending == 0 || !tg.Responsive[tr.Flow.Proto] {
		return 0, 0
	}
	var p anycastPlan
	if w.imp == nil {
		// With no impairer to drop or shift single probes, a train that
		// stays within one census day has one plan, and a steady plan
		// answers for every probe at once.
		day := DayOf(tr.First)
		if DayOf(tr.First.Add(time.Duration(len(d.Sites)-1)*tr.Offset)) == day {
			w.planAnycast(&p, d, tg, tr.Flow.Proto, tr.Gap, day)
			if p.steady() {
				return 1 << p.home.top[0], bits.OnesCount64(sending)
			}
		}
	}
	ctx := ProbeCtx{Flow: tr.Flow, Gap: tr.Gap, Seq: uint64(tg.ID)}
	for m := sending; m != 0; m &= m - 1 {
		wk := bits.TrailingZeros64(m)
		ctx.At = tr.First.Add(time.Duration(wk) * tr.Offset)
		if tr.Flow.VaryingPayload != 0 {
			ctx.Flow.VaryingPayload = uint64(wk + 1)
		}
		if r, _, _, ok := w.stepAnycast(&p, d, wk, tg, &ctx); ok {
			replies++
			recv |= 1 << uint(r)
		}
	}
	w.countSites(tg, p.sites)
	return recv, replies
}

// VPTable is a GCD campaign's vantage points resolved once for all its
// targets: each VP with its identity hash, the key of its per-day loss draw
// and of its RTTs. Build one per campaign with NewVPTable; it is read-only
// after that, so a campaign's shards share it.
type VPTable struct {
	vps  []VP
	hash []uint64 // hashString(vps[i].Name)
}

// NewVPTable builds the table of a campaign's VPs, in order: VP i of the
// table is vps[i].
func NewVPTable(vps []VP) *VPTable {
	t := &VPTable{vps: slices.Clone(vps), hash: make([]uint64, len(vps))}
	for i := range vps {
		t.hash[i] = hashString(vps[i].Name)
	}
	return t
}

// UnicastFan probes tg from every VP of the table the way the GCD stage
// does: one probe per VP. It writes each VP's RTT to best[i] — 0 for a VP
// without a reply; a modelled RTT is at least 0.15 ms — and returns the
// probes sent (one per VP) and the replies received. It is the fold of one
// ProbeUnicast per VP, with what those probes share — responsiveness, the
// day and the target's kind on it, its catchment row — resolved once.
// best must hold at least t.Len() entries.
func (w *World) UnicastFan(t *VPTable, tg *Target, proto packet.Protocol, at time.Time, best []time.Duration) (probes, replies int) {
	var p unicastPlan
	probes, replies = len(t.vps), w.unicastFan(&p, t, tg, proto, at, best[:len(t.vps)])
	if tel := w.tel; tel != nil {
		tel.unicast.Add(uint64(tg.ID), int64(probes)+int64(replies)*telReply)
	}
	w.countSites(tg, p.sites)
	return probes, replies
}

// unicastFan is UnicastFan without the accounting wrapper; best has one
// entry per VP of t, p is the zero plan the fan resolves, and it returns
// the replies received.
//
//laces:hotpath called once per GCD-stage target
func (w *World) unicastFan(p *unicastPlan, t *VPTable, tg *Target, proto packet.Protocol, at time.Time, best []time.Duration) (replies int) {
	clear(best)
	if !tg.Responsive[proto] {
		return 0 // every VP's probe goes unanswered
	}
	w.planUnicast(p, tg, DayOf(at))
	for i := range best {
		vp := &t.vps[i]
		sent, extraRTT, drop := w.impairUnicast(vp, tg, proto, at)
		if drop {
			continue
		}
		if w.imp != nil && DayOf(sent) != p.day {
			w.planUnicast(p, tg, DayOf(sent))
		}
		key := mix(w.seed, t.hash[i], uint64(tg.ID))
		dist, _, ok := w.unicastPath(p, tg, vp, key)
		if !ok {
			continue
		}
		best[i] = w.rttOverDistance(dist, key, proto, 0) + extraRTT
		replies++
	}
	return replies
}

// ProbeUnicast simulates one latency probe from a unicast vantage point
// (the GCD stage): it returns the measured RTT and the responding site
// index (-1 for unicast responders), or ok=false when unresponsive. It is
// a plan for this one probe and its step; the GCD stage itself probes a
// target from all its VPs at once with UnicastFan.
func (w *World) ProbeUnicast(vp VP, tg *Target, proto packet.Protocol, at time.Time, seq uint64) (time.Duration, int, bool) {
	rtt, site, ok := w.probeUnicastFull(&vp, hashString(vp.Name), tg, proto, at, seq)
	if t := w.tel; t != nil {
		countProbe(&t.unicast, uint64(tg.ID), ok)
	}
	return rtt, site, ok
}

// probeUnicastFull is ProbeUnicast without the accounting wrapper; h is
// hashString(vp.Name).
//
//laces:hotpath called once per GCD-stage probe outside a fan
func (w *World) probeUnicastFull(vp *VP, h uint64, tg *Target, proto packet.Protocol, at time.Time, seq uint64) (time.Duration, int, bool) {
	if !tg.Responsive[proto] {
		return 0, -1, false
	}
	at, extraRTT, drop := w.impairUnicast(vp, tg, proto, at)
	if drop {
		return 0, -1, false
	}
	var p unicastPlan
	w.planUnicast(&p, tg, DayOf(at))
	key := mix(w.seed, h, uint64(tg.ID))
	dist, site, ok := w.unicastPath(&p, tg, vp, key)
	w.countSites(tg, p.sites)
	if !ok {
		return 0, -1, false
	}
	return w.rttOverDistance(dist, key, proto, seq) + extraRTT, site, true
}

// impairUnicast consults the fault-injection hook for one unicast probe.
// With no impairer installed it is a single nil check.
//
//laces:hotpath called once per GCD-stage probe
func (w *World) impairUnicast(vp *VP, tg *Target, proto packet.Protocol, at time.Time) (time.Time, time.Duration, bool) {
	if w.imp == nil {
		return at, 0, false
	}
	pi := w.imp.ImpairUnicast(*vp, tg, proto, at)
	if pi.Drop {
		return at, 0, true
	}
	if pi.TimeShift != 0 {
		at = at.Add(pi.TimeShift)
	}
	return at, pi.ExtraRTT, false
}

// unicastPlan is what the GCD-stage probes of one target on one census day
// share: the day, the target's kind on it and, for kinds answered from a
// per-VP site, the target's catchment row, with the resolutions of its
// entries counted in sites.
type unicastPlan struct {
	day   int
	kind  TargetKind
	row   siteRow
	sites siteCount
}

// planUnicast resolves into p the plan for probes of tg on census day
// `day`, keeping the row and counts of an earlier day's plan.
func (w *World) planUnicast(p *unicastPlan, tg *Target, day int) {
	p.day, p.kind = day, tg.KindAt(day)
	if p.row == nil && p.kind != Unicast && p.kind != PartialAnycast {
		p.row = w.siteRowOf(tg)
	}
}

// unicastPath is the step of one VP's probes to a planned, responsive and
// unimpaired target: the path length their RTTs are drawn over and the
// responding site (-1 for single-location responders), or ok=false when
// the day's per-(VP, target) measurement failure hits. key is the pair's
// RTT key, mix(seed, hashString(vp.Name), tg.ID).
//
//laces:hotpath called once per GCD-stage VP and target
func (w *World) unicastPath(p *unicastPlan, tg *Target, vp *VP, key uint64) (dist float64, site int, ok bool) {
	// Transient per-(VP, target, day) measurement failure: the path from
	// this monitor yields no samples today (§5.1.2's "probe measurement
	// failures"). Retries within the day cannot recover it, which is why
	// gcdmeas sends one probe per VP.
	if w.Cfg.GCDLossFrac > 0 &&
		chance(mixFrom(key, uint64(p.day), 0x6e55), w.Cfg.GCDLossFrac) {
		return 0, -1, false
	}
	switch p.kind {
	case Anycast:
		site = w.siteIn(p.row, tg, vp.CityIdx, &p.sites)
		return w.distKm(vp.CityIdx, tg.Sites[site].CityIdx), site, true
	case GlobalUnicast:
		edge := w.siteIn(p.row, tg, vp.CityIdx, &p.sites)
		return w.distKm(vp.CityIdx, tg.Sites[edge].CityIdx) + w.distKm(tg.Sites[edge].CityIdx, tg.CityIdx), -1, true
	case BackingAnycast:
		if vp.FiltersSpecifics {
			// The VP's host AS never learned the more-specific unicast
			// route; traffic follows the backing anycast announcement to
			// the nearest PoP (§6's Fastly IPv6 false-positive case).
			site = w.siteIn(p.row, tg, vp.CityIdx, &p.sites)
			return w.distKm(vp.CityIdx, tg.Sites[site].CityIdx), site, true
		}
	}
	return w.distKm(vp.CityIdx, tg.CityIdx), -1, true
}

// ProbeAddrFrom is ProbeUnicast at /32 (or /128) granularity, from VP i
// of a campaign's table, which carries the VP's identity hash: the
// sweep's probe. offset selects an address within the target prefix. For
// partial-anycast prefixes the hidden anycast addresses behave as
// anycast; all other non-representative addresses are unicast and only
// probabilistically responsive. This is the primitive behind the GCD_IPv4
// sweep (§5.7).
func (w *World) ProbeAddrFrom(t *VPTable, i int, tg *Target, offset uint8, proto packet.Protocol, at time.Time, seq uint64) (time.Duration, int, bool) {
	return w.probeAddrCounted(&t.vps[i], t.hash[i], tg, offset, proto, at, seq)
}

// probeAddrCounted is probeUnicastAddr with its accounting.
func (w *World) probeAddrCounted(vp *VP, h uint64, tg *Target, offset uint8, proto packet.Protocol, at time.Time, seq uint64) (time.Duration, int, bool) {
	rtt, site, ok := w.probeUnicastAddr(vp, h, tg, offset, proto, at, seq)
	if t := w.tel; t != nil {
		countProbe(&t.unicast, uint64(tg.ID), ok)
	}
	return rtt, site, ok
}

// probeUnicastAddr is ProbeAddrFrom without the accounting wrapper; h is
// hashString(vp.Name).
//
//laces:hotpath called once per address in the /24 sweep
func (w *World) probeUnicastAddr(vp *VP, h uint64, tg *Target, offset uint8, proto packet.Protocol, at time.Time, seq uint64) (time.Duration, int, bool) {
	if tg.Kind == PartialAnycast {
		for _, a := range tg.PartialAddrs {
			if a == offset {
				// The sweep's direct branches have no time-dependent
				// behaviour, so an impairer's TimeShift is a no-op here
				// (unlike ProbeUnicast, where it moves churn epochs).
				_, extraRTT, drop := w.impairUnicast(vp, tg, proto, at)
				if drop {
					return 0, -1, false
				}
				site := w.targetSite(tg, vp.CityIdx)
				key := mix(w.seed, h, uint64(tg.ID), uint64(offset))
				return w.rttOverDistance(w.distKm(vp.CityIdx, tg.Sites[site].CityIdx), key, proto, seq) + extraRTT, site, true
			}
		}
	}
	if repOffset(tg) == offset {
		return w.probeUnicastFull(vp, h, tg, proto, at, seq)
	}
	// Non-representative addresses: responsive with moderate probability.
	if !chance(mix(w.seed, uint64(tg.ID), uint64(offset), 0x3e59), 0.3) {
		return 0, -1, false
	}
	_, extraRTT, drop := w.impairUnicast(vp, tg, proto, at)
	if drop {
		return 0, -1, false
	}
	key := mix(w.seed, h, uint64(tg.ID), uint64(offset))
	return w.rttOverDistance(w.distKm(vp.CityIdx, tg.CityIdx), key, proto, seq) + extraRTT, -1, true
}

// repOffset returns the last byte of the representative address.
func repOffset(tg *Target) uint8 {
	b := tg.Addr.AsSlice()
	return b[len(b)-1]
}

// ChaosRecord returns the CHAOS id.server TXT value a DNS target at the
// given responding site answers with, or ok=false when the target does not
// implement CHAOS (App C).
func (w *World) ChaosRecord(tg *Target, siteIdx int, probeHash uint64) (string, bool) {
	if !tg.Responsive[packet.DNS] {
		return "", false
	}
	switch tg.Chaos {
	case ChaosPerSite:
		name := "home"
		if siteIdx >= 0 && siteIdx < len(tg.Sites) {
			name = tg.Sites[siteIdx].City.Name
		} else if tg.CityIdx < w.nCities {
			name = w.DB.All()[tg.CityIdx].Name
		}
		return "site-" + sanitizeLabel(name), true
	case ChaosPerServer:
		n := tg.CoLocated
		if n < 2 {
			n = 2
		}
		return "auth" + string(rune('1'+pick(probeHash, n))), true
	case ChaosReplicated:
		return "ns1", true
	default:
		return "", false
	}
}

// sanitizeLabel lowercases a city name into a DNS-label-safe token.
func sanitizeLabel(s string) string {
	s = strings.ToLower(s)
	return strings.ReplaceAll(s, " ", "-")
}
