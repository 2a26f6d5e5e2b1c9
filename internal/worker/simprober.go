package worker

import (
	"fmt"
	"net/netip"
	"time"

	"github.com/laces-project/laces/internal/netsim"
	"github.com/laces-project/laces/internal/packet"
	"github.com/laces-project/laces/internal/wire"
)

// SimProber probes the simulated Internet. It is deterministic, so every
// worker process computes — independently, without cross-worker
// communication — exactly the replies that would arrive at *its own* site,
// including replies elicited by other workers' probes. That mirrors the
// real system, where "the Internet" routes each reply to whichever anycast
// site is closest in BGP terms.
//
// To keep the distributed path faithful, each reply round-trips through
// the real packet codecs: the probe is encoded to bytes, the target's
// answer is built from those bytes, and the identity is parsed back from
// the echoed fields before a result is produced.
type SimProber struct {
	World      *netsim.World
	Deployment *netsim.Deployment
	Self       int
}

// NewSimProber builds a prober for one worker site.
func NewSimProber(w *netsim.World, d *netsim.Deployment, self int) (*SimProber, error) {
	if self < 0 || self >= d.NumSites() {
		return nil, fmt.Errorf("simprober: site %d outside deployment of %d", self, d.NumSites())
	}
	return &SimProber{World: w, Deployment: d, Self: self}, nil
}

// ProbeTarget implements Prober.
func (p *SimProber) ProbeTarget(def wire.MeasurementDef, addr netip.Addr, txTime time.Time) ([]Reply, error) {
	proto, err := packet.ParseProtocol(def.Protocol)
	if err != nil {
		return nil, err
	}
	// Only a target's representative address answers, and only under a
	// definition of its own family (the definition arrives over the
	// wire); any other address is silent.
	tg := p.World.FindTarget(netip.PrefixFrom(addr, addr.BitLen()))
	if tg == nil || tg.Addr != addr || addr.Is6() != def.V6 {
		return nil, nil
	}
	offset := time.Duration(def.OffsetMS) * time.Millisecond

	var replies []Reply
	for wk := 0; wk < p.Deployment.NumSites(); wk++ {
		identity := packet.Identity{
			Measurement: def.ID,
			Worker:      uint8(wk),
			TxTime:      txTime.Add(time.Duration(wk-p.Self) * offset).UTC(),
		}
		ctx := netsim.ProbeCtx{
			At:   identity.TxTime,
			Flow: netsim.FlowKey{Proto: proto, StaticFlow: uint64(def.ID) + 1, VaryingPayload: uint64(wk + 1)},
			Gap:  offset,
			Seq:  uint64(tg.ID),
		}
		del, ok := p.World.ProbeAnycast(p.Deployment, wk, tg, ctx)
		if !ok || del.WorkerIdx != p.Self {
			continue
		}
		reply, err := p.replyThroughCodecs(proto, identity, del)
		if err != nil {
			return nil, err
		}
		replies = append(replies, reply)
	}
	return replies, nil
}

// replyThroughCodecs encodes the original probe, synthesises the target's
// answer from the probe bytes, and recovers the identity from the echoed
// fields — the same matching a production worker performs on sniffed
// replies (§4.2.2).
func (p *SimProber) replyThroughCodecs(proto packet.Protocol, identity packet.Identity, del netsim.Delivery) (Reply, error) {
	switch proto {
	case packet.ICMP:
		probe := packet.NewICMPProbe(identity, false)
		buf := probe.AppendTo(nil)
		var rx packet.ICMPEcho
		if err := rx.DecodeFrom(buf); err != nil {
			return Reply{}, fmt.Errorf("simprober: decoding own probe: %w", err)
		}
		replyBytes := rx.EchoReply(false).AppendTo(nil)
		var echoed packet.ICMPEcho
		if err := echoed.DecodeFrom(replyBytes); err != nil {
			return Reply{}, fmt.Errorf("simprober: decoding reply: %w", err)
		}
		got, err := packet.ParseICMPPayload(echoed.Payload)
		if err != nil {
			return Reply{}, fmt.Errorf("simprober: recovering identity: %w", err)
		}
		return Reply{TxWorker: int(got.Worker), RTT: del.RTT}, nil

	case packet.TCP:
		probe := packet.NewTCPProbe(identity)
		rst := probe.RSTReply()
		if !rst.IsProbeReply(identity.Measurement) {
			return Reply{}, fmt.Errorf("simprober: RST did not match measurement")
		}
		return Reply{TxWorker: int(packet.TCPAckWorker(rst.Seq)), RTT: del.RTT}, nil

	case packet.DNS:
		q := packet.NewDNSProbe(identity, "census.laces.example", packet.DNSTypeA, packet.DNSClassIN)
		buf, err := q.AppendTo(nil)
		if err != nil {
			return Reply{}, err
		}
		var rxq packet.DNSMessage
		if err := rxq.DecodeFrom(buf); err != nil {
			return Reply{}, err
		}
		respBytes, err := rxq.Reply().AppendTo(nil)
		if err != nil {
			return Reply{}, err
		}
		var resp packet.DNSMessage
		if err := resp.DecodeFrom(respBytes); err != nil {
			return Reply{}, err
		}
		got, _, err := packet.ParseDNSProbeName(resp.Question[0].Name)
		if err != nil {
			return Reply{}, fmt.Errorf("simprober: recovering DNS identity: %w", err)
		}
		return Reply{TxWorker: int(got.Worker), RTT: del.RTT}, nil
	}
	return Reply{}, fmt.Errorf("simprober: unsupported protocol %v", proto)
}
