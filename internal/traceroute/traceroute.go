// Package traceroute implements TTL-based forward-path measurement over
// the simulated Internet, and the analyses LACeS derives from it:
//
//   - confirming global-BGP unicast: §5.1.3 uses traceroute to show that
//     Microsoft-style ℳ prefixes ingress the operator network at distinct
//     PoPs while terminating at a single server, and names "include global
//     BGP in our census" as future work — the Fanout signature, which the
//     census's screen stage (internal/core) publishes as the GlobalBGP flag;
//   - ACE-style site enumeration from router fingerprints (Fan et al.,
//     §2.3), the paper's §5.2 future-work route to separating anycast
//     sites that GCD merges (the Prague/Bratislava/Vienna case of §6).
//
// The engine sends real probe bytes: each TTL step encodes an ICMP echo
// with the LACeS identity payload behind an IPv4/IPv6 header, routers
// answer with ICMP time-exceeded errors quoting the probe, and the engine
// recovers the identity from the quote exactly as a raw-socket
// implementation would.
package traceroute

import (
	"fmt"
	"net/netip"
	"time"

	"github.com/laces-project/laces/internal/netsim"
	"github.com/laces-project/laces/internal/packet"
)

// Options configures a trace.
type Options struct {
	// At positions the trace on the census timeline.
	At time.Time
	// Measurement tags probe identities.
	Measurement uint16
}

// MaxTTL bounds the probe TTL, and so the probes one trace sends.
const MaxTTL = 30

// Hop is one answered (or silent) TTL step.
type Hop struct {
	TTL int
	// Router is the responding router's name; empty for a silent hop.
	Router string
	// Owner is the responding router's operating AS (0 = source gateway
	// or silent hop).
	Owner netsim.ASN
	// CityIdx locates the router; -1 for silent hops.
	CityIdx int
	// RTT is the measured round-trip time; 0 for silent hops.
	RTT time.Duration
	// PoP marks the target operator's edge router.
	PoP bool
	// Dest marks the final echo reply from the target itself.
	Dest bool
}

// Path is the outcome of one trace.
type Path struct {
	VP       string
	TargetID int
	Hops     []Hop
	// Reached reports whether the target answered the final probe.
	Reached bool
	// ProbesSent counts transmitted probes (cost accounting, R3).
	ProbesSent int64
}

// Run traces the forward path from vp to the target. Probe packets are
// fully encoded and the identity is recovered from the quoted datagram in
// each time-exceeded answer, so the probe-matching path is exercised on
// real bytes end to end.
func Run(w *netsim.World, vp netsim.VP, tg *netsim.Target, opts Options) (*Path, error) {
	hops := w.TracePath(vp, tg, opts.At)
	p := &Path{VP: vp.Name, TargetID: tg.ID}
	v6 := tg.Addr.Is6() && !tg.Addr.Is4In6()

	for ttl := 1; ttl <= len(hops) && ttl <= MaxTTL; ttl++ {
		h := hops[ttl-1]
		id := packet.Identity{
			Measurement: opts.Measurement,
			Worker:      uint8(ttl),
			TxTime:      opts.At.Add(time.Duration(ttl) * 20 * time.Millisecond),
		}
		probe, err := encodeProbe(id, vp, tg, ttl, v6)
		if err != nil {
			return nil, fmt.Errorf("traceroute: ttl %d: %w", ttl, err)
		}
		p.ProbesSent++

		switch {
		case h.Dest:
			if !tg.Responsive[packet.ICMP] {
				// The path reaches the target but it never answers echo
				// probes; the trace ends with silence.
				p.Hops = append(p.Hops, silent(ttl))
				continue
			}
			got, err := answerEcho(probe, v6, vp, tg)
			if err != nil {
				return nil, fmt.Errorf("traceroute: ttl %d echo: %w", ttl, err)
			}
			if got != id.Measurement {
				return nil, fmt.Errorf("traceroute: ttl %d: reply for measurement %d, sent %d", ttl, got, id.Measurement)
			}
			p.Hops = append(p.Hops, Hop{
				TTL: ttl, Router: h.Label, Owner: h.Owner,
				CityIdx: h.CityIdx, RTT: h.RTT, Dest: true,
			})
			p.Reached = true
		case h.NoReply:
			p.Hops = append(p.Hops, silent(ttl))
		default:
			gotID, err := answerTimeExceeded(probe, v6, vp, tg)
			if err != nil {
				return nil, fmt.Errorf("traceroute: ttl %d time-exceeded: %w", ttl, err)
			}
			if gotID.Measurement != opts.Measurement || gotID.Worker != uint8(ttl) {
				return nil, fmt.Errorf("traceroute: ttl %d: quoted identity %+v does not match probe", ttl, gotID)
			}
			p.Hops = append(p.Hops, Hop{
				TTL: ttl, Router: h.Label, Owner: h.Owner,
				CityIdx: h.CityIdx, RTT: h.RTT, PoP: h.PoP,
			})
		}
	}
	return p, nil
}

// silent is the "*" row.
func silent(ttl int) Hop { return Hop{TTL: ttl, CityIdx: -1} }

// encodeProbe builds the full probe datagram bytes for one TTL step.
func encodeProbe(id packet.Identity, vp netsim.VP, tg *netsim.Target, ttl int, v6 bool) ([]byte, error) {
	echo := packet.NewICMPProbe(id, v6)
	src := sourceAddr(vp, v6)
	if v6 {
		icmp, err := echo.AppendToV6(nil, src, tg.Addr)
		if err != nil {
			return nil, err
		}
		hdr := packet.IPv6{HopLimit: uint8(ttl), NextHeader: packet.ProtoICMPv6, Src: src, Dst: tg.Addr}
		b, err := hdr.AppendTo(nil, len(icmp))
		if err != nil {
			return nil, err
		}
		return append(b, icmp...), nil
	}
	icmp := echo.AppendTo(nil)
	hdr := packet.IPv4{TTL: uint8(ttl), Protocol: packet.ProtoICMP, Src: src, Dst: tg.Addr}
	b, err := hdr.AppendTo(nil, len(icmp))
	if err != nil {
		return nil, err
	}
	return append(b, icmp...), nil
}

// answerTimeExceeded plays the router side: quote the probe in a
// time-exceeded error, put it on the wire, then decode it back and
// recover the identity like the receiving socket would.
func answerTimeExceeded(probe []byte, v6 bool, vp netsim.VP, tg *netsim.Target) (packet.Identity, error) {
	if v6 {
		// ICMPv6 errors quote as much of the packet as fits; identity
		// recovery for v6 works on the quoted bytes after the IPv6
		// header.
		te := packet.NewTimeExceeded(true, probe)
		src := tg.Addr
		wire, err := te.AppendToV6(nil, src, sourceAddr(vp, true))
		if err != nil {
			return packet.Identity{}, err
		}
		var dec packet.TimeExceeded
		if err := dec.DecodeFromV6(wire, src, sourceAddr(vp, true)); err != nil {
			return packet.Identity{}, err
		}
		var hdr packet.IPv6
		payload, err := hdr.DecodeFrom(dec.Quote)
		if err != nil {
			return packet.Identity{}, err
		}
		if len(payload) < 8 {
			return packet.Identity{}, fmt.Errorf("quoted ICMPv6 too short")
		}
		return packet.ParseICMPPayload(payload[8:])
	}
	wire := packet.NewTimeExceeded(false, probe).AppendTo(nil)
	var dec packet.TimeExceeded
	if err := dec.DecodeFrom(wire); err != nil {
		return packet.Identity{}, err
	}
	return dec.QuotedIdentity()
}

// answerEcho plays the target side for the final hop: decode the probe,
// produce the echo reply, decode that, and return the measurement tag.
func answerEcho(probe []byte, v6 bool, vp netsim.VP, tg *netsim.Target) (uint16, error) {
	if v6 {
		var hdr packet.IPv6
		payload, err := hdr.DecodeFrom(probe)
		if err != nil {
			return 0, err
		}
		var req packet.ICMPEcho
		if err := req.DecodeFromV6(payload, hdr.Src, hdr.Dst); err != nil {
			return 0, err
		}
		wire, err := req.EchoReply(true).AppendToV6(nil, tg.Addr, sourceAddr(vp, true))
		if err != nil {
			return 0, err
		}
		var rep packet.ICMPEcho
		if err := rep.DecodeFromV6(wire, tg.Addr, sourceAddr(vp, true)); err != nil {
			return 0, err
		}
		id, err := packet.ParseICMPPayload(rep.Payload)
		return id.Measurement, err
	}
	var hdr packet.IPv4
	payload, err := hdr.DecodeFrom(probe)
	if err != nil {
		return 0, err
	}
	var req packet.ICMPEcho
	if err := req.DecodeFrom(payload); err != nil {
		return 0, err
	}
	wire := req.EchoReply(false).AppendTo(nil)
	var rep packet.ICMPEcho
	if err := rep.DecodeFrom(wire); err != nil {
		return 0, err
	}
	id, err := packet.ParseICMPPayload(rep.Payload)
	return id.Measurement, err
}

// sourceAddr gives the VP a stable documentation-range source address.
func sourceAddr(vp netsim.VP, v6 bool) netip.Addr {
	h := uint32(0x811c9dc5)
	for _, c := range vp.Name {
		h ^= uint32(c)
		h *= 16777619
	}
	if v6 {
		var b [16]byte
		b[0], b[1] = 0x20, 0x01
		b[2], b[3] = 0x0d, 0xb8
		b[12] = byte(h >> 24)
		b[13] = byte(h >> 16)
		b[14] = byte(h >> 8)
		b[15] = byte(h) | 1
		return netip.AddrFrom16(b)
	}
	// 198.18.0.0/15 (benchmarking range).
	return netip.AddrFrom4([4]byte{198, 18, byte(h >> 8), byte(h) | 1})
}
