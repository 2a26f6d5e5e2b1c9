package packet

import (
	"fmt"
	"strings"
	"time"
)

// Identity is the probe identity LACeS embeds in every probe so that the
// reply alone — arriving possibly at a *different* worker than the sender,
// which is the whole point of anycast-based measurement — carries enough
// information to attribute it: which measurement, which worker transmitted,
// and when (§4.2.2).
//
// The echo field differs per protocol:
//   - ICMP: the 16-byte echo payload (targets echo it verbatim);
//   - DNS:  the query name (responders copy the question section);
//   - TCP:  the acknowledgement number of our SYN/ACK, which the target's
//     RST echoes as its sequence number. Only 32 bits are available, so
//     TCP carries a truncated identity (worker + wrapped microseconds).
type Identity struct {
	Measurement uint16    // measurement run identifier
	Worker      uint8     // index of the transmitting worker
	TxTime      time.Time // transmission timestamp
}

// icmpMagic marks LACeS ICMP payloads; responses not carrying it belong to
// other traffic and are discarded by workers ("Workers capture responses
// ... and ensure they belong to the ongoing measurement").
var icmpMagic = [4]byte{'L', 'A', 'C', 'E'}

// ICMPPayloadLen is the fixed length of the identity payload carried in
// ICMP echo probes.
const ICMPPayloadLen = 16

// AppendICMPPayload appends the 16-byte identity payload:
// magic(4) | measurement(2) | worker(1) | version(1) | txUnixNanos(8).
//
//laces:hotpath encodes every outgoing probe; appends into the caller's buffer
func (id Identity) AppendICMPPayload(dst []byte) []byte {
	var b [ICMPPayloadLen]byte
	copy(b[0:4], icmpMagic[:])
	put16(b[:], 4, id.Measurement)
	b[6] = id.Worker
	b[7] = 1 // payload format version
	nanos := uint64(id.TxTime.UnixNano())
	put32(b[:], 8, uint32(nanos>>32))
	put32(b[:], 12, uint32(nanos))
	return append(dst, b[:]...)
}

// ParseICMPPayload recovers an identity from an echoed ICMP payload.
func ParseICMPPayload(b []byte) (Identity, error) {
	if len(b) < ICMPPayloadLen {
		return Identity{}, fmt.Errorf("identity: payload %d bytes: %w", len(b), ErrTruncated)
	}
	if [4]byte(b[0:4]) != icmpMagic {
		return Identity{}, ErrBadMagic
	}
	if b[7] != 1 {
		return Identity{}, fmt.Errorf("identity: unsupported payload version %d", b[7])
	}
	nanos := uint64(get32(b, 8))<<32 | uint64(get32(b, 12))
	return Identity{
		Measurement: get16(b, 4),
		Worker:      b[6],
		TxTime:      time.Unix(0, int64(nanos)).UTC(),
	}, nil
}

// tcpAckMicrosBits is the number of low bits of the transmit timestamp (in
// microseconds) packed into the TCP acknowledgement number. 2^24 µs ≈ 16.8 s
// of wrap, far above any plausible RTT, so RTT recovery is unambiguous.
const tcpAckMicrosBits = 24

const tcpAckMicrosMask = 1<<tcpAckMicrosBits - 1

// TCPAck packs a truncated identity into a 32-bit acknowledgement number:
// worker(8) | txMicros(24). The measurement ID is carried out of band (the
// worker knows which measurement it is listening for, and validates the
// source port pair instead).
func TCPAck(worker uint8, txTime time.Time) uint32 {
	micros := uint32(txTime.UnixMicro()) & tcpAckMicrosMask
	return uint32(worker)<<tcpAckMicrosBits | micros
}

// TCPAckWorker extracts the worker index from an echoed acknowledgement
// number (the sequence number of the RST reply).
func TCPAckWorker(ack uint32) uint8 { return uint8(ack >> tcpAckMicrosBits) }

// dnsLabelPrefix starts every LACeS DNS probe label.
const dnsLabelPrefix = "lx"

// DNSProbeName builds the query name carrying the identity, e.g.
// "lx-002a-07-16fedcba98765432.probe.example.org." for measurement 0x2a,
// worker 7. Responders echo the question section, so the name round-trips
// in the reply (§4.2.2: "for DNS we encode information in the domain name
// of the request").
func DNSProbeName(id Identity, zone string) string {
	zone = strings.TrimSuffix(zone, ".")
	return fmt.Sprintf("%s-%04x-%02x-%016x.%s.",
		dnsLabelPrefix, id.Measurement, id.Worker, uint64(id.TxTime.UnixNano()), zone)
}

// ParseDNSProbeName recovers the identity and zone from a probe query name.
func ParseDNSProbeName(name string) (id Identity, zone string, err error) {
	name = strings.TrimSuffix(name, ".")
	label, rest, ok := strings.Cut(name, ".")
	if !ok {
		return Identity{}, "", fmt.Errorf("identity: query name %q has no zone: %w", name, ErrNotProbe)
	}
	parts := strings.Split(label, "-")
	if len(parts) != 4 || parts[0] != dnsLabelPrefix {
		return Identity{}, "", fmt.Errorf("identity: label %q: %w", label, ErrNotProbe)
	}
	var meas uint16
	var worker uint8
	var nanos uint64
	if _, err := fmt.Sscanf(parts[1], "%04x", &meas); err != nil {
		return Identity{}, "", fmt.Errorf("identity: measurement field %q: %w", parts[1], ErrNotProbe)
	}
	if _, err := fmt.Sscanf(parts[2], "%02x", &worker); err != nil {
		return Identity{}, "", fmt.Errorf("identity: worker field %q: %w", parts[2], ErrNotProbe)
	}
	if _, err := fmt.Sscanf(parts[3], "%016x", &nanos); err != nil {
		return Identity{}, "", fmt.Errorf("identity: txtime field %q: %w", parts[3], ErrNotProbe)
	}
	return Identity{
		Measurement: meas,
		Worker:      worker,
		TxTime:      time.Unix(0, int64(nanos)).UTC(),
	}, rest, nil
}
