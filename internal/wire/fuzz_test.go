package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"net"
	"runtime"
	"testing"
)

// peerStream is a connection whose peer has already said everything it
// will ever say.
type peerStream struct {
	io.Reader
	net.Conn
}

func (p peerStream) Read(b []byte) (int, error) { return p.Reader.Read(b) }

// frame renders one frame as it travels: length, type, payload.
func frame(t MsgType, payload string) []byte {
	b := binary.BigEndian.AppendUint32(nil, uint32(len(payload)))
	return append(append(b, byte(t)), payload...)
}

// FuzzConnRead plays arbitrary bytes as the peer's whole stream. Reading
// and decoding every frame in it must not panic; a frame is returned only
// with all the bytes its header declared; and what Read allocates follows
// the bytes that arrived, not the length a header claims — a header
// announcing 16 MB in front of nothing must not cost 16 MB.
func FuzzConnRead(f *testing.F) {
	var valid []byte
	decoders := map[MsgType]func(json.RawMessage) (any, error){} // one per message type
	for _, pf := range parentFrames() {
		f.Add(frame(pf.typ, pf.payload))
		valid = append(valid, frame(pf.typ, pf.payload)...)
		decoders[pf.typ] = pf.decode
	}
	f.Add(valid)                                                           // a whole conversation
	f.Add([]byte{0, 0, 0})                                                 // truncated header
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, byte(MsgHello)})                  // over MaxFrame
	f.Add(append([]byte{0x01, 0, 0, 0, byte(MsgRun)}, `{"def":`...))       // 16 MB declared, seven bytes sent
	f.Add(frame(MsgTargets, `{"base":0,"addrs":["192.0.2.1","192.0.2"]}`)) // malformed address
	f.Add(frame(MsgType(200), `{}`))
	f.Add(frame(MsgResult, `[1,2`))

	f.Fuzz(func(t *testing.T, stream []byte) {
		conn := NewConn(peerStream{Reader: bytes.NewReader(stream)})
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		type read struct {
			typ MsgType
			raw json.RawMessage
		}
		var frames []read
		consumed := 0
		for {
			typ, raw, err := conn.Read()
			if err != nil {
				break
			}
			if declared := int(binary.BigEndian.Uint32(stream[consumed:])); len(raw) != declared || declared > MaxFrame {
				t.Fatalf("frame at %d declares %d bytes, Read returned %d", consumed, declared, len(raw))
			}
			consumed += 5 + len(raw)
			frames = append(frames, read{typ, raw})
		}
		runtime.ReadMemStats(&after)
		// Payload buffers double up to what arrived (under twice the
		// stream in total) and a frame cut short costs one chunk more; the
		// rest is the frames slice, error values and runtime noise.
		if got, bound := after.TotalAlloc-before.TotalAlloc, uint64(2*len(stream)+readChunk+(128<<10)); got > bound {
			t.Fatalf("reading a %d-byte stream allocated %d bytes, bound %d", len(stream), got, bound)
		}
		for _, fr := range frames {
			if decode := decoders[fr.typ]; decode != nil {
				_, _ = decode(fr.raw)
			}
		}
	})
}
