package query

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// The on-disk index format (version 1). One file, laid out as
//
//	header | TOC | rows
//
// The fixed header carries the magic, format version, section lengths
// and a CRC-32C per section, so Open can prove integrity before
// trusting a single offset. The TOC is the bounded "directory" an Index
// keeps in memory: per family the indexed day list, the per-day
// aggregate columns, and per prefix a (name, origin, row offset, row
// length) entry. The rows section holds one compact columnar record per
// prefix — flag bitmaps over day positions plus varint series. Open
// reads the whole file once into memory (no mmap) and a row record is a
// subslice of that image, decoded on demand.

// IndexFileName is the timeline index's file name inside an archive
// directory, next to the archive's index.jsonl.
const IndexFileName = "timeline.idx"

// magic identifies a LACeS timeline index file.
var magic = [8]byte{'L', 'A', 'C', 'E', 'S', 'T', 'L', 'X'}

// Version is the current index format version.
const Version = 1

// headerLen is the fixed header size: magic + version + tocLen +
// rowsLen + tocCRC + rowsCRC.
const headerLen = 8 + 4 + 4 + 8 + 4 + 4

// castagnoli is the CRC-32C table shared with the archive layer.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// header is the decoded fixed header.
type header struct {
	version uint32
	tocLen  uint32
	rowsLen uint64
	tocCRC  uint32
	rowsCRC uint32
}

func (h *header) encode() []byte {
	b := make([]byte, headerLen)
	copy(b[:8], magic[:])
	binary.LittleEndian.PutUint32(b[8:], h.version)
	binary.LittleEndian.PutUint32(b[12:], h.tocLen)
	binary.LittleEndian.PutUint64(b[16:], h.rowsLen)
	binary.LittleEndian.PutUint32(b[24:], h.tocCRC)
	binary.LittleEndian.PutUint32(b[28:], h.rowsCRC)
	return b
}

func decodeHeader(b []byte) (*header, error) {
	if len(b) < headerLen {
		return nil, fmt.Errorf("query: index file shorter than its header")
	}
	if [8]byte(b[:8]) != magic {
		return nil, fmt.Errorf("query: not a timeline index (bad magic)")
	}
	h := &header{
		version: binary.LittleEndian.Uint32(b[8:]),
		tocLen:  binary.LittleEndian.Uint32(b[12:]),
		rowsLen: binary.LittleEndian.Uint64(b[16:]),
		tocCRC:  binary.LittleEndian.Uint32(b[24:]),
		rowsCRC: binary.LittleEndian.Uint32(b[28:]),
	}
	if h.version != Version {
		return nil, fmt.Errorf("query: index format version %d (this build reads %d)", h.version, Version)
	}
	return h, nil
}

// bufWriter serializes the TOC and row records.
type bufWriter struct{ b []byte }

func (w *bufWriter) u16(v uint16) { w.b = binary.LittleEndian.AppendUint16(w.b, v) }
func (w *bufWriter) u32(v uint32) { w.b = binary.LittleEndian.AppendUint32(w.b, v) }
func (w *bufWriter) u64(v uint64) { w.b = binary.LittleEndian.AppendUint64(w.b, v) }

// str16 writes a length-prefixed string (≤ 64 KiB).
func (w *bufWriter) str16(s string) {
	w.u16(uint16(len(s)))
	w.b = append(w.b, s...)
}

// bufReader decodes the TOC; the first malformed field latches err and
// subsequent reads return zeros, so callers check err once at the end.
// s holds b's bytes as a string, which str16 returns substrings of.
type bufReader struct {
	b   []byte
	s   string
	off int
	err error
}

func (r *bufReader) fail() {
	if r.err == nil {
		r.err = fmt.Errorf("query: truncated index section at byte %d", r.off)
	}
}

func (r *bufReader) take(n int) []byte {
	if r.err != nil || r.off+n > len(r.b) {
		r.fail()
		return nil
	}
	b := r.b[r.off : r.off+n]
	r.off += n
	return b
}

func (r *bufReader) u16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

func (r *bufReader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *bufReader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// count reads a u32 element count and fails when that many elements of
// at least size bytes each cannot fit in what is left of the section —
// before the caller allocates room for them.
func (r *bufReader) count(size int) int {
	n := int(r.u32())
	if r.err == nil && n > (len(r.b)-r.off)/size {
		r.fail()
	}
	if r.err != nil {
		return 0
	}
	return n
}

func (r *bufReader) str16() string {
	n := int(r.u16())
	if r.take(n) == nil {
		return ""
	}
	return r.s[r.off-n : r.off]
}

// bitmapLen is the byte length of a bitmap over n day positions.
func bitmapLen(n int) int { return (n + 7) / 8 }

func setBit(b []byte, i int)      { b[i>>3] |= 1 << (i & 7) }
func getBit(b []byte, i int) bool { return b[i>>3]&(1<<(i&7)) != 0 }

// anyBit reports whether any bit in positions [lo, hi] is set,
// byte-at-a-time with masked edges.
func anyBit(b []byte, lo, hi int) bool {
	if lo > hi {
		return false
	}
	loByte, hiByte := lo>>3, hi>>3
	loMask := byte(0xFF << (lo & 7))
	hiMask := byte(0xFF >> (7 - hi&7))
	if loByte == hiByte {
		return b[loByte]&loMask&hiMask != 0
	}
	if b[loByte]&loMask != 0 || b[hiByte]&hiMask != 0 {
		return true
	}
	for i := loByte + 1; i < hiByte; i++ {
		if b[i] != 0 {
			return true
		}
	}
	return false
}

// cityHash digests a published city list into the 32-bit geo signature
// the index stores per present day: geo-shift detection only needs "did
// the enumerated site set move", not the names themselves (those remain
// one document decode away in the archive).
// The hash is FNV-1a over each name and a NUL after it, computed in
// place so that indexing an entry allocates nothing.
func cityHash(cities []string) uint32 {
	if len(cities) == 0 {
		return 0
	}
	const offset32, prime32 = 2166136261, 16777619
	h := uint32(offset32)
	for _, c := range cities {
		for i := 0; i < len(c); i++ {
			h = (h ^ uint32(c[i])) * prime32
		}
		h *= prime32 // the NUL: h ^ 0 is h
	}
	return h
}
