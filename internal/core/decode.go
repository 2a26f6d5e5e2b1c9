package core

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"unicode/utf8"
)

// This file is the scanner the split (rows.go) and RowDecoder run on:
// it walks a day-file's bytes with no reflection, in exactly the grammar
// the archive writer emits — JSON whitespace, DocumentEntry's lower-case
// keys each at most once, strings that are valid UTF-8 with no escapes
// or control bytes, integers in range with no fraction or exponent, true
// and false. The small header object (scalars and the governance block)
// is handed to encoding/json. On anything else the scanner declines, and
// the split decodes the whole file with encoding/json instead, so every
// file reads as json.Unmarshal reads it. Protocol and city names are
// interned per decoder, and the rows' name lists are capped slices of
// shared arrays: appending to one copies it.

// document walks a snapshot: the header's members are stepped over and
// then decoded together by encoding/json, and the entries field, which
// must come last, is read by entries unless it is `null`. It returns
// the header alone.
func (s *scanner) document(entries func()) (*Document, bool) {
	s.expect('{')
	hdrEnd := s.i // the header's members end here (just after '{' while there are none)
	for s.ok {
		k := s.lowerKey()
		s.expect(':')
		if string(k) != "entries" {
			// A header field: stepped over here, decoded below with the
			// rest of the header by encoding/json.
			s.skip()
			hdrEnd = s.i
			if s.more('}') {
				continue
			}
			return nil, false // no entries field: not a document the writer made
		}
		if s.peek() == 'n' {
			s.literal("null")
		} else {
			entries()
		}
		s.expect('}')
		s.end()
		if !s.ok {
			break
		}
		hdr := make([]byte, 0, hdrEnd+1)
		hdr = append(append(hdr, s.b[:hdrEnd]...), '}')
		var d Document
		if json.Unmarshal(hdr, &d) != nil {
			break
		}
		return &d, true
	}
	return nil, false
}

// delta walks a delta: each of its three fields at most once, the
// header decoded into hdr by encoding/json, the removals read by removed
// and the upserts by upserts.
func (s *scanner) delta(hdr *Document, removed, upserts func()) bool {
	var seen uint8
	s.expect('{')
	for s.ok {
		k := s.quoted() // matched against the schema's names: no escape gets through
		s.expect(':')
		var bit uint8
		switch string(k) {
		case "header":
			bit = 1
			if s.peek() != '{' {
				return false
			}
			start := s.i
			s.skip()
			if s.ok && json.Unmarshal(s.b[start:s.i], hdr) != nil {
				return false
			}
		case "removed":
			bit = 2
			removed()
		case "upserts":
			bit = 4
			upserts()
		default:
			return false
		}
		if seen&bit != 0 {
			return false
		}
		seen |= bit
		if !s.more('}') {
			break
		}
	}
	s.end()
	return s.ok
}

// namesChunk is how many protocol and city names one allocation holds:
// the entries' name lists are carved from shared chunks.
const namesChunk = 256

// scanner walks one day file. ok turns false at the first byte outside
// the grammar and stays false; every method is safe to call after that
// and does nothing useful, so callers check ok once per loop.
type scanner struct {
	b     []byte
	i     int
	ok    bool
	hint  int               // rows in the file, to size the row slices
	names map[string]string // interned protocol and city names, this call's only
	chunk []string          // where name lists are carved from
	list  []string          // the name list being read
	known string            // the prefix of the row being decoded, when a split already holds it
}

// newScanner prepares a scan of b. Every row is an object, so the count
// of '{' bounds the rows from above; no row the writer emits is shorter
// than 64 bytes, which keeps the hint within the input's size whatever
// the bytes are.
func newScanner(b []byte) *scanner {
	return &scanner{b: b, ok: true, hint: min(bytes.Count(b, []byte("{")), len(b)/64)}
}

// ws skips JSON whitespace.
func (s *scanner) ws() {
	i := s.i
	for i < len(s.b) && (s.b[i] == ' ' || s.b[i] == '\n' || s.b[i] == '\t' || s.b[i] == '\r') {
		i++
	}
	s.i = i
}

// peek returns the next byte after whitespace, or 0 at the end.
func (s *scanner) peek() byte {
	s.ws()
	if s.i < len(s.b) {
		return s.b[s.i]
	}
	return 0
}

// expect consumes c after whitespace.
func (s *scanner) expect(c byte) {
	if s.peek() == c {
		s.i++
		return
	}
	s.ok = false
}

// end requires nothing but whitespace to follow.
func (s *scanner) end() {
	if s.peek() != 0 || s.i != len(s.b) {
		s.ok = false
	}
}

// more consumes the separator after a member or element: true after a
// comma, false after the closing byte (or on a decline).
func (s *scanner) more(close byte) bool {
	switch s.peek() {
	case ',':
		s.i++
		return true
	case close:
		s.i++
		return false
	}
	s.ok = false
	return false
}

// literal consumes a fixed token.
func (s *scanner) literal(tok string) {
	if bytes.HasPrefix(s.b[s.i:], []byte(tok)) {
		s.i += len(tok)
		return
	}
	s.ok = false
}

// quoted returns the bytes up to the next '"' and steps past it. They
// alias the input, and they are a string's whole content only when they
// hold no backslash.
func (s *scanner) quoted() []byte {
	s.expect('"')
	j := bytes.IndexByte(s.b[s.i:], '"')
	if !s.ok || j < 0 {
		s.ok = false
		return nil
	}
	r := s.b[s.i : s.i+j]
	s.i += j + 1
	return r
}

// raw reads a string that needs no unquoting: valid UTF-8, no escape,
// no control byte.
func (s *scanner) raw() []byte {
	r := s.quoted()
	ascii := true
	for _, c := range r {
		if c < 0x20 || c == '\\' {
			s.ok = false
			return nil
		}
		if c >= utf8.RuneSelf {
			ascii = false
		}
	}
	if !ascii && !utf8.Valid(r) {
		s.ok = false
	}
	return r
}

// lowerKey reads an object key made of lower-case ASCII letters, digits
// and underscores: no other key can fold onto one encoding/json matches.
func (s *scanner) lowerKey() []byte {
	k := s.quoted()
	for _, c := range k {
		if (c < 'a' || c > 'z') && (c < '0' || c > '9') && c != '_' {
			s.ok = false
		}
	}
	return k
}

// prefixStr reads a row's prefix: s.known when the bytes are its, so a
// row split before it is decoded keeps the prefix string the split made.
func (s *scanner) prefixStr() string {
	if r := s.raw(); string(r) != s.known {
		return string(r)
	}
	return s.known
}

// name reads a protocol or city name, interned for the call. Bytes that
// equal a name read before are a valid string already.
func (s *scanner) name() string {
	start := s.i
	if v, ok := s.names[string(s.quoted())]; ok {
		return v
	}
	s.i = start
	r := s.raw()
	if !s.ok {
		return ""
	}
	if s.names == nil {
		s.names = make(map[string]string)
	}
	v := string(r)
	s.names[v] = v
	return v
}

// nameList reads an array of names into a slice carved from the shared
// chunk, capped so an append by the caller reallocates.
func (s *scanner) nameList() []string {
	s.expect('[')
	if s.peek() == ']' {
		s.i++
		return []string{}
	}
	list := s.list[:0]
	for s.ok {
		list = append(list, s.name())
		if !s.more(']') {
			break
		}
	}
	s.list = list
	if len(s.chunk)+len(list) > cap(s.chunk) {
		s.chunk = make([]string, 0, max(namesChunk, len(list)))
	}
	n := len(s.chunk)
	s.chunk = append(s.chunk, list...)
	return s.chunk[n:len(s.chunk):len(s.chunk)]
}

// digits reads a JSON integer's digits ("0" or no leading zero) whose
// value is at most max.
func (s *scanner) digits(max uint64) uint64 {
	start := s.i
	var v uint64
	for ; s.i < len(s.b) && '0' <= s.b[s.i] && s.b[s.i] <= '9'; s.i++ {
		d := uint64(s.b[s.i] - '0')
		if v > (max-d)/10 {
			s.ok = false
			return 0
		}
		v = v*10 + d
	}
	if n := s.i - start; n == 0 || n > 1 && s.b[start] == '0' {
		s.ok = false
	}
	return v
}

// uint32 reads a non-negative integer that fits a uint32.
func (s *scanner) uint32() uint32 {
	s.ws()
	return uint32(s.digits(math.MaxUint32))
}

// int reads an integer that fits an int.
func (s *scanner) int() int {
	if s.peek() == '-' {
		s.i++
		return -int(s.digits(uint64(math.MaxInt) + 1))
	}
	return int(s.digits(math.MaxInt))
}

// bool reads true or false.
func (s *scanner) bool() bool {
	if s.peek() == 't' {
		s.literal("true")
		return true
	}
	s.literal("false")
	return false
}

// entry reads one row.
func (s *scanner) entry(e *DocumentEntry) {
	s.expect('{')
	if s.peek() == '}' {
		s.i++
		return
	}
	var seen uint16
	for s.ok {
		k := s.quoted() // matched against the schema's names: no escape gets through
		s.expect(':')
		var bit uint16
		switch string(k) {
		case "prefix":
			bit, e.Prefix = 1<<0, s.prefixStr()
		case "origin_asn":
			bit, e.OriginASN = 1<<1, s.uint32()
		case "anycast_based_protocols":
			bit, e.ACProtocols = 1<<2, s.nameList()
		case "anycast_based_vps":
			bit, e.MaxReceivers = 1<<3, s.int()
		case "from_feedback":
			bit, e.FromFeedback = 1<<4, s.bool()
		case "gcd_measured":
			bit, e.GCDMeasured = 1<<5, s.bool()
		case "gcd_anycast":
			bit, e.GCDAnycast = 1<<6, s.bool()
		case "gcd_sites":
			bit, e.GCDSites = 1<<7, s.int()
		case "gcd_cities":
			bit, e.GCDCities = 1<<8, s.nameList()
		case "gcd_vps":
			bit, e.GCDVPs = 1<<9, s.int()
		case "partial_anycast":
			bit, e.PartialAnycast = 1<<10, s.bool()
		case "global_bgp":
			bit, e.GlobalBGP = 1<<11, s.bool()
		default:
			s.ok = false
		}
		if seen&bit != 0 {
			s.ok = false
		}
		seen |= bit
		if !s.more('}') {
			return
		}
	}
}

// skip steps over one JSON value without decoding it. It only has to
// find where a well-formed value ends: what it steps over is decoded by
// encoding/json afterwards, which rejects anything malformed.
func (s *scanner) skip() {
	s.ws()
	depth := 0
	for s.ok {
		if s.i >= len(s.b) {
			s.ok = false
			return
		}
		switch s.b[s.i] {
		case '"':
			s.skipString()
		case '{', '[':
			depth++
			s.i++
		case '}', ']':
			depth--
			s.i++
		case ',', ':', ' ', '\t', '\n', '\r':
			s.i++
		default: // a number or a literal
			for s.i < len(s.b) && strings.IndexByte("{}[],:\" \t\n\r", s.b[s.i]) < 0 {
				s.i++
			}
		}
		if depth <= 0 {
			s.ok = s.ok && depth == 0
			return
		}
	}
}

// skipString steps over a string, escapes included.
func (s *scanner) skipString() {
	for s.i++; s.i < len(s.b); s.i++ {
		switch s.b[s.i] {
		case '\\':
			s.i++
		case '"':
			s.i++
			return
		}
	}
	s.i, s.ok = len(s.b), false
}
