package core

import (
	"cmp"
	"encoding/binary"
	"io"
	"net/netip"
	"slices"
	"strings"
)

// This file is the write half of the published-document codec: encode
// one DocumentEntry at a time so no layer has to materialize a whole
// census day to move it (rows.go and decode.go are the read half). Each
// row goes through the reflection-free entry appender in encode.go into
// one buffer (appendDocument); only the header is rendered by
// encoding/json, and a string the appender cannot copy as-is goes
// through json.Marshal on its own. The bytes are exactly those of a
// json.Encoder with SetIndent("", "  ") — bit-for-bit the document the
// public repository carries, `"entries": []` and `"entries": null`
// included, which is the contract the archive layer (internal/archive)
// builds its integrity checks on.

// ComparePrefixStrings orders two published prefix strings canonically:
// numerically, by address family, then address bytes, then prefix
// length — lexicographic order would sort "10.0.0.0/24" before
// "2.0.0.0/24". Unparsable strings (never produced by the census itself)
// sort after valid prefixes, between themselves by plain string
// comparison, so the order stays total and deterministic.
func ComparePrefixStrings(a, b string) int {
	return ParsePrefixKey(a).order(ParsePrefixKey(b))
}

// SortPrefixStrings sorts prefix strings into ComparePrefixStrings order,
// parsing each once rather than twice per comparison. Distinct strings
// that parse to one prefix ("::1/128", "0::1/128") fall back to string
// order, so the result never depends on the input's order.
func SortPrefixStrings(ps []string) {
	keys := make([]PrefixKey, len(ps))
	for i, s := range ps {
		keys[i] = ParsePrefixKey(s)
	}
	slices.SortFunc(keys, PrefixKey.Compare)
	for i := range keys {
		ps[i] = keys[i].s
	}
}

// PrefixKey is a prefix string parsed once, for callers that compare it
// more than once in SortPrefixStrings' order.
type PrefixKey struct {
	hi, lo uint64 // the address's 16 bytes (netip.Addr.As16)
	rank   uint8  // keyIPv4, keyIPv6 or keyInvalid, in canonical order
	bits   uint8
	s      string
}

// Ranks of a PrefixKey; a zero rank is a key not parsed yet.
const (
	keyIPv4 = iota + 1
	keyIPv6
	keyInvalid // not a prefix: after every prefix, in string order
)

// ParsePrefixKey parses s into its key.
func ParsePrefixKey(s string) PrefixKey {
	p, err := netip.ParsePrefix(s)
	if err != nil {
		return PrefixKey{rank: keyInvalid, s: s}
	}
	a := p.Addr().As16()
	k := PrefixKey{binary.BigEndian.Uint64(a[:8]), binary.BigEndian.Uint64(a[8:]), keyIPv4, uint8(p.Bits()), s}
	if p.Addr().Is6() {
		k.rank = keyIPv6
	}
	return k
}

// Compare orders two keys as SortPrefixStrings does: ComparePrefixStrings
// order, ties between distinct strings broken by string order, so it is
// zero only for equal strings.
func (a PrefixKey) Compare(b PrefixKey) int {
	if c := a.order(b); c != 0 {
		return c
	}
	return strings.Compare(a.s, b.s)
}

// order is ComparePrefixStrings on parsed keys: zero also for distinct
// strings of one prefix ("::1/128", "0::1/128").
func (a PrefixKey) order(b PrefixKey) int {
	switch {
	case a.rank != b.rank:
		return cmp.Compare(a.rank, b.rank)
	case a.rank == keyInvalid:
		return strings.Compare(a.s, b.s)
	case a.hi != b.hi:
		return cmp.Compare(a.hi, b.hi)
	case a.lo != b.lo:
		return cmp.Compare(a.lo, b.lo)
	}
	return cmp.Compare(a.bits, b.bits)
}

// WriteJSON encodes the document exactly as the public repository carries
// it: two-space indent, entries last, trailing newline — the bytes of a
// json.Encoder with SetIndent("", "  "). It is the canonical byte form;
// DailyCensus.WriteJSON, the archive writer and a live day the API
// serves all write it through appendDocument.
func (d *Document) WriteJSON(w io.Writer) error { return StreamDocument(w, d) }

// entryElementIndent is the line prefix of an entry element inside the
// canonical document ("entries" array elements sit two levels deep).
const entryElementIndent = "    "

// flushAt is how many encoded bytes StreamDocument gathers before it
// writes them on.
const flushAt = 16 << 10

// StreamDocument writes d's canonical bytes to w, flushAt bytes or more
// at a time, so the document is never held whole.
func StreamDocument(w io.Writer, d *Document) error {
	_, err := appendDocument(make([]byte, 0, flushAt+1<<10), d, w)
	return err
}

// appendDocument appends d's canonical bytes to b, row by row, and
// returns b. With a writer w it writes them on each time flushAt or more
// have gathered, and at the end, and b starts again after each write.
// Of d.Entries only its nil-ness counts when it is empty: zero entries
// close as `null` when it is nil and as `[]` when it is not, as
// encoding/json writes them.
func appendDocument(b []byte, d *Document, w io.Writer) ([]byte, error) {
	b, err := appendHeader(b, d, true)
	if err != nil {
		return b, err
	}
	for i := range d.Entries {
		b = appendEntry(appendEntrySep(b, i), &d.Entries[i], &indentLayout)
		if w != nil && len(b) >= flushAt {
			if _, err := w.Write(b); err != nil {
				return b, err
			}
			b = b[:0]
		}
	}
	b = appendDocumentEnd(b, len(d.Entries), d.Entries != nil)
	if w != nil {
		_, err = w.Write(b)
	}
	return b, err
}

// appendEntrySep appends what comes before the canonical document's i-th
// row: the array's opening or the comma after the row before, and the
// row's indentation.
func appendEntrySep(b []byte, i int) []byte {
	if i == 0 {
		return append(b, "[\n"+entryElementIndent...)
	}
	return append(b, ",\n"+entryElementIndent...)
}

// appendDocumentEnd appends what ends the canonical document after its n
// rows: the array's close, or, with no rows, `[]` when the entries are
// not nil (notNil) and `null` when they are.
func appendDocumentEnd(b []byte, n int, notNil bool) []byte {
	switch {
	case n > 0:
		return append(b, "\n  ]\n}\n"...)
	case notNil:
		return append(b, "[]\n}\n"...)
	}
	return append(b, "null\n}\n"...)
}
