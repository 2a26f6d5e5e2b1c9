package core

import "math"

// The row splitter the archive walk ran before the split became one
// table-driven pass, kept as the reference the split and RowDecoder's
// grammar walk are held to (TestSplitMatchesReference, FuzzSplitDelta,
// FuzzDecodeDocument): a loop over the row's members that reads each key
// by name, matches it in a switch, keeps the field order in a bitmask
// and steps over each name-list element with its own calls. It returns
// the rows' bounds and prefixes and leaves their keys unparsed.

// refStoredRows splits an array of rows, each exactly as appendEntry
// writes it in layout l. The rows' bytes alias the input; their
// prefixes are carved from one string.
func (s *scanner) refStoredRows(l *entryLayout) []*row {
	s.expect('[')
	rows := make([]row, 0, s.hint)
	if s.peek() == ']' {
		s.i++
		return []*row{}
	}
	prefixes, ends := make([]byte, 0, 24*s.hint), make([]int, 0, s.hint)
	for s.ok {
		s.ws()
		start := s.i
		prefixes = append(prefixes, s.refStoredRow(l)...)
		ends = append(ends, len(prefixes))
		rows = append(rows, row{raw: s.b[start:s.i], indented: l == &indentLayout})
		if !s.more(']') {
			break
		}
	}
	if !s.ok {
		return nil
	}
	all, start := string(prefixes), 0
	ptrs := make([]*row, len(rows))
	for i := range rows {
		rows[i].key.s, start = all[start:ends[i]], ends[i]
		ptrs[i] = &rows[i]
	}
	return ptrs
}

// refStoredRow steps over one row if it is exactly what appendEntry
// writes in layout l — its fields in the struct's order, each omitempty
// field only when set, every value in the form the appender gives it —
// and returns its prefix's bytes.
func (s *scanner) refStoredRow(l *entryLayout) (prefix []byte) {
	s.want('{')
	next, seen := 0, 0
	for s.ok {
		s.lit(l.member)
		k := s.keyName()
		s.lit(l.colon)
		f := 0
		switch string(k) {
		case "prefix":
			prefix = s.plain()
		case "origin_asn":
			f = 1
			s.digits(math.MaxUint32)
		case "anycast_based_protocols":
			f = 2
			s.plainList(l)
		case "anycast_based_vps":
			f = 3
			s.refNonzero()
		case "from_feedback":
			f = 4
			s.lit("true")
		case "gcd_measured":
			f = 5
			s.boolLit()
		case "gcd_anycast":
			f = 6
			s.boolLit()
		case "gcd_sites":
			f = 7
			s.refNonzero()
		case "gcd_cities":
			f = 8
			s.plainList(l)
		case "gcd_vps":
			f = 9
			s.refNonzero()
		case "partial_anycast":
			f = 10
			s.lit("true")
		case "global_bgp":
			f = 11
			s.lit("true")
		default:
			s.ok = false
		}
		if f < next { // out of order, or repeated
			s.ok = false
		}
		next, seen = f+1, seen|1<<f
		if !s.char(',') {
			break
		}
	}
	const always = 1<<0 | 1<<1 | 1<<5 | 1<<6 // the fields without omitempty
	if seen&always != always {
		s.ok = false
	}
	s.lit(l.end)
	s.want('}')
	return prefix
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

// refNonzero reads an int other than zero as strconv.AppendInt writes
// it.
func (s *scanner) refNonzero() {
	var v uint64
	if s.char('-') {
		v = s.digits(uint64(math.MaxInt) + 1)
	} else {
		v = s.digits(math.MaxInt)
	}
	if v == 0 {
		s.ok = false
	}
}

// char consumes c when it is next, with no whitespace before it.
func (s *scanner) char(c byte) bool {
	if s.ok && s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// want consumes c, with no whitespace before it.
func (s *scanner) want(c byte) {
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return
	}
	s.ok = false
}

// keyName reads an object key: the bytes up to the next '"', which the
// caller matches against the schema's names.
func (s *scanner) keyName() []byte {
	b, i := s.b, s.i
	if i >= len(b) || b[i] != '"' {
		s.ok = false
		return nil
	}
	j := i + 1
	for j < len(b) && b[j] != '"' {
		j++
	}
	if j == len(b) {
		s.ok = false
		return nil
	}
	s.i = j + 1
	return b[i+1 : j]
}

// plainList reads a non-empty list of plain strings in layout l.
func (s *scanner) plainList(l *entryLayout) {
	s.want('[')
	for s.ok {
		s.lit(l.elem)
		s.plain()
		if !s.char(',') {
			break
		}
	}
	s.lit(l.member)
	s.want(']')
}

// refStringList steps over a delta's removals, an array of strings with
// no escape, as the scanner read them before the split keyed them.
func (s *scanner) refStringList() {
	s.expect('[')
	if s.peek() == ']' {
		s.i++
		return
	}
	for s.ok {
		s.raw()
		if !s.more(']') {
			break
		}
	}
}
