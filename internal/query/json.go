package query

import (
	"fmt"
	"math"
	"strconv"

	"github.com/laces-project/laces/internal/core"
)

// This file appends the bodies the serving tier answers from the index —
// a Timeline, a Stability record, an Event — to a []byte exactly as
// json.Marshal writes them, with no reflection: each struct's field
// order and omitempty rules, a nil slice as null, encoding/json's float
// format, and its string quoting (core.AppendJSONString). The types
// declare no MarshalJSON, so encoding/json still writes them its own way
// and the two can be compared.

// AppendJSON appends the timeline as json.Marshal writes it, with no
// trailing newline. It never fails; the error keeps the signature of the
// other body appenders.
func (tl *Timeline) AppendJSON(b []byte) ([]byte, error) {
	b = core.AppendJSONString(append(b, `{"family":`...), tl.Family)
	b = core.AppendJSONString(append(b, `,"prefix":`...), tl.Prefix)
	b = strconv.AppendUint(append(b, `,"origin_asn":`...), uint64(tl.OriginASN), 10)
	b = appendInts(append(b, `,"days":`...), tl.Days)
	b = appendBools(append(b, `,"present":`...), tl.Present)
	b = appendBools(append(b, `,"anycast_based":`...), tl.AnycastBased)
	b = appendBools(append(b, `,"gcd_measured":`...), tl.GCDMeasured)
	b = appendBools(append(b, `,"gcd_anycast":`...), tl.GCDAnycast)
	b = appendBools(append(b, `,"icmp":`...), tl.ICMP)
	b = appendBools(append(b, `,"tcp":`...), tl.TCP)
	b = appendBools(append(b, `,"dns":`...), tl.DNS)
	b = appendBools(append(b, `,"partial_anycast":`...), tl.Partial)
	b = appendBools(append(b, `,"global_bgp":`...), tl.GlobalBGP)
	b = appendBools(append(b, `,"from_feedback":`...), tl.FromFeedback)
	b = appendInts(append(b, `,"gcd_sites":`...), tl.Sites)
	b = appendInts(append(b, `,"anycast_based_vps":`...), tl.Receivers)
	b = appendInts(append(b, `,"gcd_vps":`...), tl.VPs)
	b = appendInts(append(b, `,"city_hash":`...), tl.CityHash)
	return append(b, '}'), nil
}

// AppendJSON appends the stability record as json.Marshal writes it,
// with no trailing newline. Like json.Marshal it fails on a NaN or
// infinite score or mean.
func (st *Stability) AppendJSON(b []byte) ([]byte, error) {
	b = core.AppendJSONString(append(b, `{"family":`...), st.Family)
	b = core.AppendJSONString(append(b, `,"prefix":`...), st.Prefix)
	b = strconv.AppendInt(append(b, `,"days_indexed":`...), int64(st.DaysIndexed), 10)
	b = strconv.AppendInt(append(b, `,"days_present":`...), int64(st.DaysPresent), 10)
	b = strconv.AppendInt(append(b, `,"gcd_confirmed_days":`...), int64(st.GCDDays), 10)
	b = strconv.AppendInt(append(b, `,"onsets":`...), int64(st.Onsets), 10)
	b = strconv.AppendInt(append(b, `,"offsets":`...), int64(st.Offsets), 10)
	b = strconv.AppendInt(append(b, `,"flaps":`...), int64(st.Flaps), 10)
	b = strconv.AppendInt(append(b, `,"site_changes":`...), int64(st.SiteChanges), 10)
	b = strconv.AppendInt(append(b, `,"geo_shifts":`...), int64(st.GeoShifts), 10)
	b, err := appendFloat(append(b, `,"mean_sites":`...), st.MeanSites)
	if err != nil {
		return b, err
	}
	if b, err = appendFloat(append(b, `,"score":`...), st.Score); err != nil {
		return b, err
	}
	return append(b, '}'), nil
}

// AppendJSON appends the event as json.Marshal writes it, with no
// trailing newline.
func (e *Event) AppendJSON(b []byte) []byte {
	b = core.AppendJSONString(append(b, `{"kind":`...), string(e.Kind))
	b = core.AppendJSONString(append(b, `,"family":`...), e.Family)
	b = core.AppendJSONString(append(b, `,"prefix":`...), e.Prefix)
	b = strconv.AppendInt(append(b, `,"day":`...), int64(e.Day), 10)
	b = strconv.AppendInt(append(b, `,"prev_day":`...), int64(e.PrevDay), 10)
	if e.GapDays != 0 {
		b = strconv.AppendInt(append(b, `,"gap_days":`...), int64(e.GapDays), 10)
	}
	if e.PrevSites != 0 {
		b = strconv.AppendInt(append(b, `,"prev_sites":`...), int64(e.PrevSites), 10)
	}
	if e.Sites != 0 {
		b = strconv.AppendInt(append(b, `,"sites":`...), int64(e.Sites), 10)
	}
	return append(b, '}')
}

// appendInts appends a JSON array of integers, null for a nil slice.
func appendInts[T int | uint32](b []byte, vs []T) []byte {
	if vs == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, v := range vs {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(v), 10)
	}
	return append(b, ']')
}

// appendBools appends a JSON array of booleans, null for a nil slice.
func appendBools(b []byte, vs []bool) []byte {
	if vs == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, v := range vs {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendBool(b, v)
	}
	return append(b, ']')
}

// appendFloat appends f as encoding/json writes a float64: the shortest
// decimal that reads back as f, in exponent form below 1e-6 and from
// 1e21 up, with a one-digit negative exponent unpadded.
func appendFloat(b []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, fmt.Errorf("query: unsupported value: %s", strconv.FormatFloat(f, 'g', -1, 64))
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1] // e-07 → e-7
		b = b[:n-1]
	}
	return b, nil
}
