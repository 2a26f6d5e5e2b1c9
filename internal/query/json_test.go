package query

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
)

// encodeBody is what the serving tier wrote for a body before it had an
// appender, and what an appender's bytes must equal: json.NewEncoder's
// output, trailing newline included.
func encodeBody(v any) ([]byte, error) {
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(v)
	return buf.Bytes(), err
}

// checkAppended requires an appender's bytes plus a newline to equal
// encodeBody's, and the two to fail together.
func checkAppended(t *testing.T, what string, v any, got []byte, gotErr error) {
	t.Helper()
	want, wantErr := encodeBody(v)
	if (gotErr != nil) != (wantErr != nil) {
		t.Fatalf("%s: AppendJSON error %v, encoding/json error %v", what, gotErr, wantErr)
	}
	if wantErr == nil && !bytes.Equal(append(got, '\n'), want) {
		t.Fatalf("%s: AppendJSON wrote\n%s\nencoding/json writes\n%s", what, got, want)
	}
}

// FuzzIndexBodies: the appenders of the index-served bodies — Timeline,
// Stability and Event — write exactly what encoding/json writes for
// generated values: nil and empty columns, negative and huge integers,
// the zero values omitempty drops, floats at and around encoding/json's
// exponent cutoffs (and NaN and ±Inf, where both fail), and strings
// that need quoting: '<', '&', U+2028, control bytes, invalid UTF-8.
func FuzzIndexBodies(f *testing.F) {
	f.Add("ipv4", "1.2.3.0/24", "onset", []byte{1, 2, 3}, uint16(0), 7, -1, 0, 0, 0, 0.0, 1.0)
	f.Add("ipv6", "2001:db8::/48", "site-churn", []byte{}, uint16(0x5555), 0, 0, 3, 4, 5, math.Copysign(0, -1), 0.3333)
	f.Add("<ipv4>", "a&b ", "geo-shift", []byte{0xff, 0, 0x80}, uint16(0xffff), -5, 12, -2, 0, 9, 1e-7, 1e21)
	f.Add("\xff\xfe", "\x00\"\\", "flap", []byte{9}, uint16(1), 1<<40, -1<<40, 1, 1, 1, 123456789.125, -2.5e-9)
	f.Add("ipv4", "10.0.0.0/8", "offset", []byte{4, 5}, uint16(0x2000), 3, 2, 1, 0, 0, math.Inf(-1), 0.5)
	f.Add("ipv6", "::/0", "onset", []byte{0x80}, uint16(0x4000), 0, -1, 0, 0, 0, 1.5, math.NaN())
	f.Add("ipv6", "::/0", "offset", []byte{0x81}, uint16(0x4001), 0, -1, 0, 0, 0, 2.0, math.Inf(1))
	f.Add("a\u2028b", "c\u2029d", "k<>", []byte{}, uint16(0x7fff), 0, -1, 0, 0, 0, 1e-6, 5e20)
	f.Add("ipv4", "1.0.0.0/24", "onset", []byte{1}, uint16(0), 1, 0, 0, 0, 0, 9.99999e-7, 999999999999999900000.0)
	f.Fuzz(func(t *testing.T, family, prefix, kind string, cols []byte, nils uint16,
		day, prevDay, gap, prevSites, sites int, mean, score float64) {
		n := len(cols)
		tl := &Timeline{Family: family, Prefix: prefix, OriginASN: uint32(day)}
		at := func(i, c int) byte { return cols[(i+c)%n] }
		col := 0
		nilAt := func() bool { col++; return nils&(1<<(col-1)) != 0 }
		ints := func(f func(b byte) int) []int {
			if nilAt() {
				return nil
			}
			out := make([]int, n)
			for i := range out {
				out[i] = f(cols[i])
			}
			return out
		}
		tl.Days = ints(func(b byte) int { return int(b)*7 - 300 })
		for c, dst := range []*[]bool{
			&tl.Present, &tl.AnycastBased, &tl.GCDMeasured, &tl.GCDAnycast,
			&tl.ICMP, &tl.TCP, &tl.DNS, &tl.Partial, &tl.GlobalBGP, &tl.FromFeedback,
		} {
			if nilAt() {
				continue
			}
			*dst = make([]bool, n)
			for i := range *dst {
				(*dst)[i] = at(i, c)>>(c%8)&1 != 0
			}
		}
		tl.Sites = ints(func(b byte) int { return int(int8(b)) * 1000 })
		tl.Receivers = ints(func(b byte) int { return int(b) << 40 })
		tl.VPs = ints(func(b byte) int { return -int(b) })
		if !nilAt() {
			tl.CityHash = make([]uint32, n)
			for i := range tl.CityHash {
				tl.CityHash[i] = uint32(cols[i]) * 16777619
			}
		}
		got, err := tl.AppendJSON([]byte("prior bytes stay"))
		if !bytes.HasPrefix(got, []byte("prior bytes stay")) {
			t.Fatalf("Timeline.AppendJSON did not append: %q", got)
		}
		checkAppended(t, "Timeline", tl, got[len("prior bytes stay"):], err)

		st := &Stability{
			Family: family, Prefix: prefix,
			DaysIndexed: day, DaysPresent: prevDay, GCDDays: gap,
			Onsets: prevSites, Offsets: sites, Flaps: -day, SiteChanges: n, GeoShifts: int(nils),
			MeanSites: mean, Score: score,
		}
		got, err = st.AppendJSON(nil)
		checkAppended(t, "Stability", st, got, err)

		e := &Event{
			Kind: EventKind(kind), Family: family, Prefix: prefix,
			Day: day, PrevDay: prevDay, GapDays: gap, PrevSites: prevSites, Sites: sites,
		}
		checkAppended(t, "Event", e, e.AppendJSON(nil), nil)
	})
}
