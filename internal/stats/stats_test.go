package stats

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
)

func TestCDFBasics(t *testing.T) {
	c := NewCDF([]int{3, 1, 2, 2, 5})
	if c.Len() != 5 {
		t.Fatal("len")
	}
	cases := []struct {
		x    int
		want float64
	}{{0, 0}, {1, 0.2}, {2, 0.6}, {3, 0.8}, {4, 0.8}, {5, 1}, {100, 1}}
	for _, tc := range cases {
		if got := c.P(tc.x); got != tc.want {
			t.Errorf("P(%d) = %v, want %v", tc.x, got, tc.want)
		}
	}
	if c.Max() != 5 {
		t.Errorf("Max = %d", c.Max())
	}
}

func TestCDFEmpty(t *testing.T) {
	c := NewCDF(nil)
	if c.P(10) != 0 || c.Quantile(0.5) != 0 || c.Max() != 0 || c.Len() != 0 {
		t.Fatal("empty CDF should be all zeros")
	}
}

func TestCDFQuantile(t *testing.T) {
	c := NewCDF([]int{10, 20, 30, 40})
	if q := c.Quantile(0.5); q != 20 {
		t.Errorf("median = %d, want 20", q)
	}
	if q := c.Quantile(0); q != 10 {
		t.Errorf("q0 = %d", q)
	}
	if q := c.Quantile(1); q != 40 {
		t.Errorf("q1 = %d", q)
	}
}

func TestCDFMonotone(t *testing.T) {
	f := func(vals []int16, a, b int16) bool {
		ints := make([]int, len(vals))
		for i, v := range vals {
			ints[i] = int(v)
		}
		c := NewCDF(ints)
		lo, hi := int(a), int(b)
		if lo > hi {
			lo, hi = hi, lo
		}
		return c.P(lo) <= c.P(hi)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCDFPointsReachOne(t *testing.T) {
	c := NewCDF([]int{1, 1, 2, 9})
	var xs []int
	var ps []float64
	for i, v := range c.values {
		if i+1 < len(c.values) && c.values[i+1] == v {
			continue
		}
		xs = append(xs, v)
		ps = append(ps, c.P(v))
	}
	if len(xs) != 3 || xs[0] != 1 || xs[2] != 9 {
		t.Fatalf("xs = %v", xs)
	}
	if ps[len(ps)-1] != 1 {
		t.Fatalf("last point = %v, want 1", ps[len(ps)-1])
	}
	for i := 1; i < len(ps); i++ {
		if ps[i] <= ps[i-1] {
			t.Fatal("points not increasing")
		}
	}
}

func TestSetOps(t *testing.T) {
	a := NewSet([]int{1, 2, 3, 4})
	b := NewSet([]int{3, 4, 5})
	if a.Intersect(b) != 2 || b.Intersect(a) != 2 {
		t.Fatal("intersect")
	}
	if u := union(a, b); len(u) != len(a)+len(b)-a.Intersect(b) {
		t.Fatal("union")
	}
}

func TestSetAlgebraProperties(t *testing.T) {
	f := func(xs, ys []uint8) bool {
		a, b := make(Set), make(Set)
		for _, x := range xs {
			a[int(x)] = true
		}
		for _, y := range ys {
			b[int(y)] = true
		}
		// |A| = |A∩B| + |A\B|, and |A∪B| = |A| + |B| - |A∩B|.
		minus := 0
		for id := range a {
			if !b[id] {
				minus++
			}
		}
		if len(a) != a.Intersect(b)+minus {
			return false
		}
		return len(union(a, b)) == len(a)+len(b)-a.Intersect(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUpSetFig7Shape(t *testing.T) {
	// Mimic Fig 7: ICMP {1..10}, TCP {6..12}, DNS {10, 13}.
	icmp := NewSet([]int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	tcp := NewSet([]int{6, 7, 8, 9, 10, 11, 12})
	dns := NewSet([]int{10, 13})
	rows := UpSet([]string{"ICMP", "TCP", "DNS"}, []Set{icmp, tcp, dns})

	byLabel := map[string]int{}
	total := 0
	for _, r := range rows {
		byLabel[r.Label()] = r.Count
		total += r.Count
	}
	if total != 13 { // |union|
		t.Fatalf("exclusive buckets sum to %d, want 13", total)
	}
	want := map[string]int{
		"ICMP":         5, // 1..5
		"ICMP∩TCP":     4, // 6..9
		"ICMP∩TCP∩DNS": 1, // 10
		"TCP":          2, // 11,12
		"DNS":          1, // 13
	}
	for label, n := range want {
		if byLabel[label] != n {
			t.Errorf("bucket %s = %d, want %d (all: %v)", label, byLabel[label], n, byLabel)
		}
	}
	// Ordered by descending count.
	for i := 1; i < len(rows); i++ {
		if rows[i].Count > rows[i-1].Count {
			t.Fatal("rows not sorted")
		}
	}
	// Shares sum to 1.
	var share float64
	for _, r := range rows {
		share += r.Share
	}
	if share < 0.999 || share > 1.001 {
		t.Fatalf("shares sum to %v", share)
	}
}

func TestUpSetExhaustiveProperty(t *testing.T) {
	f := func(xs, ys, zs []uint8) bool {
		sets := []Set{make(Set), make(Set), make(Set)}
		for _, x := range xs {
			sets[0][int(x)] = true
		}
		for _, y := range ys {
			sets[1][int(y)] = true
		}
		for _, z := range zs {
			sets[2][int(z)] = true
		}
		rows := UpSet([]string{"a", "b", "c"}, sets)
		total := 0
		for _, r := range rows {
			total += r.Count
		}
		union := union(union(sets[0], sets[1]), sets[2])
		return total == len(union)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTableRender(t *testing.T) {
	tb := Table{
		Title:  "Table X",
		Header: []string{"name", "count", "share"},
	}
	tb.Add("alpha", 10, 33.3333)
	tb.Add("beta-long-name", 2, 0.5)
	var buf bytes.Buffer
	if err := tb.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 {
		t.Fatalf("rendered %d lines:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "Table X") {
		t.Fatal("missing title")
	}
	if !strings.Contains(lines[3], "33.3") {
		t.Fatalf("float formatting: %s", lines[3])
	}
	// Columns aligned: the separator is as wide as the widest cell.
	if len(lines[2]) < len("beta-long-name") {
		t.Fatal("separator narrower than data")
	}
}

func TestPct(t *testing.T) {
	if Pct(1, 2) != "50.0%" {
		t.Fatalf("Pct = %s", Pct(1, 2))
	}
	if Pct(1, 0) != "n/a" {
		t.Fatal("division by zero not guarded")
	}
}

func TestUpSetPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	UpSet([]string{"a"}, nil)
}

// union returns a ∪ b as a new set.
func union(a, b Set) Set {
	out := make(Set, len(a)+len(b))
	for id := range a {
		out[id] = true
	}
	for id := range b {
		out[id] = true
	}
	return out
}
