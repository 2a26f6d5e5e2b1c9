// Package stats provides the small statistical and set-algebra helpers the
// evaluation harness uses to regenerate the paper's tables and figures:
// empirical CDFs (Fig 6, Fig 10), Venn/UpSet intersections over candidate
// sets (Fig 7/8/13/14), and plain-text table rendering.
package stats

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"unicode/utf8"
)

// CDF is an empirical cumulative distribution over integer observations.
type CDF struct {
	values []int
}

// NewCDF builds a CDF from observations (copied and sorted).
func NewCDF(values []int) *CDF {
	v := append([]int(nil), values...)
	sort.Ints(v)
	return &CDF{values: v}
}

// Len returns the number of observations.
func (c *CDF) Len() int { return len(c.values) }

// P returns the cumulative probability P(X <= x).
func (c *CDF) P(x int) float64 {
	if len(c.values) == 0 {
		return 0
	}
	i := sort.SearchInts(c.values, x+1)
	return float64(i) / float64(len(c.values))
}

// Quantile returns the smallest value v with P(X <= v) >= q.
func (c *CDF) Quantile(q float64) int {
	if len(c.values) == 0 {
		return 0
	}
	if q <= 0 {
		return c.values[0]
	}
	if q >= 1 {
		return c.values[len(c.values)-1]
	}
	i := int(q*float64(len(c.values))+0.999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(c.values) {
		i = len(c.values) - 1
	}
	return c.values[i]
}

// Max returns the largest observation.
func (c *CDF) Max() int {
	if len(c.values) == 0 {
		return 0
	}
	return c.values[len(c.values)-1]
}

// Set is a set of target IDs.
type Set map[int]bool

// NewSet builds a set from IDs.
func NewSet(ids []int) Set {
	s := make(Set, len(ids))
	for _, id := range ids {
		s[id] = true
	}
	return s
}

// Intersect returns |a ∩ b|.
func (a Set) Intersect(b Set) int {
	if len(b) < len(a) {
		a, b = b, a
	}
	n := 0
	for id := range a {
		if b[id] {
			n++
		}
	}
	return n
}

// UpSetRow is one intersection bucket of an UpSet plot: the exclusive
// intersection of the sets flagged in Members.
type UpSetRow struct {
	Members []string // names of the participating sets
	Count   int
	Share   float64 // of the union
}

// UpSet computes the exclusive intersections of named sets — the Fig 7/13
// (IPv4) and Fig 14 (IPv6) protocol breakdowns. Rows are ordered by
// descending count.
func UpSet(names []string, sets []Set) []UpSetRow {
	if len(names) != len(sets) {
		panic("stats: names/sets length mismatch")
	}
	union := make(Set)
	for _, s := range sets {
		for id := range s {
			union[id] = true
		}
	}
	counts := make(map[uint]int)
	for id := range union {
		var mask uint
		for i, s := range sets {
			if s[id] {
				mask |= 1 << i
			}
		}
		counts[mask]++
	}
	var rows []UpSetRow
	for mask, n := range counts {
		if mask == 0 {
			continue
		}
		var members []string
		for i := range sets {
			if mask&(1<<i) != 0 {
				members = append(members, names[i])
			}
		}
		share := 0.0
		if len(union) > 0 {
			share = float64(n) / float64(len(union))
		}
		rows = append(rows, UpSetRow{Members: members, Count: n, Share: share})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Count != rows[j].Count {
			return rows[i].Count > rows[j].Count
		}
		return strings.Join(rows[i].Members, "∩") < strings.Join(rows[j].Members, "∩")
	})
	return rows
}

// Label renders the row's membership as "A∩B".
func (r UpSetRow) Label() string { return strings.Join(r.Members, "∩") }

// Table renders aligned plain-text tables for the experiment harness.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// Add appends a row, formatting each cell with %v.
func (t *Table) Add(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.1f", v)
		default:
			row[i] = fmt.Sprint(c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = utf8.RuneCountInString(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if w := utf8.RuneCountInString(c); i < len(widths) && w > widths[i] {
				widths[i] = w
			}
		}
	}
	if t.Title != "" {
		if _, err := fmt.Fprintf(w, "%s\n", t.Title); err != nil {
			return err
		}
	}
	line := func(cells []string) error {
		var sb strings.Builder
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(c)
			for p := utf8.RuneCountInString(c); p < widths[i]; p++ {
				sb.WriteByte(' ')
			}
		}
		_, err := fmt.Fprintf(w, "%s\n", strings.TrimRight(sb.String(), " "))
		return err
	}
	if err := line(t.Header); err != nil {
		return err
	}
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	if err := line(sep); err != nil {
		return err
	}
	for _, r := range t.Rows {
		if err := line(r); err != nil {
			return err
		}
	}
	return nil
}

// Pct formats a ratio as a percentage string.
func Pct(num, den int) string {
	if den == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.1f%%", 100*float64(num)/float64(den))
}
