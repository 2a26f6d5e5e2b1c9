package query

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
)

// EventKind names one longitudinal event class.
type EventKind string

// The event classes the paper's longitudinal analysis cares about
// (Fig 9, Fig 10): deployments starting and ending, unstable prefixes
// blinking in and out, site sets growing/shrinking, and site sets
// moving without changing size.
const (
	// EventOnset: the prefix enters the census after ≥ hysteresis days
	// of absence (or after the window started without it).
	EventOnset EventKind = "onset"
	// EventOffset: the prefix leaves the census for ≥ hysteresis days.
	EventOffset EventKind = "offset"
	// EventFlap: the prefix reappears after a short gap (< hysteresis
	// days) — instability, not a deployment change.
	EventFlap EventKind = "flap"
	// EventSiteChurn: the enumerated site count changes between
	// consecutive present days.
	EventSiteChurn EventKind = "site-churn"
	// EventGeoShift: the site count holds but the enumerated city set
	// changes — the deployment moved.
	EventGeoShift EventKind = "geo-shift"
)

// EventKinds lists every event kind in reporting order.
func EventKinds() []EventKind {
	return []EventKind{EventOnset, EventOffset, EventFlap, EventSiteChurn, EventGeoShift}
}

// ParseEventKind validates an event-kind name.
func ParseEventKind(s string) (EventKind, error) {
	for _, k := range EventKinds() {
		if string(k) == s {
			return k, nil
		}
	}
	return "", fmt.Errorf("query: unknown event kind %q (onset, offset, flap, site-churn, geo-shift)", s)
}

// Event is one detected longitudinal event.
type Event struct {
	Kind   EventKind `json:"kind"`
	Family string    `json:"family"`
	Prefix string    `json:"prefix"`
	// Day is the census day the event takes effect: the reappearance
	// day for onset/flap, the first absent day for offset, the changed
	// day for site-churn/geo-shift.
	Day int `json:"day"`
	// PrevDay is the last present day before the event, or -1 when
	// there is none (an onset with no earlier presence in the window).
	// Not omitempty: day 0 is a legitimate previous day and must stay
	// distinguishable from "none" in serialized form.
	PrevDay int `json:"prev_day"`
	// GapDays counts the absent indexed days behind a flap or between
	// an offset/onset pair.
	GapDays int `json:"gap_days,omitempty"`
	// PrevSites and Sites carry the site-count movement for site-churn
	// (and the stable count for geo-shift).
	PrevSites int `json:"prev_sites,omitempty"`
	Sites     int `json:"sites,omitempty"`
}

// Detail renders the event's kind-specific annotation for human
// surfaces (the CLI listing and the dashboard section share it), or ""
// when the event carries none.
func (e Event) Detail() string {
	switch e.Kind {
	case EventSiteChurn:
		return fmt.Sprintf("sites %d → %d", e.PrevSites, e.Sites)
	case EventGeoShift:
		return fmt.Sprintf("%d sites moved", e.Sites)
	default:
		if e.GapDays > 0 {
			return fmt.Sprintf("gap %d days", e.GapDays)
		}
	}
	return ""
}

// EventOptions tunes detection.
type EventOptions struct {
	// Hysteresis is the number of consecutive absent indexed days
	// before a disappearance counts as an offset rather than a flap
	// (default 2 — a single missed day is instability, not a
	// deployment ending).
	Hysteresis int
}

func (o EventOptions) withDefaults() EventOptions {
	if o.Hysteresis <= 0 {
		o.Hysteresis = 2
	}
	return o
}

// detect appends the row's events to out in day order; days is the
// family's indexed day list. Detection is a pure function of the row and
// the options, so the same index always yields byte-identical event
// lists.
func (s *row) detect(out []Event, family, prefix string, days []int, opts EventOptions) []Event {
	opts = opts.withDefaults()
	n := len(days)
	ev := func(kind EventKind, day int) Event {
		return Event{Kind: kind, Family: family, Prefix: prefix, Day: day, PrevDay: -1}
	}

	prev := -1 // last present position
	for k, i := range s.present {
		gap := i - prev - 1 // absent indexed days since last presence
		switch {
		case prev < 0 && i > 0:
			// Absent from the window start: a genuine appearance.
			out = append(out, ev(EventOnset, days[i]))
		case prev >= 0 && gap >= opts.Hysteresis:
			off := ev(EventOffset, days[prev+1])
			off.PrevDay = days[prev]
			off.GapDays = gap
			on := ev(EventOnset, days[i])
			on.PrevDay = days[prev]
			on.GapDays = gap
			out = append(out, off, on)
		case prev >= 0 && gap > 0:
			fl := ev(EventFlap, days[i])
			fl.PrevDay = days[prev]
			fl.GapDays = gap
			out = append(out, fl)
		}
		if prev >= 0 && gap == 0 {
			// Consecutive present days: compare the GCD enumeration.
			ps, cs := s.sites[k-1], s.sites[k]
			switch {
			case ps > 0 && cs > 0 && cs != ps:
				e := ev(EventSiteChurn, days[i])
				e.PrevDay = days[prev]
				e.PrevSites, e.Sites = ps, cs
				out = append(out, e)
			case ps > 0 && cs == ps && s.city[k-1] != s.city[k]:
				e := ev(EventGeoShift, days[i])
				e.PrevDay = days[prev]
				e.PrevSites, e.Sites = ps, cs
				out = append(out, e)
			}
		}
		prev = i
	}
	// Trailing absence: an offset only once the gap clears hysteresis;
	// a shorter trailing gap is still undecided and emits nothing.
	if prev >= 0 && prev < n-1 && n-1-prev >= opts.Hysteresis {
		off := ev(EventOffset, days[prev+1])
		off.PrevDay = days[prev]
		off.GapDays = n - 1 - prev
		out = append(out, off)
	}
	// Day order: interleaved offset/onset pairs above already emit in
	// ascending day order per row.
	return out
}

// Events scans every indexed prefix of a family and returns the events
// of the requested kinds with effect days in [from, to] (to < 0 means
// through the last indexed day). A nil or empty kind set selects every
// kind. Each row is read once into one reused buffer and scanned in
// place — no Timeline is built, nothing is allocated per row once the
// buffers have grown — and no document is decoded.
//
// The day window is pushed into the scan: every event with an effect
// day in [from, to] requires the prefix to be present on some indexed
// day at position [fromPos-1, toPos] (onset/flap/churn/shift days are
// present days inside the window; an offset day is the first absent day
// after a present day, so its predecessor sits at fromPos-1 or later).
// For a narrow window, the presence bitmap — the first bytes of the row
// — rejects most prefixes before their row is loaded. A row too short
// for its bitmaps is never pruned, so it is an error on every window.
func (ix *Index) Events(family string, kinds []EventKind, from, to int, opts EventOptions) ([]Event, error) {
	fam := ix.fams[family]
	if fam == nil {
		return nil, fmt.Errorf("query: no %s timelines: %w", family, ErrUnknownFamily)
	}
	n := len(fam.days)
	if n == 0 {
		return nil, nil
	}
	if to < 0 {
		to = fam.days[n-1]
	}
	// Resolve the window to day-list positions once. An empty resolved
	// window means no indexed day — hence no event day — can fall in it.
	fromPos := sort.SearchInts(fam.days, from)
	toPos := sort.SearchInts(fam.days, to+1) - 1
	if fromPos > toPos {
		return nil, nil
	}
	lo := max(fromPos-1, 0)
	full := fromPos == 0 && toPos == n-1
	var (
		out  []Event
		buf  []byte
		scan row
		err  error
	)
	for _, ref := range fam.prefixes {
		ix.eventRows.Add(1)
		if buf, err = ix.readRow(buf, ref); err != nil {
			return nil, err
		}
		if !full && len(buf) >= nFlags*bitmapLen(n) && !anyBit(buf, lo, toPos) {
			ix.eventRowsPruned.Add(1)
			continue
		}
		if err := scan.load(ref, n, buf); err != nil {
			return nil, err
		}
		// Detect straight into out, then keep the row's in-filter events.
		kept := len(out)
		out = scan.detect(out, family, ref.prefix, fam.days, opts)
		for _, e := range out[kept:] {
			if e.Day >= from && e.Day <= to && (len(kinds) == 0 || slices.Contains(kinds, e.Kind)) {
				out[kept] = e
				kept++
			}
		}
		out = out[:kept]
	}
	// Prefixes are scanned in canonical order and each row emits in day
	// order; re-sort into (day, prefix-scan, emission) order so the list
	// reads chronologically. Stable by construction: sort by day only,
	// ties keep canonical prefix order.
	return sortEventsByDay(out), nil
}

// sortEventsByDay orders events chronologically. The input is P
// per-prefix runs concatenated in canonical prefix order, each run
// already day-ordered — a stable sort on day alone keeps canonical
// prefix order within a day. It counts events per day over the span the
// events cover and places each one once: no comparisons, no swaps. A
// span far wider than the event count — a sparse or hostile day list —
// takes a stable comparison sort instead, so memory stays proportional
// to the events.
func sortEventsByDay(events []Event) []Event {
	if len(events) < 2 {
		return events
	}
	lo, hi := events[0].Day, events[0].Day
	for i := range events {
		lo, hi = min(lo, events[i].Day), max(hi, events[i].Day)
	}
	if hi-lo > 4*len(events) {
		slices.SortStableFunc(events, func(a, b Event) int { return cmp.Compare(a.Day, b.Day) })
		return events
	}
	next := make([]int, hi-lo+2) // next[d]: where day lo+d's next event goes
	for i := range events {
		next[events[i].Day-lo+1]++
	}
	for d := 1; d < len(next); d++ {
		next[d] += next[d-1]
	}
	out := make([]Event, len(events))
	for i := range events {
		d := events[i].Day - lo
		out[next[d]] = events[i]
		next[d]++
	}
	return out
}

// Stability scores one prefix's longitudinal steadiness.
type Stability struct {
	Family      string  `json:"family"`
	Prefix      string  `json:"prefix"`
	DaysIndexed int     `json:"days_indexed"`
	DaysPresent int     `json:"days_present"`
	GCDDays     int     `json:"gcd_confirmed_days"`
	Onsets      int     `json:"onsets"`
	Offsets     int     `json:"offsets"`
	Flaps       int     `json:"flaps"`
	SiteChanges int     `json:"site_changes"`
	GeoShifts   int     `json:"geo_shifts"`
	MeanSites   float64 `json:"mean_sites"`
	// Score is 1.0 for a prefix present every day with a frozen site
	// set, decaying with absence and every kind of churn. Rounded to
	// four decimals so serialized scores are byte-stable.
	Score float64 `json:"score"`
}

// Stability computes the score for one prefix from the index alone:
// one row read, scanned in place.
func (ix *Index) Stability(family, prefix string) (*Stability, error) {
	fam, ref, err := ix.find(family, prefix)
	if err != nil {
		return nil, err
	}
	b, err := ix.readRow(nil, ref)
	if err != nil {
		return nil, err
	}
	var scan row
	if err := scan.load(ref, len(fam.days), b); err != nil {
		return nil, err
	}
	st := scan.score(family, prefix, fam.days, EventOptions{})
	return &st, nil
}

// score derives the row's stability record; days is the family's
// indexed day list.
func (s *row) score(family, prefix string, days []int, opts EventOptions) Stability {
	st := Stability{Family: family, Prefix: prefix, DaysIndexed: len(days), DaysPresent: len(s.present)}
	siteSum := 0
	for k, p := range s.present {
		if getBit(s.gcd, p) {
			st.GCDDays++
			siteSum += s.sites[k]
		}
	}
	s.scratch = s.detect(s.scratch[:0], family, prefix, days, opts)
	for _, e := range s.scratch {
		switch e.Kind {
		case EventOnset:
			st.Onsets++
		case EventOffset:
			st.Offsets++
		case EventFlap:
			st.Flaps++
		case EventSiteChurn:
			st.SiteChanges++
		case EventGeoShift:
			st.GeoShifts++
		}
	}
	if st.GCDDays > 0 {
		st.MeanSites = round4(float64(siteSum) / float64(st.GCDDays))
	}
	if st.DaysIndexed > 0 {
		presence := float64(st.DaysPresent) / float64(st.DaysIndexed)
		churn := float64(st.Onsets+st.Offsets+st.Flaps) +
			0.5*float64(st.SiteChanges) + 0.25*float64(st.GeoShifts)
		st.Score = round4(presence / (1 + churn))
	}
	return st
}

func round4(v float64) float64 { return math.Round(v*1e4) / 1e4 }

// SeriesPoint is one day of the aggregate census series, answered
// entirely from the index's per-day columns.
type SeriesPoint struct {
	Day          int     `json:"day"`
	Entries      int     `json:"entries"`
	GCDConfirmed int     `json:"gcd_confirmed"`
	AnycastOnly  int     `json:"anycast_based_only"`
	Added        int     `json:"added"`
	Removed      int     `json:"removed"`
	ChurnRate    float64 `json:"churn_rate"`
}

// Series returns the family's daily aggregate series: census sizes,
// the 𝒢/ℳ split, membership churn against the previous indexed day,
// and the churn rate (added+removed over the day's size).
func (ix *Index) Series(family string) ([]SeriesPoint, error) {
	fam := ix.fams[family]
	if fam == nil {
		return nil, fmt.Errorf("query: no %s timelines: %w", family, ErrUnknownFamily)
	}
	return fam.series(), nil
}

// series derives the aggregate series from the family's per-day columns.
func (fam *famIndex) series() []SeriesPoint {
	out := make([]SeriesPoint, len(fam.days))
	for i, day := range fam.days {
		p := SeriesPoint{
			Day:          day,
			Entries:      fam.entries[i],
			GCDConfirmed: fam.g[i],
			AnycastOnly:  fam.m[i],
			Added:        fam.added[i],
			Removed:      fam.removed[i],
		}
		if p.Entries > 0 {
			p.ChurnRate = round4(float64(p.Added+p.Removed) / float64(p.Entries))
		}
		out[i] = p
	}
	return out
}
