package query

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
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
	s.walk(days, opts.withDefaults().Hysteresis, func(t transition) {
		out = append(out, Event{Kind: t.kind, Family: family, Prefix: prefix, Day: t.day,
			PrevDay: t.prevDay, GapDays: t.gap, PrevSites: t.prevSites, Sites: t.sites})
	})
	return out
}

// transition is one event of a row, as walk finds it: an Event without
// the family and prefix it belongs to.
type transition struct {
	kind                                EventKind
	day, prevDay, gap, prevSites, sites int
}

// walk is the one event detector: it calls emit with each of the row's
// events in day order, under the given hysteresis; days is the family's
// indexed day list. detect makes the events of them, and score counts
// their kinds.
func (s *row) walk(days []int, hysteresis int, emit func(transition)) {
	n := len(days)
	prev := -1 // last present position
	for k, i := range s.present {
		gap := i - prev - 1 // absent indexed days since last presence
		switch {
		case prev < 0 && i > 0:
			// Absent from the window start: a genuine appearance.
			emit(transition{kind: EventOnset, day: days[i], prevDay: -1})
		case prev >= 0 && gap >= hysteresis:
			emit(transition{kind: EventOffset, day: days[prev+1], prevDay: days[prev], gap: gap})
			emit(transition{kind: EventOnset, day: days[i], prevDay: days[prev], gap: gap})
		case prev >= 0 && gap > 0:
			emit(transition{kind: EventFlap, day: days[i], prevDay: days[prev], gap: gap})
		}
		if prev >= 0 && gap == 0 {
			// Consecutive present days: compare the GCD enumeration.
			ps, cs := s.sites[k-1], s.sites[k]
			switch {
			case ps > 0 && cs > 0 && cs != ps:
				emit(transition{kind: EventSiteChurn, day: days[i], prevDay: days[prev], prevSites: ps, sites: cs})
			case ps > 0 && cs == ps && s.city[k-1] != s.city[k]:
				emit(transition{kind: EventGeoShift, day: days[i], prevDay: days[prev], prevSites: ps, sites: cs})
			}
		}
		prev = i
	}
	// Trailing absence: an offset only once the gap clears hysteresis;
	// a shorter trailing gap is still undecided and emits nothing.
	if prev >= 0 && prev < n-1 && n-1-prev >= hysteresis {
		emit(transition{kind: EventOffset, day: days[prev+1], prevDay: days[prev], gap: n - 1 - prev})
	}
	// Day order: interleaved offset/onset pairs above already emit in
	// ascending day order per row.
}

// Events returns a family's events of the requested kinds with effect
// days in [from, to] (to < 0 means through the last indexed day). A nil
// or empty kind set selects every kind. No document is decoded.
//
// The answer is a slice of the family's full-history, all-kinds list
// under the options' hysteresis, which the Index computes once and keeps
// (eventMemo): every row detects over the whole day list, whatever the
// window, and the list is in day order with ties in canonical prefix
// order, so a window's events are the contiguous run with from ≤ Day ≤
// to, found by two binary searches. Without a kind filter the returned
// list is that shared run, its capacity clipped: treat it as immutable.
// A kind filter returns a new list. An empty answer is nil.
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
	// A window holding no indexed day holds no event day either.
	if sort.SearchInts(fam.days, from) > sort.SearchInts(fam.days, to+1)-1 {
		return nil, nil
	}
	opts = opts.withDefaults()
	l := ix.events.get(eventsKey{family, opts.Hysteresis})
	l.once.Do(func() { l.events, l.err = ix.allEvents(family, fam, opts) })
	if l.err != nil {
		return nil, l.err
	}
	all := l.events
	lo := sort.Search(len(all), func(i int) bool { return all[i].Day >= from })
	hi := sort.Search(len(all), func(i int) bool { return all[i].Day > to })
	if len(kinds) > 0 {
		var out []Event
		for _, e := range all[lo:hi] {
			if slices.Contains(kinds, e.Kind) {
				out = append(out, e)
			}
		}
		return slices.Clip(out), nil
	}
	if lo == hi {
		return nil, nil
	}
	return all[lo:hi:hi], nil
}

// allEvents scans every indexed prefix of a family and returns its
// events of every kind, in day order. Each row record is scanned in
// place in the image through a pooled row, so nothing is allocated per
// row once its buffers have grown; the events are detected into the
// row's scratch list and placed once, in day order, into the one list
// returned, which is exactly as long as the events it holds.
func (ix *Index) allEvents(family string, fam *famIndex, opts EventOptions) ([]Event, error) {
	scan := rowPool.Get().(*row)
	defer rowPool.Put(scan)
	out := scan.scratch[:0]
	defer func() { scan.scratch = out[:0] }()
	for _, ref := range fam.prefixes {
		ix.eventRows.Add(1)
		if err := scan.load(ref, len(fam.days), ix.record(ref)); err != nil {
			return nil, err
		}
		out = scan.detect(out, family, ref.prefix, fam.days, opts)
	}
	// Prefixes are scanned in canonical order and each row emits in day
	// order; re-sort into (day, prefix-scan, emission) order so the list
	// reads chronologically. Stable by construction: sort by day only,
	// ties keep canonical prefix order.
	return sortEventsByDay(out), nil
}

// eventMemoSize bounds the full-history event lists an Index keeps, one
// per family and hysteresis asked for.
const eventMemoSize = 8

// eventsKey names one memoized event list.
type eventsKey struct {
	family     string
	hysteresis int
}

// eventList is one memoized list, computed once by the first request
// for its key; later and concurrent requests wait on once and share it.
type eventList struct {
	key    eventsKey
	once   sync.Once
	events []Event
	err    error
}

// eventMemo holds at most eventMemoSize event lists, most recently
// asked for first; a new key drops the least recently asked for. It
// lives as long as its Index, whose image never changes.
type eventMemo struct {
	mu    sync.Mutex
	lists []*eventList
}

// get returns key's list, making an empty one for a new key, and moves
// it to the front.
func (m *eventMemo) get(key eventsKey) *eventList {
	m.mu.Lock()
	defer m.mu.Unlock()
	i := slices.IndexFunc(m.lists, func(l *eventList) bool { return l.key == key })
	if i < 0 {
		if len(m.lists) < eventMemoSize {
			m.lists = append(m.lists, nil)
		}
		i = len(m.lists) - 1
		m.lists[i] = &eventList{key: key}
	}
	l := m.lists[i]
	copy(m.lists[1:i+1], m.lists[:i])
	m.lists[0] = l
	return l
}

// sortEventsByDay returns the events in chronological order, in a new
// list of exactly their number (nil for none); the input is left as it
// was. The input is P per-prefix runs concatenated in canonical prefix
// order, each run already day-ordered — a stable sort on day alone keeps
// canonical prefix order within a day. It counts events per day over the
// span the events cover and places each one once: no comparisons, no
// swaps. A span far wider than the event count — a sparse or hostile day
// list — takes a stable comparison sort of a copy instead, so memory
// stays proportional to the events.
func sortEventsByDay(events []Event) []Event {
	switch len(events) {
	case 0:
		return nil
	case 1:
		return []Event{events[0]}
	}
	lo, hi := events[0].Day, events[0].Day
	for i := range events {
		lo, hi = min(lo, events[i].Day), max(hi, events[i].Day)
	}
	if hi-lo > 4*len(events) {
		out := slices.Clone(events)
		slices.SortStableFunc(out, func(a, b Event) int { return cmp.Compare(a.Day, b.Day) })
		return out
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
// its row record scanned in place, through a row reused across calls.
func (ix *Index) Stability(family, prefix string) (*Stability, error) {
	fam, ref, err := ix.find(family, prefix)
	if err != nil {
		return nil, err
	}
	scan := rowPool.Get().(*row)
	defer rowPool.Put(scan)
	if err := scan.load(ref, len(fam.days), ix.record(ref)); err != nil {
		return nil, err
	}
	st := scan.score(family, prefix, fam.days, EventOptions{})
	return &st, nil
}

// rowPool holds the rows Stability scans with, so a request reuses the
// slices an earlier one grew.
var rowPool = sync.Pool{New: func() any { return new(row) }}

// score derives the row's stability record; days is the family's
// indexed day list. It counts the kinds of the events walk finds, and
// makes no Event.
func (s *row) score(family, prefix string, days []int, opts EventOptions) Stability {
	st := Stability{Family: family, Prefix: prefix, DaysIndexed: len(days), DaysPresent: len(s.present)}
	siteSum := 0
	for k, p := range s.present {
		if getBit(s.gcd, p) {
			st.GCDDays++
			siteSum += s.sites[k]
		}
	}
	s.walk(days, opts.withDefaults().Hysteresis, func(t transition) {
		switch t.kind {
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
	})
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
