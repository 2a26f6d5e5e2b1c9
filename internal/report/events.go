package report

import (
	"fmt"
	"io"

	"github.com/laces-project/laces/internal/query"
)

// churnDays bounds the dashboard's churn table and recentEvents its
// event listing; the most recent days and events win.
const (
	churnDays    = 10
	recentEvents = 12
)

// ChurnAndEvents renders the dashboard's longitudinal section from
// timeline-index query results — aggregate churn per indexed day plus
// the detected event stream — instead of re-scanning census documents.
func ChurnAndEvents(w io.Writer, series []query.SeriesPoint, events []query.Event) error {
	if _, err := fmt.Fprintln(w, "\nchurn per day (from the timeline index):"); err != nil {
		return err
	}
	start := max(len(series)-churnDays, 0)
	for _, pt := range series[start:] {
		if _, err := fmt.Fprintf(w, "  day %4d  entries %-6d G %-6d M %-6d +%-4d −%-4d churn %.2f%%\n",
			pt.Day, pt.Entries, pt.GCDConfirmed, pt.AnycastOnly,
			pt.Added, pt.Removed, 100*pt.ChurnRate); err != nil {
			return err
		}
	}

	perKind := make(map[query.EventKind]int, len(events))
	for _, e := range events {
		perKind[e.Kind]++
	}
	if _, err := fmt.Fprintf(w, "\nevents: %d total —", len(events)); err != nil {
		return err
	}
	for i, k := range query.EventKinds() {
		sep := ","
		if i == 0 {
			sep = ""
		}
		if _, err := fmt.Fprintf(w, "%s %s %d", sep, k, perKind[k]); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintln(w); err != nil {
		return err
	}
	return RenderEvents(w, events, recentEvents)
}

// RenderEvents writes the event listing capped to the max most recent
// entries (zero: a small default) — the one renderer behind both the
// dashboard section and the CLI's `laces query events`.
func RenderEvents(w io.Writer, events []query.Event, max int) error {
	if max <= 0 {
		max = recentEvents
	}
	start := 0
	if len(events) > max {
		start = len(events) - max
		if _, err := fmt.Fprintf(w, "  (showing the %d most recent)\n", max); err != nil {
			return err
		}
	}
	for _, e := range events[start:] {
		detail := e.Detail()
		if detail != "" {
			detail = "  " + detail
		}
		if _, err := fmt.Fprintf(w, "  day %4d  %-10s %-22s%s\n", e.Day, e.Kind, e.Prefix, detail); err != nil {
			return err
		}
	}
	return nil
}
