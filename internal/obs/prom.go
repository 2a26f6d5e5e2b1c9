package obs

import (
	"bufio"
	"io"
	"strconv"
	"strings"
)

// escapeLabel escapes a label value per the Prometheus text format:
// backslash, double quote and newline.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var sb strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			sb.WriteString(`\\`)
		case '"':
			sb.WriteString(`\"`)
		case '\n':
			sb.WriteString(`\n`)
		default:
			sb.WriteRune(r)
		}
	}
	return sb.String()
}

// escapeHelp escapes a HELP string (backslash and newline only).
func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// writeLabels renders {k="v",...}, with extra appended last (the
// histogram "le" label). Empty sets render nothing.
func writeLabels(w *bufio.Writer, labels []Label, extra ...Label) {
	if len(labels)+len(extra) == 0 {
		return
	}
	w.WriteByte('{')
	first := true
	for _, set := range [2][]Label{labels, extra} {
		for _, l := range set {
			if !first {
				w.WriteByte(',')
			}
			first = false
			w.WriteString(l.Name)
			w.WriteString(`="`)
			w.WriteString(escapeLabel(l.Value))
			w.WriteByte('"')
		}
	}
	w.WriteByte('}')
}

// formatFloat renders a sample value the way Prometheus expects:
// shortest round-trip representation, integers without an exponent.
func formatFloat(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders every registered series in the Prometheus
// text exposition format (version 0.0.4): one HELP/TYPE header per
// family, families in registration order, series in registration order
// within a family. Histograms emit cumulative _bucket series plus _sum
// and _count. Func-backed series are evaluated at call time.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	bw := bufio.NewWriter(w)
	r.mu.Lock()
	fams := make([]*family, len(r.fams))
	copy(fams, r.fams)
	r.mu.Unlock()
	for _, fam := range fams {
		if fam.help != "" {
			bw.WriteString("# HELP ")
			bw.WriteString(fam.name)
			bw.WriteByte(' ')
			bw.WriteString(escapeHelp(fam.help))
			bw.WriteByte('\n')
		}
		bw.WriteString("# TYPE ")
		bw.WriteString(fam.name)
		bw.WriteByte(' ')
		bw.WriteString(fam.kind.promType())
		bw.WriteByte('\n')
		r.mu.Lock()
		series := make([]*metric, len(fam.series))
		copy(series, fam.series)
		r.mu.Unlock()
		for _, m := range series {
			if m.kind == kindHistogram {
				writeHistogram(bw, fam.name, m)
				continue
			}
			bw.WriteString(fam.name)
			writeLabels(bw, m.labels)
			bw.WriteByte(' ')
			bw.WriteString(formatFloat(m.value()))
			bw.WriteByte('\n')
		}
	}
	// Self-telemetry families, appended after the registered series:
	// drop counts of the bounded span and flight logs. Always exposed
	// (even at zero) so dashboards can alert on the first drop.
	writeSelfCounter(bw, "laces_obs_trace_spans_dropped_total",
		"Spans dropped at the span-log cap.", float64(r.TraceDropped()))
	writeSelfCounter(bw, "laces_obs_flight_events_dropped_total",
		"Flight-recorder events overwritten by ring wrap.", float64(r.FlightDropped()))
	return bw.Flush()
}

// writeSelfCounter renders one label-free counter family.
func writeSelfCounter(bw *bufio.Writer, name, help string, v float64) {
	bw.WriteString("# HELP ")
	bw.WriteString(name)
	bw.WriteByte(' ')
	bw.WriteString(escapeHelp(help))
	bw.WriteString("\n# TYPE ")
	bw.WriteString(name)
	bw.WriteString(" counter\n")
	bw.WriteString(name)
	bw.WriteByte(' ')
	bw.WriteString(formatFloat(v))
	bw.WriteByte('\n')
}

// writeHistogram renders one histogram series: cumulative buckets with
// le bounds, then _sum and _count.
func writeHistogram(bw *bufio.Writer, name string, m *metric) {
	h := m.hist
	if h == nil {
		return
	}
	counts := h.BucketCounts()
	var cum int64
	for i, bound := range h.Bounds() {
		cum += counts[i]
		bw.WriteString(name)
		bw.WriteString("_bucket")
		writeLabels(bw, m.labels, L("le", formatFloat(bound)))
		bw.WriteByte(' ')
		bw.WriteString(strconv.FormatInt(cum, 10))
		bw.WriteByte('\n')
	}
	cum += counts[len(counts)-1]
	bw.WriteString(name)
	bw.WriteString("_bucket")
	writeLabels(bw, m.labels, L("le", "+Inf"))
	bw.WriteByte(' ')
	bw.WriteString(strconv.FormatInt(cum, 10))
	bw.WriteByte('\n')

	bw.WriteString(name)
	bw.WriteString("_sum")
	writeLabels(bw, m.labels)
	bw.WriteByte(' ')
	bw.WriteString(formatFloat(h.Sum()))
	bw.WriteByte('\n')

	bw.WriteString(name)
	bw.WriteString("_count")
	writeLabels(bw, m.labels)
	bw.WriteByte(' ')
	bw.WriteString(strconv.FormatInt(h.Count(), 10))
	bw.WriteByte('\n')
}
