package obs

import (
	"encoding/json"
	"io"
	"time"
)

// SnapshotBucket is one histogram bucket in a Snapshot: the upper bound
// and the non-cumulative count.
type SnapshotBucket struct {
	LE    float64 `json:"le"`
	Count int64   `json:"count"`
}

// SnapshotMetric is one series in a Snapshot. Scalar series carry
// Value; histograms carry Count, Sum and Buckets.
type SnapshotMetric struct {
	Name   string  `json:"name"`
	Type   string  `json:"type"`
	Labels []Label `json:"labels,omitempty"`

	Value float64 `json:"value"`

	Count   int64            `json:"count,omitempty"`
	Sum     float64          `json:"sum,omitempty"`
	Buckets []SnapshotBucket `json:"buckets,omitempty"`
}

// Snapshot is the end-of-run telemetry dump: every series' final
// value, the completed span tree and the retained events. It is what
// `laces census -obs` and `laces-experiments -obs` write and what
// `laces metrics` renders.
type Snapshot struct {
	TakenAt time.Time        `json:"taken_at"`
	Metrics []SnapshotMetric `json:"metrics"`
	Spans   []TraceSpan      `json:"spans,omitempty"`
	Events  []FlightEvent    `json:"events,omitempty"`
}

// Snapshot captures the registry's current state. Func-backed series
// are evaluated; histograms include their full bucket layout.
func (r *Registry) Snapshot() *Snapshot {
	if r == nil {
		return &Snapshot{}
	}
	snap := &Snapshot{TakenAt: time.Now()} //laces:allow detnow snapshot capture time is operator-facing telemetry, not census content
	r.mu.Lock()
	fams := make([]*family, len(r.fams))
	copy(fams, r.fams)
	r.mu.Unlock()
	for _, fam := range fams {
		r.mu.Lock()
		series := make([]*metric, len(fam.series))
		copy(series, fam.series)
		r.mu.Unlock()
		for _, m := range series {
			sm := SnapshotMetric{Name: fam.name, Type: fam.kind.promType(), Labels: m.labels}
			if m.kind == kindHistogram && m.hist != nil {
				sm.Count = m.hist.Count()
				sm.Sum = m.hist.Sum()
				counts := m.hist.BucketCounts()
				for i, b := range m.hist.Bounds() {
					if counts[i] != 0 {
						sm.Buckets = append(sm.Buckets, SnapshotBucket{LE: b, Count: counts[i]})
					}
				}
				if inf := counts[len(counts)-1]; inf != 0 {
					sm.Buckets = append(sm.Buckets, SnapshotBucket{LE: -1, Count: inf})
				}
			} else {
				sm.Value = m.value()
			}
			snap.Metrics = append(snap.Metrics, sm)
		}
	}
	// Self-telemetry: the bounded-log drop counts, always present so a
	// saturated span log or wrapped flight recorder names itself in the
	// dump instead of silently truncating.
	snap.Metrics = append(snap.Metrics,
		SnapshotMetric{Name: "laces_obs_trace_spans_dropped_total", Type: "counter", Value: float64(r.TraceDropped())},
		SnapshotMetric{Name: "laces_obs_flight_events_dropped_total", Type: "counter", Value: float64(r.FlightDropped())},
	)
	snap.Spans = r.TraceSpans()
	snap.Events = r.Flight().Snapshot()
	return snap
}

// WriteJSON writes the snapshot as indented JSON.
//
//laces:allow nilsafe Snapshot is a data carrier, not an instrument; Registry.Snapshot never returns nil even on a nil registry
func (s *Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// ReadSnapshot parses a snapshot previously written with WriteJSON.
func ReadSnapshot(r io.Reader) (*Snapshot, error) {
	var s Snapshot
	if err := json.NewDecoder(r).Decode(&s); err != nil {
		return nil, err
	}
	return &s, nil
}
