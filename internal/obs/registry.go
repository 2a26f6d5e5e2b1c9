package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one name=value metric dimension.
type Label struct {
	Name  string `json:"name"`
	Value string `json:"value"`
}

// L is shorthand for constructing a Label.
func L(name, value string) Label { return Label{Name: name, Value: value} }

// metricKind discriminates the stored instrument.
type metricKind uint8

const (
	kindCounter metricKind = iota
	kindHistogram
	kindCounterFunc
	kindGaugeFunc
)

// promType maps the stored kind to its exposition type.
func (k metricKind) promType() string {
	switch k {
	case kindCounter, kindCounterFunc:
		return "counter"
	case kindGaugeFunc:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "untyped"
}

// metric is one registered series: a named instrument plus its label
// set.
type metric struct {
	labels []Label
	kind   metricKind

	counter *Counter
	hist    *Histogram
	fn      func() float64
}

// value evaluates a scalar metric at read time.
func (m *metric) value() float64 {
	switch m.kind {
	case kindCounter:
		return float64(m.counter.Value())
	case kindCounterFunc, kindGaugeFunc:
		return m.fn()
	}
	return 0
}

// family groups every series sharing one metric name: they must agree
// on type and help, and the exposition emits them under one
// HELP/TYPE header.
type family struct {
	name    string
	help    string
	kind    metricKind
	series  []*metric // insertion order
	byLabel map[string]*metric
}

// registryState is what every handle onto one registry shares: the
// instruments, the span log, the flight recorder and the census
// progress state.
type registryState struct {
	mu    sync.Mutex
	fams  []*family // insertion order, for deterministic exposition
	index map[string]*family

	traces   traceLog
	progress progressState
	flight   atomic.Pointer[Recorder]
}

// Registry is the telemetry root: a named, labelled set of instruments
// plus the span log, flight recorder and census progress state. All
// methods are safe for concurrent use and nil-safe — a nil *Registry
// hands out nil instruments whose methods are no-ops, so a pipeline
// wired for telemetry runs unobserved at the cost of one branch per
// call site.
//
// Get-or-create is by (name, label set): two call sites asking for the
// same series share the underlying instrument. Registration takes the
// registry lock; hot loops must resolve handles once, outside the loop.
type Registry struct {
	*registryState
	// parent is the span Stage opens its spans under: nil on the handle
	// New returns, set on the handles Under derives from it.
	parent *ActiveSpan
}

// defaultFlightSize is the event retention of the recorder every
// registry starts with, so operational events (worker disconnects,
// reconciliation mismatches) reach a Snapshot without any tracing flag.
const defaultFlightSize = 256

// New returns an empty registry with a default flight recorder.
func New() *Registry {
	r := &Registry{registryState: &registryState{index: make(map[string]*family)}}
	r.EnableFlight("", defaultFlightSize)
	return r
}

// Under returns a handle onto the same registry whose Stage runs open
// their spans as children of s. It is how a pipeline hands its census
// span to the stage packages through the telemetry handle their options
// already carry. A nil span returns r unchanged.
func (r *Registry) Under(s *ActiveSpan) *Registry {
	if r == nil || s == nil {
		return r
	}
	return &Registry{registryState: r.registryState, parent: s}
}

// labelKey serialises a label set into a map key. Labels are sorted by
// name first so call-site ordering does not split series.
func labelKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var sb strings.Builder
	for _, l := range labels {
		sb.WriteString(l.Name)
		sb.WriteByte(0x1)
		sb.WriteString(l.Value)
		sb.WriteByte(0x2)
	}
	return sb.String()
}

// sortLabels returns the labels in canonical (name-sorted) order.
func sortLabels(labels []Label) []Label {
	if len(labels) <= 1 {
		return labels
	}
	out := make([]Label, len(labels))
	copy(out, labels)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// lookup finds or creates the series for (name, labels), panicking on a
// type conflict — a programming error a test would catch immediately.
func (r *Registry) lookup(name, help string, kind metricKind, labels []Label) *metric {
	labels = sortLabels(labels)
	key := labelKey(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	fam := r.index[name]
	if fam == nil {
		fam = &family{name: name, help: help, kind: kind, byLabel: make(map[string]*metric)}
		r.fams = append(r.fams, fam)
		r.index[name] = fam
	}
	if fam.kind != kind {
		panic(fmt.Sprintf("obs: metric %q registered as %s and %s", name, fam.kind.promType(), kind.promType()))
	}
	m := fam.byLabel[key]
	if m == nil {
		m = &metric{labels: labels, kind: kind}
		switch kind {
		case kindCounter:
			m.counter = new(Counter)
		case kindHistogram:
			// hist filled by caller (bounds vary)
		}
		fam.series = append(fam.series, m)
		fam.byLabel[key] = m
	}
	return m
}

// Counter returns the counter series (name, labels), creating it on
// first use. Nil registry returns a nil (no-op) counter.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, kindCounter, labels).counter
}

// Histogram returns the histogram series (name, labels) over the given
// bucket bounds (DefLatencyBuckets when nil). Bounds are fixed by the
// first registration.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	m := r.lookup(name, help, kindHistogram, labels)
	r.mu.Lock()
	if m.hist == nil {
		m.hist = newHistogram(bounds)
	}
	h := m.hist
	r.mu.Unlock()
	return h
}

// CounterFunc registers a counter series whose value is read from fn at
// exposition time — the bridge for packages that keep their own atomic
// accounting (netsim telemetry, the budget ledger, archive decode
// counts) without importing obs. Re-registering the same series
// replaces the function.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...Label) {
	if r == nil {
		return
	}
	m := r.lookup(name, help, kindCounterFunc, labels)
	r.mu.Lock()
	m.fn = fn
	r.mu.Unlock()
}

// GaugeFunc registers a gauge series read from fn at exposition time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	if r == nil {
		return
	}
	m := r.lookup(name, help, kindGaugeFunc, labels)
	r.mu.Lock()
	m.fn = fn
	r.mu.Unlock()
}

// NumSeries returns the number of registered series (histograms count
// once), for tests and the metrics dump.
func (r *Registry) NumSeries() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, fam := range r.fams {
		n += len(fam.series)
	}
	return n
}
