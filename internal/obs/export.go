package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
)

// TraceExport is a portable trace dump: the assembled spans plus the
// flight-recorder events that were retained alongside them. It is what
// `laces trace export`, `-trace` flags and the /debug/trace API route
// serialize.
type TraceExport struct {
	Spans  []TraceSpan   `json:"spans"`
	Events []FlightEvent `json:"events,omitempty"`
}

// ExportTrace assembles the registry's current trace view: every
// completed span (local and ingested) and the flight-recorder contents.
func (r *Registry) ExportTrace() *TraceExport {
	if r == nil {
		return &TraceExport{}
	}
	return &TraceExport{Spans: r.TraceSpans(), Events: r.Flight().Snapshot()}
}

// traceLine is the JSONL framing: exactly one of span or event per
// line, so streams from different components concatenate into a valid
// merged trace.
type traceLine struct {
	Span  *TraceSpan   `json:"span,omitempty"`
	Event *FlightEvent `json:"event,omitempty"`
}

// WriteJSONL writes the export as one span or event per line.
//
//laces:allow nilsafe TraceExport is a data carrier, not an instrument; Registry.ExportTrace never returns nil even on a nil registry
func (e *TraceExport) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range e.Spans {
		if err := enc.Encode(traceLine{Span: &e.Spans[i]}); err != nil {
			return err
		}
	}
	for i := range e.Events {
		if err := enc.Encode(traceLine{Event: &e.Events[i]}); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadTraceJSONL parses a JSONL trace stream previously written with
// WriteJSONL (or a concatenation of several).
func ReadTraceJSONL(r io.Reader) (*TraceExport, error) {
	ex := &TraceExport{}
	dec := json.NewDecoder(r)
	for {
		var line traceLine
		if err := dec.Decode(&line); err != nil {
			if err == io.EOF {
				return ex, nil
			}
			return nil, fmt.Errorf("trace jsonl: %w", err)
		}
		if line.Span != nil {
			ex.Spans = append(ex.Spans, *line.Span)
		}
		if line.Event != nil {
			ex.Events = append(ex.Events, *line.Event)
		}
	}
}

// MergeTraces concatenates exports from several components into one.
func MergeTraces(parts ...*TraceExport) *TraceExport {
	out := &TraceExport{}
	for _, p := range parts {
		if p == nil {
			continue
		}
		out.Spans = append(out.Spans, p.Spans...)
		out.Events = append(out.Events, p.Events...)
	}
	return out
}

// chromeEvent is one entry of the Chrome trace_event format
// (https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU):
// ph "M" names a process, ph "X" is a complete span (ts+dur), ph "i" an
// instant. Perfetto and chrome://tracing load the resulting JSON
// directly.
type chromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat,omitempty"`
	Ph   string            `json:"ph"`
	Ts   int64             `json:"ts"`
	Dur  int64             `json:"dur,omitempty"`
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	S    string            `json:"s,omitempty"`
	Args map[string]string `json:"args,omitempty"`
}

// chromeDoc is the top-level trace_event envelope.
type chromeDoc struct {
	TraceEvents []chromeEvent `json:"traceEvents"`
}

// hexID renders a span/trace ID the way trace viewers expect.
func hexID(v uint64) string { return "0x" + strconv.FormatUint(v, 16) }

// WriteChrome writes the export in Chrome trace_event JSON. Each
// component becomes one process (pid), named via process_name metadata,
// so a merged CLI+orchestrator+workers trace renders with per-worker
// attribution. Output is deterministic for a given export: components
// are pid-assigned in sorted order and events sorted by time.
//
//laces:allow nilsafe TraceExport is a data carrier, not an instrument; Registry.ExportTrace never returns nil even on a nil registry
func (e *TraceExport) WriteChrome(w io.Writer) error {
	componentPid := make(map[string]int)
	name := func(c string) string {
		if c == "" {
			return "laces"
		}
		return c
	}
	for _, sp := range e.Spans {
		componentPid[name(sp.Component)] = 0
	}
	for _, ev := range e.Events {
		componentPid[name(ev.Component)] = 0
	}
	components := make([]string, 0, len(componentPid))
	for c := range componentPid { //laces:allow maporder sorted immediately below
		components = append(components, c)
	}
	sort.Strings(components)
	doc := chromeDoc{TraceEvents: []chromeEvent{}}
	for i, c := range components {
		componentPid[c] = i + 1
		doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
			Name: "process_name",
			Ph:   "M",
			Pid:  i + 1,
			Args: map[string]string{"name": c},
		})
	}

	spans := make([]TraceSpan, len(e.Spans))
	copy(spans, e.Spans)
	sort.SliceStable(spans, func(i, j int) bool {
		if !spans[i].Start.Equal(spans[j].Start) {
			return spans[i].Start.Before(spans[j].Start)
		}
		if spans[i].Component != spans[j].Component {
			return spans[i].Component < spans[j].Component
		}
		return spans[i].Name < spans[j].Name
	})
	for _, sp := range spans {
		args := map[string]string{
			"trace_id": hexID(sp.TraceID),
			"span_id":  hexID(sp.SpanID),
		}
		if sp.Parent != 0 {
			args["parent"] = hexID(sp.Parent)
		}
		for _, a := range sp.Attrs {
			args[a.Name] = a.Value
		}
		doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
			Name: sp.Name,
			Cat:  "span",
			Ph:   "X",
			Ts:   sp.Start.UnixMicro(),
			Dur:  int64(sp.Seconds * 1e6),
			Pid:  componentPid[name(sp.Component)],
			Args: args,
		})
	}

	events := make([]FlightEvent, len(e.Events))
	copy(events, e.Events)
	sort.SliceStable(events, func(i, j int) bool {
		if !events[i].At.Equal(events[j].At) {
			return events[i].At.Before(events[j].At)
		}
		if events[i].Component != events[j].Component {
			return events[i].Component < events[j].Component
		}
		return events[i].Kind < events[j].Kind
	})
	for _, ev := range events {
		args := map[string]string{}
		if ev.Name != "" {
			args["name"] = ev.Name
		}
		if ev.TraceID != 0 {
			args["trace_id"] = hexID(ev.TraceID)
		}
		if ev.N != 0 {
			args["n"] = strconv.FormatInt(ev.N, 10)
		}
		for _, f := range ev.Fields {
			args[f.Name] = f.Value
		}
		doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
			Name: ev.Kind,
			Cat:  "flight",
			Ph:   "i",
			S:    "p",
			Ts:   ev.At.UnixMicro(),
			Pid:  componentPid[name(ev.Component)],
			Args: args,
		})
	}

	enc := json.NewEncoder(w)
	return enc.Encode(doc)
}
