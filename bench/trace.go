package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one traced call: the benchmark wraps every rep and every call it
// makes into a layer. Times are nanoseconds since process start.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0 for a root span
	Rep     int    `json:"rep"`    // the rep the span belongs to; 0 outside any rep
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

func (s *span) dur() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// tracer keeps spans in memory until the run ends. Every workload drives the
// program from one goroutine, so the open-span stack names each new span's
// parent. A nil tracer records nothing: an untraced run pays one branch per
// call site.
type tracer struct {
	rep   int // the rep in progress, counted from 1; 0 outside the reps
	spans []span
	open  []int // ids of the spans currently open, innermost last
}

// begin opens a span and returns its id (0 when not recording).
func (t *tracer) begin(name string) int {
	if t == nil {
		return 0
	}
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Rep: t.rep, Name: name, StartNS: int64(since(procStart))})
	t.open = append(t.open, id)
	return id
}

// setRep names the rep the following spans belong to (0: none).
func (t *tracer) setRep(rep int) {
	if t != nil {
		t.rep = rep
	}
}

// end closes the span begin returned. Spans close innermost first.
func (t *tracer) end(id int) {
	if id == 0 {
		return
	}
	t.spans[id-1].EndNS = int64(since(procStart))
	t.open = t.open[:len(t.open)-1]
}

// durations returns the duration of every span with the given name, in
// seconds, in recording order.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	if t == nil {
		return out
	}
	for i := range t.spans {
		if t.spans[i].Name == name {
			out = append(out, seconds(t.spans[i].dur()))
		}
	}
	return out
}

// coverage is the share of the named spans' time that their direct children
// account for: 1 − self time ÷ total time. It says how much of a rep the
// traced calls explain.
func (t *tracer) coverage(name string) float64 {
	var total, children time.Duration
	isParent := make(map[int]bool)
	for i := range t.spans {
		if t.spans[i].Name == name {
			isParent[t.spans[i].ID] = true
			total += t.spans[i].dur()
		}
	}
	for i := range t.spans {
		if isParent[t.spans[i].Parent] {
			children += t.spans[i].dur()
		}
	}
	if total == 0 {
		return 0
	}
	return float64(children) / float64(total)
}

// overheadShare is the time the tracer itself took as a share of the reps:
// the spans recorded inside reps × the cost of one begin/end pair, timed here
// on a scratch tracer, ÷ the reps' wall time. Comparing a traced with an
// untraced run instead would put the ~10% run-to-run noise of this sandbox on
// a quantity four orders of magnitude below it.
func (t *tracer) overheadShare(repS []float64) float64 {
	scratch := &tracer{}
	perSpanNS := perCall(100_000, func(int) { scratch.end(scratch.begin("span")) })
	inReps, total := 0, 0.0
	for i := range t.spans {
		if t.spans[i].Rep != 0 {
			inReps++
		}
	}
	for _, s := range repS {
		total += s
	}
	return float64(inReps) * perSpanNS * 1e-9 / total
}

// write stores the spans as JSON lines under dir.
func (t *tracer) write(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("trace: %w", err)
	}
	path := filepath.Join(dir, workload+".trace.jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("trace: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return "", fmt.Errorf("trace: writing %s: %w", path, err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", fmt.Errorf("trace: writing %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("trace: closing %s: %w", path, err)
	}
	return path, nil
}
