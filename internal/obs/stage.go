package obs

// Shared instrumentation for the census pipeline's measurement stages
// (manycast, gcdmeas, chaosdns). par.Run — the one loop they all run on —
// resolves the same four metric families, labelled by stage name, plus
// the progress counter and a pipeline span through one Stage call, so the
// exposition stays uniform and a new stage cannot invent divergent series
// names. Hot-loop counts accumulate in par.Shard's plain fields and reach
// these handles once, after the shards join.

// StageInstruments bundles the handles one census stage run uses. All
// fields are nil (no-op) when resolved from a nil registry, so stages
// instrument unconditionally at the cost of one branch per update.
type StageInstruments struct {
	Probes  *Counter    // laces_stage_probes_total{stage=...}
	Replies *Counter    // laces_stage_replies_total{stage=...}
	Denied  *Counter    // laces_stage_denied_total{stage=...}
	Seconds *Histogram  // laces_stage_seconds{stage=...}
	Done    *Counter    // the shared live-progress counter
	Span    *ActiveSpan // the stage span; shard spans are its children
}

// Stage begins one stage run over total targets: it resolves the stage's
// metric handles, opens its span — a child of the span the handle was
// derived Under, or the root of a fresh trace on a plain registry — and
// resets the live-progress state. Close the run with End.
func (r *Registry) Stage(stage string, total int) StageInstruments {
	if r == nil {
		return StageInstruments{} // all-nil instruments: every method is a one-branch no-op
	}
	span := r.parent.Child(stage)
	if span == nil {
		span = r.StartTrace(stage)
	}
	si := StageInstruments{
		Probes: r.Counter("laces_stage_probes_total",
			"Probes transmitted per census stage.", L("stage", stage)),
		Replies: r.Counter("laces_stage_replies_total",
			"Replies received per census stage.", L("stage", stage)),
		Denied: r.Counter("laces_stage_denied_total",
			"Targets denied by the responsible-probing gate per census stage.", L("stage", stage)),
		Seconds: r.Histogram("laces_stage_seconds",
			"Wall-clock seconds per census stage run.", nil, L("stage", stage)),
		Done: r.ProgressDone(),
		Span: span,
	}
	r.BeginStage(stage, int64(total))
	return si
}

// End closes the stage run: the span is recorded and its duration
// observed into the stage-seconds histogram.
func (si StageInstruments) End() {
	si.Seconds.Observe(si.Span.End().Seconds())
}
