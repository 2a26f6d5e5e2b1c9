// Package budget is the responsible-probing governance layer of the
// census pipeline (R3, §4.2.2). The paper's rate.Limiter/Pacer bound how
// fast LACeS probes; this package bounds how much and whom: a
// deterministic probe-budget ledger (per-day global, per-origin-AS and
// per-prefix caps), an opt-out registry honouring networks that asked not
// to be measured, and an adaptive rate controller that steps the
// effective probing rate down in powers of two when abuse complaints
// arrive — mirroring §5.5.2's result that census accuracy survives at
// 1/8th the normal rate.
//
// The determinism contract is internal/par's: par.Run makes admission
// decisions in a sequential pre-pass over each stage's target list (the
// same total order the sequential loop uses), so the set of admitted
// targets — and therefore the census document — is byte-identical at
// every Parallelism setting. The ledger's counters are atomic, so the
// parallel shards that later execute the admitted probes can charge
// actual-transmission accounting concurrently without a lock.
//
// All budget accounting is in probe units of demand: a target presented
// to the ledger demands its worst-case transmission count (sites for the
// anycast-based stage, VPs × attempts for GCD). Spent + Skipped ==
// Demanded holds exactly by construction, which is the reconciliation
// the published responsibility block is audited against.
package budget

import (
	"fmt"
	"strconv"
	"strings"
)

// Budget caps one census day's probing. Each cap is in probes per day;
// zero means unlimited, so the zero value disables governance entirely
// and a pipeline configured with it is byte-identical to one without a
// budget.
type Budget struct {
	// DailyProbes caps the total probes charged per census day.
	DailyProbes int64
	// PerASProbes caps the probes charged against any single origin AS
	// per census day — the per-network sensitivity knob.
	PerASProbes int64
	// PerPrefixProbes caps the probes charged against any single target
	// prefix per census day.
	PerPrefixProbes int64
}

// IsZero reports whether the budget is the zero value (unlimited).
func (b Budget) IsZero() bool {
	return b.DailyProbes == 0 && b.PerASProbes == 0 && b.PerPrefixProbes == 0
}

// String renders the budget in ParseBudget's syntax.
func (b Budget) String() string {
	if b.IsZero() {
		return "unlimited"
	}
	var parts []string
	if b.DailyProbes > 0 {
		parts = append(parts, "daily:"+strconv.FormatInt(b.DailyProbes, 10))
	}
	if b.PerASProbes > 0 {
		parts = append(parts, "as:"+strconv.FormatInt(b.PerASProbes, 10))
	}
	if b.PerPrefixProbes > 0 {
		parts = append(parts, "prefix:"+strconv.FormatInt(b.PerPrefixProbes, 10))
	}
	return strings.Join(parts, ",")
}

// ParseBudget parses a budget spec: either a bare probe count ("250000",
// the global daily cap) or comma-separated key:value pairs with keys
// daily, as and prefix ("daily:250000,as:5000,prefix:200"). An empty
// string is the zero (unlimited) budget.
func ParseBudget(s string) (Budget, error) {
	var b Budget
	s = strings.TrimSpace(s)
	if s == "" {
		return b, nil
	}
	if n, err := strconv.ParseInt(s, 10, 64); err == nil {
		if n < 0 {
			return b, fmt.Errorf("budget: negative cap %d", n)
		}
		b.DailyProbes = n
		return b, nil
	}
	for _, part := range strings.Split(s, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(part), ":")
		if !ok {
			return Budget{}, fmt.Errorf("budget: %q is neither a probe count nor key:value (daily, as, prefix)", part)
		}
		n, err := strconv.ParseInt(strings.TrimSpace(val), 10, 64)
		if err != nil || n < 0 {
			return Budget{}, fmt.Errorf("budget: bad cap %q for %q", val, key)
		}
		switch strings.TrimSpace(key) {
		case "daily":
			b.DailyProbes = n
		case "as":
			b.PerASProbes = n
		case "prefix":
			b.PerPrefixProbes = n
		default:
			return Budget{}, fmt.Errorf("budget: unknown cap %q (daily, as, prefix)", key)
		}
	}
	return b, nil
}

// Decision is the ledger's verdict on one target.
type Decision uint8

// Admission decisions.
const (
	// Admitted: the target may be probed; its demand was charged.
	Admitted Decision = iota
	// DeniedBudget: probing the target would exceed a configured cap.
	DeniedBudget
	// DeniedOptOut: the target's prefix or origin AS is in the opt-out
	// registry. Opt-out denials are never charged against the budget.
	DeniedOptOut
)

// String names the decision.
func (d Decision) String() string {
	switch d {
	case Admitted:
		return "admitted"
	case DeniedBudget:
		return "denied-budget"
	case DeniedOptOut:
		return "denied-optout"
	default:
		return fmt.Sprintf("Decision(%d)", uint8(d))
	}
}

// Usage is one measurement stage's governance accounting, in budget
// units of demand. The identity Spent + Skipped == Demanded holds by
// construction (Record maintains it), which is what the published
// responsibility block reconciles against.
type Usage struct {
	// Demanded is the total probe demand presented to the ledger.
	Demanded int64 `json:"demanded"`
	// Spent is the demand charged for admitted targets.
	Spent int64 `json:"spent"`
	// Skipped is the demand denied — by a cap or by the opt-out
	// registry. Always Demanded - Spent.
	Skipped int64 `json:"skipped"`
	// OptOutProbes is the slice of Skipped attributable to opt-outs.
	OptOutProbes int64 `json:"optout_probes,omitempty"`
	// OptOutTargets counts probing decisions suppressed by the opt-out
	// registry. A decision is one (target, stage-run) presentation: a
	// target probed by three protocol runs counts three times, mirroring
	// the three measurements that were not sent.
	OptOutTargets int `json:"optout_targets,omitempty"`
	// BudgetTargets counts probing decisions suppressed by a budget cap
	// (same per-stage-run granularity as OptOutTargets).
	BudgetTargets int `json:"budget_targets,omitempty"`
}

// Record folds one admission decision for a target demanding `probes`
// units into the usage.
func (u *Usage) Record(d Decision, probes int64) {
	u.Demanded += probes
	switch d {
	case Admitted:
		u.Spent += probes
	case DeniedBudget:
		u.Skipped += probes
		u.BudgetTargets++
	case DeniedOptOut:
		u.Skipped += probes
		u.OptOutProbes += probes
		u.OptOutTargets++
	}
}

// Add accumulates another stage's usage.
func (u *Usage) Add(v Usage) {
	u.Demanded += v.Demanded
	u.Spent += v.Spent
	u.Skipped += v.Skipped
	u.OptOutProbes += v.OptOutProbes
	u.OptOutTargets += v.OptOutTargets
	u.BudgetTargets += v.BudgetTargets
}

// Reconciles reports whether the accounting identity holds.
func (u Usage) Reconciles() bool { return u.Spent+u.Skipped == u.Demanded }
