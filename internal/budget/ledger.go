package budget

import (
	"net/netip"
	"sync"
	"sync/atomic"

	"github.com/laces-project/laces/internal/netsim"
)

// Ledger is the probe-budget accountant: per-census-day state holding
// the global, per-AS and per-prefix charge counters, plus the opt-out
// registry consulted before any cap.
//
// Admission (Gate.Admit) is check-and-charge under a per-day mutex and
// MUST be called in a deterministic target order — par.Run, the loop
// every measurement stage runs on, guarantees this with a sequential
// pre-pass over the stage's target list before sharding the probing
// itself. Observation counters
// (Gate.Observe) are atomic and may be charged concurrently from
// parallel shards.
type Ledger struct {
	budget Budget
	reg    *Registry

	// Lifetime decision telemetry across all days, atomically updated
	// at each admission verdict. Read via Decisions; never consulted by
	// admission logic, so counting cannot change what is admitted.
	admitted     atomic.Int64
	deniedBudget atomic.Int64
	deniedOptOut atomic.Int64

	mu   sync.Mutex
	days map[int]*dayState
}

// Decisions returns the ledger's lifetime admission telemetry: how many
// presentations were admitted, denied by a cap and denied by the
// opt-out registry. Zero for a nil ledger.
func (l *Ledger) Decisions() (admitted, deniedBudget, deniedOptOut int64) {
	if l == nil {
		return 0, 0, 0
	}
	return l.admitted.Load(), l.deniedBudget.Load(), l.deniedOptOut.Load()
}

// count records one decision into the lifetime telemetry.
func (l *Ledger) count(d Decision) Decision {
	switch d {
	case Admitted:
		l.admitted.Add(1)
	case DeniedBudget:
		l.deniedBudget.Add(1)
	case DeniedOptOut:
		l.deniedOptOut.Add(1)
	}
	return d
}

// dayState is one census day's charge counters.
type dayState struct {
	mu        sync.Mutex
	spent     atomic.Int64 // budget units charged (admitted demand)
	observed  atomic.Int64 // probes actually transmitted (shard-charged)
	perAS     map[netsim.ASN]int64
	perPrefix map[netip.Prefix]int64
}

// NewLedger builds a ledger over a budget and an optional opt-out
// registry (nil means no opt-outs).
func NewLedger(b Budget, reg *Registry) *Ledger {
	return &Ledger{budget: b, reg: reg, days: make(map[int]*dayState)}
}

// Budget returns the configured caps.
func (l *Ledger) Budget() Budget { return l.budget }

// Registry returns the attached opt-out registry (nil when none).
func (l *Ledger) Registry() *Registry {
	if l == nil {
		return nil
	}
	return l.reg
}

// day returns (creating if needed) the state for a census day.
func (l *Ledger) day(d int) *dayState {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := l.days[d]
	if st == nil {
		st = &dayState{
			perAS:     make(map[netsim.ASN]int64),
			perPrefix: make(map[netip.Prefix]int64),
		}
		l.days[d] = st
	}
	return st
}

// Spent returns the budget units charged on a census day.
func (l *Ledger) Spent(day int) int64 {
	if l == nil {
		return 0
	}
	return l.day(day).spent.Load()
}

// Observed returns the probes parallel shards reported actually
// transmitting on a census day.
func (l *Ledger) Observed(day int) int64 {
	if l == nil {
		return 0
	}
	return l.day(day).observed.Load()
}

// Remaining returns the unspent global daily budget, or -1 when the
// daily cap is unlimited.
func (l *Ledger) Remaining(day int) int64 {
	if l == nil || l.budget.DailyProbes == 0 {
		return -1
	}
	rem := l.budget.DailyProbes - l.day(day).spent.Load()
	if rem < 0 {
		rem = 0
	}
	return rem
}

// Gate binds the ledger to one census day — the handle a measurement
// stage consults. A nil ledger yields a nil gate, which admits
// everything at zero cost (the ungoverned fast path).
func (l *Ledger) Gate(day int) *Gate {
	if l == nil {
		return nil
	}
	return &Gate{led: l, st: l.day(day)}
}

// Gate is a ledger bound to a census day.
type Gate struct {
	led *Ledger
	st  *dayState
}

// Admit decides whether one target may be probed, charging its demand of
// `probes` budget units on admission. The opt-out registry is consulted
// first (opt-out denials are never charged); then every configured cap
// must have room, or the target is denied without partial charging.
// Calls must be made in deterministic target order — see the package
// comment's determinism contract.
func (g *Gate) Admit(tg *netsim.Target, probes int64) Decision {
	if g == nil {
		return Admitted
	}
	return g.led.count(g.admit(tg, probes))
}

// admit is Admit without the decision telemetry.
func (g *Gate) admit(tg *netsim.Target, probes int64) Decision {
	if entry, ok := g.led.reg.Match(tg.Prefix, tg.Origin); ok {
		g.led.reg.touch(entry, probes)
		return DeniedOptOut
	}
	b := g.led.budget
	if b.IsZero() {
		return Admitted
	}
	st := g.st
	st.mu.Lock()
	defer st.mu.Unlock()
	if b.DailyProbes > 0 && st.spent.Load()+probes > b.DailyProbes {
		return DeniedBudget
	}
	if b.PerASProbes > 0 && st.perAS[tg.Origin]+probes > b.PerASProbes {
		return DeniedBudget
	}
	if b.PerPrefixProbes > 0 && st.perPrefix[tg.Prefix]+probes > b.PerPrefixProbes {
		return DeniedBudget
	}
	st.spent.Add(probes)
	if b.PerASProbes > 0 {
		st.perAS[tg.Origin] += probes
	}
	if b.PerPrefixProbes > 0 {
		st.perPrefix[tg.Prefix] += probes
	}
	return Admitted
}

// AdmitAddr is the address-only admission the orchestrator's streaming
// path uses: targets there are bare addresses with no origin AS, so only
// the opt-out prefixes and the global daily cap apply.
func (g *Gate) AdmitAddr(addr netip.Addr, probes int64) Decision {
	if g == nil {
		return Admitted
	}
	return g.led.count(g.admitAddr(addr, probes))
}

// admitAddr is AdmitAddr without the decision telemetry.
func (g *Gate) admitAddr(addr netip.Addr, probes int64) Decision {
	if entry, ok := g.led.reg.MatchAddr(addr); ok {
		g.led.reg.touch(entry, probes)
		return DeniedOptOut
	}
	b := g.led.budget
	if b.DailyProbes == 0 {
		return Admitted
	}
	st := g.st
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.spent.Load()+probes > b.DailyProbes {
		return DeniedBudget
	}
	st.spent.Add(probes)
	return Admitted
}

// Observe charges actually-transmitted probes to the day's observation
// counter. Atomic: parallel shards call it concurrently.
func (g *Gate) Observe(probes int64) {
	if g == nil || probes == 0 {
		return
	}
	g.st.observed.Add(probes)
}
