package budget

import (
	"net/netip"
	"strings"
	"sync"
	"testing"

	"github.com/laces-project/laces/internal/netsim"
)

func mkTarget(id int, prefix string, origin netsim.ASN) *netsim.Target {
	p := netip.MustParsePrefix(prefix)
	return &netsim.Target{ID: id, Prefix: p, Addr: p.Addr(), Origin: origin}
}

func TestParseBudget(t *testing.T) {
	cases := []struct {
		in      string
		want    Budget
		wantErr bool
	}{
		{"", Budget{}, false},
		{"250000", Budget{DailyProbes: 250000}, false},
		{"daily:100,as:10,prefix:2", Budget{DailyProbes: 100, PerASProbes: 10, PerPrefixProbes: 2}, false},
		{"as:10", Budget{PerASProbes: 10}, false},
		{" prefix:7 ", Budget{PerPrefixProbes: 7}, false},
		{"-5", Budget{}, true},
		{"daily:x", Budget{}, true},
		{"weekly:5", Budget{}, true},
		{"nonsense", Budget{}, true},
	}
	for _, c := range cases {
		got, err := ParseBudget(c.in)
		if (err != nil) != c.wantErr {
			t.Errorf("ParseBudget(%q): err = %v, wantErr = %v", c.in, err, c.wantErr)
			continue
		}
		if err == nil && got != c.want {
			t.Errorf("ParseBudget(%q) = %+v, want %+v", c.in, got, c.want)
		}
	}
	if !(Budget{}).IsZero() || (Budget{DailyProbes: 1}).IsZero() {
		t.Fatal("IsZero wrong")
	}
	if s := (Budget{DailyProbes: 5, PerASProbes: 2}).String(); s != "daily:5,as:2" {
		t.Fatalf("String() = %q", s)
	}
}

func TestLedgerCaps(t *testing.T) {
	l := NewLedger(Budget{DailyProbes: 100, PerASProbes: 60, PerPrefixProbes: 30}, nil)
	g := l.Gate(0)
	a1 := mkTarget(1, "10.0.0.0/24", 65001)
	a2 := mkTarget(2, "10.0.1.0/24", 65001)
	b1 := mkTarget(3, "10.1.0.0/24", 65002)

	if d := g.Admit(a1, 30); d != Admitted {
		t.Fatalf("a1 first 30: %v", d)
	}
	// Per-prefix cap: a second charge against the same prefix busts 30.
	if d := g.Admit(a1, 1); d != DeniedBudget {
		t.Fatalf("a1 over prefix cap: %v", d)
	}
	// Per-AS cap: 30 already charged to AS65001; 31 more busts 60.
	if d := g.Admit(a2, 31); d != DeniedBudget {
		t.Fatalf("a2 over AS cap: %v", d)
	}
	if d := g.Admit(a2, 30); d != Admitted {
		t.Fatalf("a2 at AS cap: %v", d)
	}
	// Global cap: 60 spent; 41 more busts 100.
	if d := g.Admit(b1, 41); d != DeniedBudget {
		t.Fatalf("b1 over daily cap: %v", d)
	}
	if d := g.Admit(b1, 30); d != Admitted {
		t.Fatalf("b1 within all caps: %v", d)
	}
	if got := l.day(0).spent.Load(); got != 90 {
		t.Fatalf("spent = %d, want 90", got)
	}
	if got := l.Remaining(0); got != 10 {
		t.Fatalf("remaining = %d, want 10", got)
	}
	// A new day starts fresh.
	if d := l.Gate(1).Admit(a1, 30); d != Admitted {
		t.Fatalf("day 1 a1: %v", d)
	}
	if got := l.day(0).spent.Load(); got != 90 {
		t.Fatalf("day 0 spent changed to %d", got)
	}
}

func TestLedgerZeroValueAdmitsEverything(t *testing.T) {
	l := NewLedger(Budget{}, nil)
	g := l.Gate(0)
	tg := mkTarget(1, "10.0.0.0/24", 65001)
	for i := 0; i < 1000; i++ {
		if d := g.Admit(tg, 1_000_000); d != Admitted {
			t.Fatalf("zero budget denied at %d: %v", i, d)
		}
	}
	var nilGate *Gate
	if d := nilGate.Admit(tg, 1); d != Admitted {
		t.Fatalf("nil gate: %v", d)
	}
	var nilLedger *Ledger
	if nilLedger.Gate(0) != nil {
		t.Fatal("nil ledger must yield nil gate")
	}
	if nilLedger.Remaining(3) != -1 {
		t.Fatal("nil ledger accounting")
	}
}

func TestRegistryLoadAndMatch(t *testing.T) {
	const file = `
# opted-out networks
1.2.3.0/24
prefix 10.9.0.0/24   # keyword form
AS64500
as 64501
`
	r, err := LoadRegistry(strings.NewReader(file))
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 4 {
		t.Fatalf("Len = %d, want 4", r.Len())
	}
	want := []string{"1.2.3.0/24", "10.9.0.0/24", "AS64500", "AS64501"}
	got := r.Entries()
	if len(got) != len(want) {
		t.Fatalf("Entries = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Entries[%d] = %q, want %q", i, got[i], want[i])
		}
	}
	if e, ok := r.Match(netip.MustParsePrefix("1.2.3.0/24"), 1); !ok || e != "1.2.3.0/24" {
		t.Fatalf("prefix match: %q %v", e, ok)
	}
	if e, ok := r.Match(netip.MustParsePrefix("5.5.5.0/24"), 64500); !ok || e != "AS64500" {
		t.Fatalf("AS match: %q %v", e, ok)
	}
	if _, ok := r.Match(netip.MustParsePrefix("5.5.5.0/24"), 1); ok {
		t.Fatal("unexpected match")
	}
	if e, ok := r.MatchAddr(netip.MustParseAddr("1.2.3.77")); !ok || e != "1.2.3.0/24" {
		t.Fatalf("addr match: %q %v", e, ok)
	}
	if _, ok := r.MatchAddr(netip.MustParseAddr("9.9.9.9")); ok {
		t.Fatal("unexpected addr match")
	}

	for _, bad := range []string{"banana", "prefix", "a b c", "frob 1.2.3.0/24"} {
		if _, err := LoadRegistry(strings.NewReader(bad)); err == nil {
			t.Errorf("LoadRegistry(%q) did not fail", bad)
		}
	}
}

func TestLedgerOptOutAuditTrail(t *testing.T) {
	r := NewRegistry()
	r.AddPrefix(netip.MustParsePrefix("1.2.3.0/24"))
	r.AddAS(64500)
	l := NewLedger(Budget{DailyProbes: 1000}, r)
	g := l.Gate(0)

	opted := mkTarget(1, "1.2.3.0/24", 65001)
	asOpted := mkTarget(2, "7.7.7.0/24", 64500)
	clean := mkTarget(3, "8.8.8.0/24", 65001)

	if d := g.Admit(opted, 16); d != DeniedOptOut {
		t.Fatalf("opted prefix: %v", d)
	}
	if d := g.Admit(opted, 16); d != DeniedOptOut {
		t.Fatalf("opted prefix again: %v", d)
	}
	if d := g.Admit(asOpted, 16); d != DeniedOptOut {
		t.Fatalf("opted AS: %v", d)
	}
	if d := g.Admit(clean, 16); d != Admitted {
		t.Fatalf("clean target: %v", d)
	}
	// Opt-out denials are never charged to the budget.
	if got := l.day(0).spent.Load(); got != 16 {
		t.Fatalf("spent = %d, want 16", got)
	}
	touched := r.Touched()
	if len(touched) != 2 {
		t.Fatalf("Touched = %+v", touched)
	}
	if touched[0].Entry != "1.2.3.0/24" || touched[0].Targets != 2 || touched[0].Probes != 32 {
		t.Fatalf("prefix touch = %+v", touched[0])
	}
	if touched[1].Entry != "AS64500" || touched[1].Targets != 1 || touched[1].Probes != 16 {
		t.Fatalf("AS touch = %+v", touched[1])
	}
}

func TestUsageRecordReconciles(t *testing.T) {
	var u Usage
	u.Record(Admitted, 10)
	u.Record(DeniedBudget, 5)
	u.Record(DeniedOptOut, 3)
	if !u.Reconciles() {
		t.Fatalf("usage does not reconcile: %+v", u)
	}
	if u.Demanded != 18 || u.Spent != 10 || u.Skipped != 8 ||
		u.OptOutProbes != 3 || u.OptOutTargets != 1 || u.BudgetTargets != 1 {
		t.Fatalf("usage = %+v", u)
	}
	var sum Usage
	sum.Add(u)
	sum.Add(u)
	if sum.Demanded != 36 || !sum.Reconciles() {
		t.Fatalf("sum = %+v", sum)
	}
}

func TestStepRate(t *testing.T) {
	cases := []struct {
		complaints int
		want       float64
		wantSteps  int
	}{
		{0, 8000, 0},
		{1, 4000, 1},
		{2, 2000, 2},
		{3, 1000, 3},
		{4, 1000, 3}, // one past the cap
		{9, 1000, 3}, // floored at 1/8th
		{-2, 8000, 0},
	}
	for _, c := range cases {
		got, steps := StepRate(8000, c.complaints)
		if got != c.want || steps != c.wantSteps {
			t.Errorf("StepRate(8000, %d) = %v/%d, want %v/%d",
				c.complaints, got, steps, c.want, c.wantSteps)
		}
	}
}

// TestLedgerConcurrentAccounting hammers Admit from goroutines on two
// days; run under -race this pins that concurrent gates charge safely.
func TestLedgerConcurrentAccounting(t *testing.T) {
	r := NewRegistry()
	r.AddAS(64500)
	l := NewLedger(Budget{DailyProbes: 1 << 40}, r)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			g := l.Gate(w % 2)
			tg := mkTarget(w, "10.0.0.0/24", netsim.ASN(65000+w%3))
			opted := mkTarget(100+w, "11.0.0.0/24", 64500)
			for i := 0; i < 500; i++ {
				g.Admit(tg, 2)
				g.Admit(opted, 1)
			}
		}(w)
	}
	wg.Wait()
	if got := l.day(0).spent.Load() + l.day(1).spent.Load(); got != 8*500*2 {
		t.Fatalf("spent = %d, want %d", got, 8*500*2)
	}
	var targets int64
	for _, tc := range r.Touched() {
		targets += tc.Targets
	}
	if targets != 8*500 {
		t.Fatalf("audit targets = %d, want %d", targets, 8*500)
	}
}
