package core

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/laces-project/laces/internal/budget"
)

// DocumentEntry is the JSON schema of one census row, mirroring the
// fields the public repository publishes (§4.4): both methodologies'
// verdicts independently (R1: "convey confidence in results through
// independently listing the classification for the anycast-based and GCD
// approach"), site counts, geolocations and participating VPs.
type DocumentEntry struct {
	Prefix         string   `json:"prefix"`
	OriginASN      uint32   `json:"origin_asn"`
	ACProtocols    []string `json:"anycast_based_protocols,omitempty"`
	MaxReceivers   int      `json:"anycast_based_vps,omitempty"`
	FromFeedback   bool     `json:"from_feedback,omitempty"`
	GCDMeasured    bool     `json:"gcd_measured"`
	GCDAnycast     bool     `json:"gcd_anycast"`
	GCDSites       int      `json:"gcd_sites,omitempty"`
	GCDCities      []string `json:"gcd_cities,omitempty"`
	GCDVPs         int      `json:"gcd_vps,omitempty"`
	PartialAnycast bool     `json:"partial_anycast,omitempty"` // reserved for the §5.7 /32 sweep; no census path sets it yet
	GlobalBGP      bool     `json:"global_bgp,omitempty"`
}

// InG reports membership in 𝒢 as published.
func (e *DocumentEntry) InG() bool { return e.GCDAnycast }

// InM reports membership in ℳ as published.
func (e *DocumentEntry) InM() bool { return len(e.ACProtocols) > 0 && !e.GCDAnycast }

// Responsibility is the published R3 governance block: what the
// probe-budget ledger, the opt-out registry and the adaptive rate
// controller did to the census day. All probe figures are in budget
// units of demand (worst-case transmissions presented to the ledger);
// the identity ProbesSpent + ProbesSkipped == ProbesDemanded holds
// exactly — it is the reconciliation audits check. The traceroute
// screening stage is operator-triggered and outside the ledger.
type Responsibility struct {
	// The configured caps (zero = unlimited).
	BudgetDailyProbes     int64 `json:"budget_daily_probes,omitempty"`
	BudgetPerASProbes     int64 `json:"budget_per_as_probes,omitempty"`
	BudgetPerPrefixProbes int64 `json:"budget_per_prefix_probes,omitempty"`

	// Totals across the governed stages.
	ProbesDemanded int64 `json:"probes_demanded"`
	ProbesSpent    int64 `json:"probes_spent"`
	ProbesSkipped  int64 `json:"probes_skipped"`
	OptOutProbes   int64 `json:"optout_probes,omitempty"`
	OptOutTargets  int   `json:"optout_targets,omitempty"`
	BudgetTargets  int   `json:"budget_targets,omitempty"`

	// BudgetRemaining is the unspent global daily budget after the run,
	// or -1 when the daily cap is unlimited.
	BudgetRemaining int64 `json:"budget_remaining"`

	// Adaptive rate feedback: halvings taken in response to abuse
	// complaints and the resulting effective rate (targets/s).
	RateSteps     int     `json:"rate_steps,omitempty"`
	RateEffective float64 `json:"rate_effective,omitempty"`

	// Per-stage accounting (each reconciles independently). Chaos is
	// the zero block: no census stage sends CHAOS queries, and the field
	// keeps governed documents' schema and bytes.
	Anycast budget.Usage `json:"anycast_stage"`
	GCD     budget.Usage `json:"gcd_stage"`
	Chaos   budget.Usage `json:"chaos_stage"`
}

// Total sums the per-stage usages (the block's headline figures).
func (r *Responsibility) Total() budget.Usage {
	var u budget.Usage
	u.Add(r.Anycast)
	u.Add(r.GCD)
	u.Add(r.Chaos)
	return u
}

// Document is the JSON schema of one daily census file — the unit the
// public repository carries and downstream consumers (the dashboard, the
// diff tool) operate on. Entries must stay the last field: the streaming
// writer (DocumentWriter) depends on every scalar preceding the entry
// array, and the archive's scanner (ScanDocument) declines any other
// order.
type Document struct {
	Date        string `json:"date"`
	Family      string `json:"family"`
	HitlistSize int    `json:"hitlist_size"`
	Workers     int    `json:"workers"`
	GCount      int    `json:"gcd_confirmed"`
	MCount      int    `json:"anycast_based_only"`

	// R3 cost accounting, published so responsible-use budgets are
	// visible in the artifact itself, not just in the runner's memory
	// (§4.2.2: LACeS bounds its daily probing cost by design).
	ProbesAnycastStage    int64 `json:"probes_anycast_stage"`
	ProbesGCDStage        int64 `json:"probes_gcd_stage"`
	ProbesTracerouteStage int64 `json:"probes_traceroute_stage"`

	// Responsibility is the governance block — nil (omitted) when the
	// census ran without a budget, opt-out registry or rate feedback, so
	// ungoverned documents stay byte-identical to earlier releases.
	Responsibility *Responsibility `json:"responsibility,omitempty"`

	Entries []DocumentEntry `json:"entries"`
}

// ProbesTotal sums the published per-stage probing cost.
func (d *Document) ProbesTotal() int64 {
	return d.ProbesAnycastStage + d.ProbesGCDStage + d.ProbesTracerouteStage
}

func protoNames(flags [3]bool) []string {
	var out []string
	for p, set := range flags {
		if set {
			switch p {
			case 0:
				out = append(out, "ICMP")
			case 1:
				out = append(out, "TCP")
			case 2:
				out = append(out, "DNS")
			}
		}
	}
	return out
}

// sortedEntries returns entries in canonical census order, numerically
// by prefix (ComparePrefix), which is target ID order: the simulated
// world allocates one prefix length per family in strictly ascending
// address order by ID (pinned by netsim's TestTargetIDOrderIsPrefixOrder),
// so an integer sort gives the same bytes without parsing a prefix.
func (c *DailyCensus) sortedEntries() []*Entry {
	out := make([]*Entry, 0, len(c.Entries))
	for _, e := range c.Entries {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].TargetID < out[j].TargetID })
	return out
}

// Document builds the published form of the census: only anycast findings
// are included (§4.4).
func (c *DailyCensus) Document() *Document {
	fam := "ipv4"
	if c.V6 {
		fam = "ipv6"
	}
	doc := &Document{
		Date:        c.Day.Format(time.DateOnly),
		Family:      fam,
		HitlistSize: c.HitlistSize,
		Workers:     c.Workers,
		GCount:      c.CountG(),
		MCount:      c.CountM(),

		ProbesAnycastStage:    c.ProbesAnycastStage,
		ProbesGCDStage:        c.ProbesGCDStage,
		ProbesTracerouteStage: c.ProbesTracerouteStage,
	}
	if c.Responsibility != nil {
		r := *c.Responsibility
		doc.Responsibility = &r
	}
	for _, e := range c.sortedEntries() {
		if !e.IsCandidate() && !e.GCDAnycast {
			continue // only anycast findings are published (§4.4)
		}
		doc.Entries = append(doc.Entries, DocumentEntry{
			Prefix:       e.Prefix.String(),
			OriginASN:    uint32(e.Origin),
			ACProtocols:  protoNames(e.ACProtocols),
			MaxReceivers: e.MaxReceivers,
			FromFeedback: e.FromFeedback,
			GCDMeasured:  e.GCDMeasured,
			GCDAnycast:   e.GCDAnycast,
			GCDSites:     e.GCDSites,
			GCDCities:    e.GCDCities,
			GCDVPs:       e.GCDVPs,
			GlobalBGP:    e.GlobalBGP,
		})
	}
	return doc
}

// WriteJSON publishes the census as the JSON document the public
// repository would carry (the canonical bytes of Document.WriteJSON).
func (c *DailyCensus) WriteJSON(w io.Writer) error {
	return c.Document().WriteJSON(w)
}

// WriteCSV publishes the census as CSV, one row per entry of Document().
func (c *DailyCensus) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := []string{"prefix", "origin_asn", "ac_protocols", "ac_vps",
		"from_feedback", "gcd_measured", "gcd_anycast", "gcd_sites", "gcd_cities", "gcd_vps", "partial", "global_bgp"}
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, e := range c.Document().Entries {
		rec := []string{
			e.Prefix,
			strconv.FormatUint(uint64(e.OriginASN), 10),
			strings.Join(e.ACProtocols, "+"),
			strconv.Itoa(e.MaxReceivers),
			strconv.FormatBool(e.FromFeedback),
			strconv.FormatBool(e.GCDMeasured),
			strconv.FormatBool(e.GCDAnycast),
			strconv.Itoa(e.GCDSites),
			strings.Join(e.GCDCities, "+"),
			strconv.Itoa(e.GCDVPs),
			strconv.FormatBool(e.PartialAnycast),
			strconv.FormatBool(e.GlobalBGP),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ParseDocument reads a census document previously written with WriteJSON.
func ParseDocument(r io.Reader) (*Document, error) {
	var doc Document
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return nil, fmt.Errorf("core: parsing census JSON: %w", err)
	}
	return &doc, nil
}
