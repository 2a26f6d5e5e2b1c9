package core

import (
	"fmt"

	"github.com/laces-project/laces/internal/packet"
)

// Alert is a monitoring finding. The paper added alerting after a tooling
// bug silently dropped all DNS results for three months (§7): "we added an
// alerting system that triggers when canary checks fail or results
// substantially deviate from the baseline".
type Alert struct {
	Kind    AlertKind
	Message string
}

// AlertKind classifies monitoring alerts.
type AlertKind uint8

// Alert kinds.
const (
	// AlertNoResults fires when a probed protocol yields zero results —
	// the canary check that would have caught the 2024 DNS bug.
	AlertNoResults AlertKind = iota
	// AlertFewWorkers fires when deployment sites are missing.
	AlertFewWorkers
	// AlertBaselineDeviation fires when today's 𝒢 count deviates more
	// than 20% from the trailing baseline.
	AlertBaselineDeviation
)

// String names the alert kind.
func (k AlertKind) String() string {
	switch k {
	case AlertNoResults:
		return "no-results"
	case AlertFewWorkers:
		return "few-workers"
	case AlertBaselineDeviation:
		return "baseline-deviation"
	default:
		return fmt.Sprintf("AlertKind(%d)", uint8(k))
	}
}

// baselineWindow is the number of trailing days in the deviation baseline.
const baselineWindow = 14

// monitor evaluates canary checks against the finished census and updates
// the trailing baseline.
func (p *Pipeline) monitor(c *DailyCensus) []Alert {
	var alerts []Alert

	// Canary: protocols that were probed but produced zero candidates
	// and zero observations.
	for _, proto := range packet.Protocols() {
		hist, probed := c.ReceiverHist[proto]
		if probed && len(hist) == 0 {
			alerts = append(alerts, Alert{
				Kind:    AlertNoResults,
				Message: fmt.Sprintf("no %v results collected on day %d", proto, c.DayIndex),
			})
		}
	}

	// Worker participation.
	if c.Workers < p.Cfg.Deployment.NumSites() {
		alerts = append(alerts, Alert{
			Kind: AlertFewWorkers,
			Message: fmt.Sprintf("only %d of %d workers participated",
				c.Workers, p.Cfg.Deployment.NumSites()),
		})
	}

	// Baseline deviation of the 𝒢 count.
	fam := famIdx(c.V6)
	gCount := c.CountG()
	if n := len(p.baseline[fam]); n >= 3 {
		sum := 0
		for _, v := range p.baseline[fam] {
			sum += v
		}
		mean := float64(sum) / float64(n)
		if mean > 0 {
			dev := float64(gCount)/mean - 1
			if dev > 0.2 || dev < -0.2 {
				alerts = append(alerts, Alert{
					Kind: AlertBaselineDeviation,
					Message: fmt.Sprintf("GCD-confirmed count %d deviates %+.0f%% from baseline %.0f",
						gCount, dev*100, mean),
				})
			}
		}
	}
	p.baseline[fam] = append(p.baseline[fam], gCount)
	if len(p.baseline[fam]) > baselineWindow {
		p.baseline[fam] = p.baseline[fam][len(p.baseline[fam])-baselineWindow:]
	}
	return alerts
}

// HasAlert reports whether the census carries an alert of the given kind.
func (c *DailyCensus) HasAlert(kind AlertKind) bool {
	for _, a := range c.Alerts {
		if a.Kind == kind {
			return true
		}
	}
	return false
}
