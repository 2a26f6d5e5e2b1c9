package core

import (
	"testing"

	"github.com/laces-project/laces/internal/chaos"
	"github.com/laces-project/laces/internal/netsim"
	"github.com/laces-project/laces/internal/packet"
	"github.com/laces-project/laces/internal/platform"
)

// monitorPipeline builds a fresh pipeline against a fresh test world so
// chaos installs cannot leak across tests.
func monitorPipeline(t *testing.T) (*netsim.World, *Pipeline) {
	t.Helper()
	w, err := netsim.New(netsim.TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	dep, err := platform.Tangled(w, netsim.PolicyUnmodified)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPipeline(w, Config{
		Deployment: dep,
		GCDVPs: func(day int, v6 bool) ([]netsim.VP, error) {
			return platform.Ark(w, day, v6)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return w, p
}

// TestMonitorSiteOutageAlerts drives the few-workers canary through a
// windowed chaos site outage: the alert must raise inside the window and
// clear once the sites return.
func TestMonitorSiteOutageAlerts(t *testing.T) {
	_, pipe := monitorPipeline(t)
	sc := chaos.Scenario{Name: "outage-window", Impairments: []chaos.Impairment{
		{Kind: chaos.SiteOutage, Scope: chaos.Scope{Days: chaos.Days(10, 11), Workers: []int{0, 5, 9}}},
	}}
	during, err := pipe.RunDaily(10, false, DayOptions{Chaos: &sc})
	if err != nil {
		t.Fatal(err)
	}
	if !hasAlert(during, AlertFewWorkers) {
		t.Fatal("site outage did not raise the few-workers alert")
	}
	if during.Workers != pipe.Cfg.Deployment.NumSites()-3 {
		t.Fatalf("outage census reports %d workers, want %d",
			during.Workers, pipe.Cfg.Deployment.NumSites()-3)
	}
	after, err := pipe.RunDaily(12, false, DayOptions{Chaos: &sc})
	if err != nil {
		t.Fatal(err)
	}
	if hasAlert(after, AlertFewWorkers) {
		t.Fatal("few-workers alert did not clear after the outage window")
	}
	if after.Workers != pipe.Cfg.Deployment.NumSites() {
		t.Fatal("workers did not return after the outage window")
	}
}

// TestMonitorThrottleRaisesNoWorkerAlert: reply throttling degrades
// results but all sites participate — the worker canary must stay quiet.
func TestMonitorThrottleRaisesNoWorkerAlert(t *testing.T) {
	_, pipe := monitorPipeline(t)
	sc, ok := chaos.Lookup(chaos.ScenarioReplyThrottle)
	if !ok {
		t.Fatal("reply-throttle scenario missing")
	}
	c, err := pipe.RunDaily(10, false, DayOptions{Chaos: &sc})
	if err != nil {
		t.Fatal(err)
	}
	if hasAlert(c, AlertFewWorkers) {
		t.Fatal("throttling raised a worker alert")
	}
	if c.Workers != pipe.Cfg.Deployment.NumSites() {
		t.Fatal("throttling changed the participating worker count")
	}
}

// TestMonitorDNSBlackholeCanary: a protocol-wide blackhole trips the
// no-results canary that the 2024 DNS tooling bug motivated.
func TestMonitorDNSBlackholeCanary(t *testing.T) {
	_, pipe := monitorPipeline(t)
	sc := chaos.Scenario{Name: "dns-dark", Impairments: []chaos.Impairment{
		{Kind: chaos.Blackhole, Scope: chaos.Scope{Protocols: []packet.Protocol{packet.DNS}}},
	}}
	c, err := pipe.RunDaily(10, false, DayOptions{Chaos: &sc})
	if err != nil {
		t.Fatal(err)
	}
	if !hasAlert(c, AlertNoResults) {
		t.Fatal("DNS blackhole did not trip the no-results canary")
	}
}

// hasAlert reports whether the census carries an alert of the given kind.
func hasAlert(c *DailyCensus, kind AlertKind) bool {
	for _, a := range c.Alerts {
		if a.Kind == kind {
			return true
		}
	}
	return false
}
