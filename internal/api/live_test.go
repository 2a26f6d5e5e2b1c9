package api

import (
	"crypto/sha256"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"github.com/laces-project/laces/internal/netsim"
	"github.com/laces-project/laces/internal/packet"
	"github.com/laces-project/laces/internal/platform"
)

// liveServer builds an archive-less server over testWorld whose clock
// reads today.
func liveServer(t *testing.T, today int) *Server {
	t.Helper()
	d, err := platform.Tangled(testWorld, netsim.PolicyUnmodified)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewServer(testWorld, d,
		func(day int, v6 bool) ([]netsim.VP, error) { return platform.Ark(testWorld, day, v6) },
		func() int { return today })
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestLiveDayIsAFunctionOfTheDay is the un-governed twin of the
// capped-ledger case in TestResponsibilityEndpoint: a live day recomputed
// after other days were served in between is the same document. A
// long-lived pipeline would carry day 200's confirmations into day 3's
// feedback list and publish a different body of the same length.
func TestLiveDayIsAFunctionOfTheDay(t *testing.T) {
	s := liveServer(t, 200)
	s.CacheSize = 1
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	fetch := func(path string) string {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: code %d: %s", path, resp.StatusCode, raw)
		}
		return string(raw)
	}
	first := fetch("/v1/census?day=3")
	fetch("/v1/census?day=200") // evicts day 3 from the 1-entry LRU
	if again := fetch("/v1/census?day=3"); again != first {
		t.Fatalf("day 3 re-served after day 200 differs from its first serving: %d bytes sha256 %x, then %d bytes sha256 %x",
			len(first), sha256.Sum256([]byte(first)), len(again), sha256.Sum256([]byte(again)))
	}
}

// TestLiveDayBoundedByClock: a day that is neither archived nor reached
// by the server's clock is a 404 naming the newest servable day, decided
// before any pipeline is built — nothing is computed, cached or counted.
func TestLiveDayBoundedByClock(t *testing.T) {
	s := liveServer(t, 7)
	reg := instrument(t, s)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	censusDays := func() float64 {
		for _, m := range reg.Snapshot().Metrics {
			if m.Name == "laces_census_days_total" {
				return m.Value
			}
		}
		return 0
	}
	for _, path := range []string{
		"/v1/census?day=5000000",
		"/v1/census?day=8",
		"/v1/prefix/192.0.2.0/24?day=5000000",
		"/v1/responsibility?day=5000000&family=ipv6",
	} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound || !strings.Contains(string(raw), "newest servable day is 7") {
			t.Errorf("%s: code %d, body %.60q; want a 404 naming day 7", path, resp.StatusCode, raw)
		}
	}
	if n, days := cachedDays(s), censusDays(); n != 0 || days != 0 {
		t.Fatalf("refused days left %d cached documents and laces_census_days_total = %v", n, days)
	}
	// The clock's own day is servable.
	if resp, err := http.Get(srv.URL + "/v1/census?day=7"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("day 7 at clock 7: %v, %v", resp, err)
	} else {
		resp.Body.Close()
	}
	if n, days := cachedDays(s), censusDays(); n != 1 || days != 1 {
		t.Fatalf("served day left %d cached documents and laces_census_days_total = %v, want 1 and 1", n, days)
	}
}

var measurementMS = regexp.MustCompile(`"measurement_ms":\d+`)

// TestMeasureMatchesParent pins POST /v1/measure across the rewrite that
// made it a one-target census day (core.Pipeline.Measure): for one prefix
// of every shape the handler distinguishes, the response — minus the
// wall-clock measurement_ms — is byte for byte what the hand-rolled
// handler of the parent commit answered on the same world and clock.
func TestMeasureMatchesParent(t *testing.T) {
	pick := func(v6 bool, keep func(*netsim.Target) bool) string {
		t.Helper()
		for id := 0; id < testWorld.NumTargets(v6); id++ {
			if tg := testWorld.TargetAt(v6, id); keep(tg) {
				return tg.Prefix.String()
			}
		}
		t.Fatal("test world has no such target")
		return ""
	}
	only := func(protos ...packet.Protocol) func(*netsim.Target) bool {
		var want [3]bool
		for _, p := range protos {
			want[p] = true
		}
		return func(tg *netsim.Target) bool { return tg.Responsive == want }
	}
	kind := func(k netsim.TargetKind) func(*netsim.Target) bool {
		return func(tg *netsim.Target) bool { return tg.Kind == k && tg.Responsive[packet.ICMP] }
	}
	unicast := func(protos ...packet.Protocol) func(*netsim.Target) bool {
		return func(tg *netsim.Target) bool { return tg.Kind == netsim.Unicast && only(protos...)(tg) }
	}
	cases := []struct{ name, prefix string }{
		{"anycast", anycastPrefix(t).Prefix.String()},
		{"unicast", pick(false, kind(netsim.Unicast))},
		{"global unicast", pick(false, kind(netsim.GlobalUnicast))},
		{"partial anycast", pick(false, kind(netsim.PartialAnycast))},
		{"every protocol", pick(false, only(packet.ICMP, packet.TCP, packet.DNS))},
		{"TCP-only anycast", pick(false, only(packet.TCP))},
		{"TCP-only unicast", pick(false, unicast(packet.TCP))},
		{"TCP and DNS", pick(false, only(packet.TCP, packet.DNS))},
		{"DNS only", pick(false, only(packet.DNS))},
		{"unknown", "203.0.113.0/24"},
		{"IPv6 anycast", pick(true, kind(netsim.Anycast))},
		{"IPv6 TCP-only unicast", pick(true, unicast(packet.TCP))},
		{"IPv6 backing anycast", pick(true, func(tg *netsim.Target) bool { return tg.Kind == netsim.BackingAnycast })},
	}
	golden, err := os.ReadFile(filepath.Join("testdata", "measure_parent.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSpace(string(golden)), "\n")
	if len(want) != len(cases) {
		t.Fatalf("%d golden lines for %d cases", len(want), len(cases))
	}
	for i, c := range cases {
		resp, err := http.Post(testServer.URL+"/v1/measure", "application/json",
			strings.NewReader(`{"prefix":"`+c.prefix+`"}`))
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s (%s): code %d, %v", c.name, c.prefix, resp.StatusCode, err)
		}
		got := strings.TrimSpace(measurementMS.ReplaceAllString(string(raw), `"measurement_ms":0`))
		if got != want[i] {
			t.Errorf("%s:\n got %s\nwant %s", c.name, got, want[i])
		}
	}
}
