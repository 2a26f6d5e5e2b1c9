package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"github.com/laces-project/laces/internal/netsim"
	"github.com/laces-project/laces/internal/obs"
)

// lacesBin is the compiled CLI under test, built once in TestMain.
var lacesBin string

func TestMain(m *testing.M) {
	if os.Getenv(signalChildEnv) != "" {
		signalChild() // the helper process of TestSignalContextSecondSignalKills
		return
	}
	dir, err := os.MkdirTemp("", "laces-cli")
	if err != nil {
		os.Exit(1)
	}
	defer os.RemoveAll(dir)
	lacesBin = filepath.Join(dir, "laces")
	if out, err := exec.Command("go", "build", "-o", lacesBin, ".").CombinedOutput(); err != nil {
		os.Stderr.WriteString("building laces CLI: " + err.Error() + "\n" + string(out))
		os.Exit(1)
	}
	os.Exit(m.Run())
}

// run executes the CLI and returns its exit code and combined output.
func run(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(lacesBin, args...)
	out, err := cmd.CombinedOutput()
	code := 0
	if err != nil {
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("laces %v: %v", args, err)
		}
		code = ee.ExitCode()
	}
	return code, string(out)
}

// TestCLIUsageAndExitCodes pins the command-line contract: unknown
// subcommands and flags exit non-zero, and the unknown-subcommand path
// prints the usage text listing every subcommand.
func TestCLIUsageAndExitCodes(t *testing.T) {
	var subcommands []string
	for _, c := range root.sub {
		subcommands = append(subcommands, c.name)
	}
	cases := []struct {
		name     string
		args     []string
		wantCode int
		wantOut  []string
	}{
		{"no args", nil, 2, []string{"Subcommands:"}},
		{"unknown subcommand", []string{"frobnicate"}, 2,
			[]string{`unknown subcommand "frobnicate"`, "Subcommands:"}},
		{"help", []string{"help"}, 0, []string{"Subcommands:"}},
		{"unknown flag", []string{"census", "-no-such-flag"}, 2,
			[]string{"flag provided but not defined", "Usage of census"}},
		{"bad budget spec", []string{"census", "-budget", "nonsense"}, 1,
			[]string{"budget:"}},
		{"budget without subcommand", []string{"budget"}, 1, []string{"usage: laces budget"}},
		{"budget unknown subcommand", []string{"budget", "frob"}, 1,
			[]string{`unknown subcommand "frob"`}},
		{"archive unknown subcommand", []string{"archive", "frob"}, 1,
			[]string{`unknown subcommand "frob"`}},
		{"query unknown subcommand", []string{"query", "frob"}, 1,
			[]string{`unknown subcommand "frob"`}},
		{"diff missing args", []string{"diff"}, 1, []string{"usage: laces diff"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			code, out := run(t, c.args...)
			if code != c.wantCode {
				t.Fatalf("exit code %d, want %d; output:\n%s", code, c.wantCode, out)
			}
			for _, want := range c.wantOut {
				if !strings.Contains(out, want) {
					t.Fatalf("output missing %q:\n%s", want, out)
				}
			}
			if c.wantCode != 0 {
				return
			}
		})
	}
	// Every advertised subcommand appears in the usage text.
	_, usage := run(t, "help")
	for _, sub := range subcommands {
		if !strings.Contains(usage, "\n  "+sub) {
			t.Fatalf("usage missing subcommand %q:\n%s", sub, usage)
		}
	}
}

// TestCLIBudgetShow pins the governance inspection command.
func TestCLIBudgetShow(t *testing.T) {
	optout := filepath.Join(t.TempDir(), "optout.txt")
	if err := os.WriteFile(optout, []byte("1.2.3.0/24\nAS64500\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out := run(t, "budget", "show", "-budget", "daily:10000,as:500", "-optout", optout)
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	for _, want := range []string{
		"budget: daily:10000,as:500",
		"opt-out registry: 2 entries",
		"1.2.3.0/24", "AS64500",
		"estimated anycast-stage demand",
		"daily budget covers",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("budget show missing %q:\n%s", want, out)
		}
	}
}

// TestCLICensusGoverned runs a governed census end to end through the
// binary and checks the published document carries the responsibility
// block and the opted-out prefix is absent.
func TestCLICensusGoverned(t *testing.T) {
	dir := t.TempDir()
	optout := filepath.Join(dir, "optout.txt")
	if err := os.WriteFile(optout, []byte("# nobody\nAS64500\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	jsonOut := filepath.Join(dir, "census.json")
	code, out := run(t, "census", "-day", "0", "-budget", "daily:2000000", "-optout", optout, "-json", jsonOut)
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	if !strings.Contains(out, "responsibility: demanded=") {
		t.Fatalf("census output missing responsibility summary:\n%s", out)
	}
	raw, err := os.ReadFile(jsonOut)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Responsibility *struct {
			Demanded int64 `json:"probes_demanded"`
			Spent    int64 `json:"probes_spent"`
			Skipped  int64 `json:"probes_skipped"`
		} `json:"responsibility"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Responsibility == nil {
		t.Fatal("published census lacks the responsibility block")
	}
	r := doc.Responsibility
	if r.Spent+r.Skipped != r.Demanded || r.Demanded == 0 {
		t.Fatalf("responsibility does not reconcile: %+v", r)
	}
}

// TestCLICensusTraceIsOneTree runs a traced census through the binary
// and pins the export's shape: one non-zero trace ID on every span,
// exactly one parentless span (the census), every other span parented
// on a recorded one.
func TestCLICensusTraceIsOneTree(t *testing.T) {
	traceOut := filepath.Join(t.TempDir(), "t.jsonl")
	if code, out := run(t, "census", "-day", "3", "-trace", traceOut); code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	f, err := os.Open(traceOut)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ex, err := obs.ReadTraceJSONL(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(ex.Spans) < 10 {
		t.Fatalf("trace holds only %d spans", len(ex.Spans))
	}
	ids := map[uint64]bool{}
	for _, sp := range ex.Spans {
		ids[sp.SpanID] = true
	}
	roots := 0
	for _, sp := range ex.Spans {
		if sp.TraceID == 0 || sp.TraceID != ex.Spans[0].TraceID {
			t.Fatalf("span %q has trace ID %x, want the run's one non-zero ID %x", sp.Name, sp.TraceID, ex.Spans[0].TraceID)
		}
		switch {
		case sp.Parent == 0 && sp.Name == "census":
			roots++
		case !ids[sp.Parent]:
			t.Fatalf("span %q is parentless or names an unrecorded parent", sp.Name)
		}
	}
	if roots != 1 {
		t.Fatalf("trace has %d census roots, want 1", roots)
	}
}

// TestCLIMetricsRendersSpanTree writes a snapshot in completion order
// (children before parents, as a registry records them) and pins that
// `laces metrics` indents spans by their parent links, orders siblings
// by start time, roots a span whose parent lives in another process,
// and prints the flight events.
func TestCLIMetricsRendersSpanTree(t *testing.T) {
	t0 := time.Date(2025, 6, 1, 12, 0, 0, 0, time.UTC)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	snap := obs.Snapshot{
		TakenAt: at(5000),
		Metrics: []obs.SnapshotMetric{{Name: "laces_census_days_total", Type: "counter", Value: 1}},
		Spans: []obs.TraceSpan{
			{TraceID: 7, SpanID: 4, Parent: 2, Name: "shard1", Start: at(12), Seconds: 0.5},
			{TraceID: 7, SpanID: 3, Parent: 2, Name: "shard0", Start: at(11), Seconds: 0.75},
			{TraceID: 7, SpanID: 2, Parent: 1, Name: "anycast_icmp", Start: at(10), Seconds: 1},
			{TraceID: 7, SpanID: 5, Parent: 1, Name: "gcd_icmp", Start: at(1500), Seconds: 0.25},
			{TraceID: 7, SpanID: 1, Name: "census", Start: at(0), Seconds: 2},
			{TraceID: 9, SpanID: 6, Parent: 99, Name: "worker/measure", Start: at(3000), Seconds: 0.125},
		},
		Events: []obs.FlightEvent{{
			At: at(2000), Kind: "reconcile_mismatch", Name: "census", TraceID: 7, SpanID: 1, N: 3,
			Fields: []obs.Label{obs.L("day", "3")},
		}},
	}
	path := filepath.Join(t.TempDir(), "snap.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := snap.WriteJSON(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	code, out := run(t, "metrics", path)
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	want := strings.Join([]string{
		"spans:",
		"  census                                               2.000s",
		"    anycast_icmp                                       1.000s",
		"      shard0                                           0.750s",
		"      shard1                                           0.500s",
		"    gcd_icmp                                           0.250s",
		"  worker/measure                                       0.125s",
		"events:",
		`  2025-06-01T12:00:02Z reconcile_mismatch census day="3"`,
	}, "\n") + "\n"
	if !strings.Contains(out, "1 series, 6 spans, 1 events") || !strings.HasSuffix(out, want) {
		t.Fatalf("metrics rendering:\n%s\nwant suffix:\n%s", out, want)
	}
	if code, out := run(t, "metrics", "-spans=false", "-events=false", path); code != 0 || strings.Contains(out, "census  ") {
		t.Fatalf("-spans=false still rendered spans (exit %d):\n%s", code, out)
	}
}

// TestCLITraceFamilyFromTarget pins that `laces trace` searches the
// universe of the target's own address family: an IPv6 prefix or address
// needs no flag to be found.
func TestCLITraceFamilyFromTarget(t *testing.T) {
	w, err := simWorld(1, "test")
	if err != nil {
		t.Fatal(err)
	}
	for _, v6 := range []bool{false, true} {
		tg := w.TargetAt(v6, w.NumTargets(v6)/2)
		for _, target := range []string{tg.Prefix.String(), tg.Addr.String()} {
			code, out := run(t, "trace", "-target", target)
			if code != 0 || !strings.Contains(out, "traceroute to "+tg.Addr.String()+" ("+tg.Prefix.String()+")") {
				t.Fatalf("trace -target %s: exit %d, output:\n%s", target, code, out)
			}
		}
	}
	if code, out := run(t, "trace", "-target", "fe80::/48"); code != 1 || !strings.Contains(out, "not on the hitlist") {
		t.Fatalf("trace of an unrouted prefix: exit %d, output:\n%s", code, out)
	}
}

// TestCLITraceHonoursOptOut: `laces trace -optout` asks the registry's
// gate before it sends a probe. A target the registry covers, by prefix
// or by origin AS, exits 1 naming the entry and prints no hop; any other
// target is traced.
func TestCLITraceHonoursOptOut(t *testing.T) {
	w, err := simWorld(1, "test")
	if err != nil {
		t.Fatal(err)
	}
	byPrefix, byAS, free := w.TargetAt(false, 0), (*netsim.Target)(nil), (*netsim.Target)(nil)
	for i := 1; free == nil; i++ {
		switch tg := w.TargetAt(false, i); {
		case tg.Origin == byPrefix.Origin:
		case byAS == nil:
			byAS = tg
		case tg.Origin != byAS.Origin:
			free = tg
		}
	}
	asEntry := fmt.Sprintf("AS%d", byAS.Origin)
	path := filepath.Join(t.TempDir(), "optout.txt")
	if err := os.WriteFile(path, []byte(byPrefix.Prefix.String()+"\n"+asEntry+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		tg    *netsim.Target
		entry string
	}{{byPrefix, byPrefix.Prefix.String()}, {byAS, asEntry}} {
		code, out := run(t, "trace", "-target", c.tg.Prefix.String(), "-optout", path)
		if code != 1 || !strings.Contains(out, "opt-out entry "+c.entry) || strings.Contains(out, "traceroute to") {
			t.Errorf("trace of %s opted out as %s: exit %d, output:\n%s", c.tg.Prefix, c.entry, code, out)
		}
	}
	if code, out := run(t, "trace", "-target", free.Prefix.String(), "-optout", path); code != 0 || !strings.Contains(out, "traceroute to") {
		t.Errorf("trace of %s, not opted out: exit %d, output:\n%s", free.Prefix, code, out)
	}
}

// TestWriteFile pins the create → write → close helper every -out style
// flag goes through: a create failure and a callback failure come back as
// they are, the file is closed either way, and a device that refuses the
// bytes fails the call instead of printing "wrote".
func TestWriteFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.txt")
	if err := writeFile(path, func(w io.Writer) error { _, err := io.WriteString(w, "census\n"); return err }); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != "census\n" {
		t.Fatalf("wrote %q (%v)", got, err)
	}

	called := false
	err := writeFile(filepath.Join(t.TempDir(), "no-such-dir", "out.txt"), func(io.Writer) error { called = true; return nil })
	if !errors.Is(err, os.ErrNotExist) || called {
		t.Fatalf("create failure: err %v, callback ran %v", err, called)
	}

	boom := errors.New("boom")
	var held io.Writer
	if err := writeFile(path, func(w io.Writer) error { held = w; return boom }); err != boom {
		t.Fatalf("callback failure: err %v, want the callback's own", err)
	}
	if _, err := held.Write([]byte("x")); !errors.Is(err, os.ErrClosed) {
		t.Fatalf("file left open after a failed callback: write err %v", err)
	}

	if _, err := os.Stat("/dev/full"); err == nil {
		err := writeFile("/dev/full", func(w io.Writer) error { _, err := w.Write(make([]byte, 1<<16)); return err })
		if !errors.Is(err, syscall.ENOSPC) {
			t.Fatalf("/dev/full: err %v, want ENOSPC", err)
		}
	}
}

// TestServeUntilDrainsThenCuts: cancelling the context (SIGINT/SIGTERM in
// `laces serve`) lets an in-flight streamed response finish cleanly, and
// cuts one that outlives the grace period.
func TestServeUntilDrainsThenCuts(t *testing.T) {
	for _, tc := range []struct {
		name      string
		grace     time.Duration
		finishes  bool
		wantClean bool
	}{
		{"drains an in-flight stream", time.Minute, true, true},
		{"cuts a stream past the bound", 50 * time.Millisecond, false, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			release := make(chan struct{})
			handler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				io.WriteString(w, "first\n")
				w.(http.Flusher).Flush()
				select {
				case <-release:
					io.WriteString(w, "last\n")
				case <-r.Context().Done():
				}
			})
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			ctx, stop := context.WithCancel(context.Background())
			defer stop()
			returned := make(chan error, 1)
			go func() { returned <- serveUntil(ctx, &http.Server{Handler: handler}, ln, tc.grace) }()

			resp, err := http.Get("http://" + ln.Addr().String() + "/")
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			first := make([]byte, len("first\n"))
			if _, err := io.ReadFull(resp.Body, first); err != nil {
				t.Fatal(err)
			}
			stop() // the signal arrives mid-stream
			if tc.finishes {
				// Shutdown has begun once the listener refuses connections.
				for {
					c, err := net.Dial("tcp", ln.Addr().String())
					if err != nil {
						break
					}
					c.Close()
					time.Sleep(time.Millisecond)
				}
				close(release)
			}
			rest, err := io.ReadAll(resp.Body)
			if clean := err == nil && string(rest) == "last\n"; clean != tc.wantClean {
				t.Fatalf("rest of the body %q, err %v; want a clean finish: %v", rest, err, tc.wantClean)
			}
			if err := <-returned; err != nil {
				t.Fatalf("serveUntil returned %v", err)
			}
		})
	}
}
