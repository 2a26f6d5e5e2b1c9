package main

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"github.com/laces-project/laces/internal/archive"
	"github.com/laces-project/laces/internal/query"
)

// TestCLIIGreedyValidatesSamples: a row whose coordinate is off the globe
// or whose RTT is not a non-negative duration is an error naming its line —
// it must not reach the geometry, where NaN compares false with everything
// and two bad rows used to print "anycast: true, sites: 2".
func TestCLIIGreedyValidatesSamples(t *testing.T) {
	dir := t.TempDir()
	analyse := func(rows string) (int, string) {
		path := filepath.Join(dir, "samples.csv")
		if err := os.WriteFile(path, []byte(rows), 0o644); err != nil {
			t.Fatal(err)
		}
		return run(t, "igreedy", "-samples", path)
	}
	for _, tc := range []struct{ name, bad string }{
		{"NaN latitude", "a,NaN,0,10"},
		{"NaN longitude", "b,0,NaN,5"},
		{"infinite latitude", "a,+Inf,0,10"},
		{"infinite longitude", "a,0,-Inf,10"},
		{"latitude past the pole", "a,91,0,10"},
		{"longitude past the antimeridian", "a,0,-180.5,10"},
		{"both off the globe", "a,91,500,10"},
		{"negative RTT", "a,52.4,4.9,-1"},
		{"NaN RTT", "a,52.4,4.9,NaN"},
		{"infinite RTT", "a,52.4,4.9,Inf"},
		{"RTT overflowing time.Duration", "a,52.4,4.9,1e300"},
		{"RTT just past time.Duration", "a,52.4,4.9,9223372036855"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// The bad row is line 3, after a header and a good row.
			code, out := analyse("vp,lat,lon,rtt_ms\nams,52.37,4.90,3\n" + tc.bad + "\n")
			if code != 1 || !strings.Contains(out, "line 3") || strings.Contains(out, "anycast:") {
				t.Fatalf("exit %d, want 1 and an error naming line 3:\n%s", code, out)
			}
		})
	}
	code, out := analyse("# three continents, each a few ms from the target: no one site explains it\n" +
		"vp,lat,lon,rtt_ms\nams,52.37,4.90,3\n\nsyd,-33.87,151.21,3.5\nnyc,40.71,-74.01,2\n")
	if code != 0 || !strings.Contains(out, "samples: 3\nanycast: true\nsites: 3\n") {
		t.Fatalf("good file: exit %d:\n%s", code, out)
	}
}

// TestCLIArchivePackRejectsBadRanges: -stride 0 used to run day 0's
// pipeline twice before failing on the duplicate append, and -gen was
// scanned loosely enough to accept trailing junk. Both now fail before
// anything is created.
func TestCLIArchivePackRejectsBadRanges(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"stride zero", []string{"-gen", "0:2", "-stride", "0"}, "-stride must be at least 1"},
		{"stride negative", []string{"-gen", "0:2", "-stride", "-3"}, "-stride must be at least 1"},
		{"trailing junk", []string{"-gen", "0:2junk"}, `-gen wants from:to, got "0:2junk"`},
		{"leading junk", []string{"-gen", "x0:2"}, "-gen wants from:to"},
		{"no colon", []string{"-gen", "7"}, "-gen wants from:to"},
		{"three parts", []string{"-gen", "0:2:4"}, "-gen wants from:to"},
		{"reversed", []string{"-gen", "5:2"}, "-gen wants from:to"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "ar")
			code, out := run(t, append([]string{"archive", "pack", "-dir", dir}, tc.args...)...)
			if code != 1 || !strings.Contains(out, tc.want) || strings.Contains(out, "packed day") {
				t.Fatalf("exit %d, want 1 and %q with nothing packed:\n%s", code, tc.want, out)
			}
			if _, err := os.Stat(dir); !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("a rejected range still created the archive (stat: %v)", err)
			}
		})
	}
	if from, to, err := parseGen("-3:12"); err != nil || from != -3 || to != 12 {
		t.Fatalf(`parseGen("-3:12") = %d, %d, %v`, from, to, err)
	}
}

// failingCloser is a Writer whose Close reports a deferred write failure.
type failingCloser struct{ closed int }

func (c *failingCloser) Close() error { c.closed++; return syscall.ENOSPC }

// TestCloseAfter pins the helper `archive pack` and `census -archive` end
// with: the writer is closed exactly once on every path, its Close error
// is the result when nothing failed earlier, and an earlier failure wins.
func TestCloseAfter(t *testing.T) {
	c := &failingCloser{}
	if err := closeAfter(c, nil); !errors.Is(err, syscall.ENOSPC) || c.closed != 1 {
		t.Fatalf("clean run: err %v after %d closes, want the Close error after one", err, c.closed)
	}
	boom := errors.New("boom")
	if err := closeAfter(c, boom); err != boom || c.closed != 2 {
		t.Fatalf("failed run: err %v after %d closes, want the run's own error and one more close", err, c.closed)
	}
}

// TestOpenStore walks the one archive+index opener through the three
// states its callers tell apart: no index built, a current one (attached
// to the archive), and one the archive has outgrown.
func TestOpenStore(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ar")
	if code, out := run(t, "archive", "pack", "-dir", dir, "-gen", "0:1"); code != 0 {
		t.Fatalf("pack: exit %d:\n%s", code, out)
	}
	st, err := openStore(dir)
	if err != nil || st.index != nil || !errors.Is(st.noIndex, os.ErrNotExist) {
		t.Fatalf("no index built: store %+v, err %v; want noIndex wrapping ErrNotExist", st, err)
	}
	if _, err := query.BuildDir(dir); err != nil {
		t.Fatal(err)
	}
	st, err = openStore(dir)
	if err != nil || st.index == nil || st.noIndex != nil || st.index.Archive() != st.archive {
		t.Fatalf("current index: store %+v, err %v; want it open and attached", st, err)
	}
	st.close()
	// Outgrow the index the way a library writer does (the CLI's own
	// appends extend it): day 1's document again, as day 2.
	doc, err := st.archive.Document("ipv4", 1)
	if err != nil {
		t.Fatal(err)
	}
	w, err := archive.OpenOrCreate(dir, archive.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := closeAfter(w, w.Append(2, doc)); err != nil {
		t.Fatal(err)
	}
	st, err = openStore(dir)
	if err != nil || st.index != nil || st.noIndex == nil || errors.Is(st.noIndex, os.ErrNotExist) {
		t.Fatalf("outgrown index: store %+v, err %v; want the coverage mismatch in noIndex", st, err)
	}
	// The callers' policies, end to end: the dashboard skips its section.
	if code, out := run(t, "dashboard", "-archive", dir); code != 0 || !strings.Contains(out, "churn/events section skipped") {
		t.Fatalf("dashboard over a stale index: exit %d:\n%s", code, out)
	}
	if err := os.WriteFile(filepath.Join(dir, query.IndexFileName), []byte("not an index"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := openStore(dir); err == nil || !strings.Contains(err.Error(), "opening timeline index") {
		t.Fatalf("unreadable index: err %v, want it reported", err)
	}
}

// TestCLICensusKeepsIndexCurrent: the morning after a daily census the
// archive still answers longitudinal queries — `census -archive` extends
// an index that is there (and only then), so nobody reruns build-index
// by hand, and the extension decodes the new day-file alone, not the
// chain under it or the history.
func TestCLICensusKeepsIndexCurrent(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ar")
	if code, out := run(t, "archive", "pack", "-dir", dir, "-gen", "0:2"); code != 0 {
		t.Fatalf("pack: exit %d:\n%s", code, out)
	}
	// No index yet: the census appends and leaves it at that.
	code, out := run(t, "census", "-day", "3", "-archive", dir)
	if code != 0 || !strings.Contains(out, "appended day 3") || strings.Contains(out, "indexed day") {
		t.Fatalf("census without an index: exit %d:\n%s", code, out)
	}
	if _, err := os.Stat(filepath.Join(dir, query.IndexFileName)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("census created an index nobody asked for (stat: %v)", err)
	}
	code, out = run(t, "query", "build-index", "-archive", dir)
	if code != 0 || !strings.Contains(out, "+4 day-files, 4 decoded — built from scratch (no index)") {
		t.Fatalf("build-index: exit %d:\n%s", code, out)
	}
	// Day 4 is the fifth of a 7-day chain; only its own delta is decoded.
	code, out = run(t, "census", "-day", "4", "-archive", dir)
	if code != 0 || !strings.Contains(out, "indexed day 4: +1 day-files, 1 decoded — resumed from the committed index") {
		t.Fatalf("census over an indexed archive: exit %d:\n%s", code, out)
	}
	code, out = run(t, "query", "events", "-archive", dir)
	if code != 0 || !strings.Contains(out, "events (ipv4)") {
		t.Fatalf("query events after the census: exit %d:\n%s", code, out)
	}
	if code, out = run(t, "query", "build-index", "-archive", dir); code != 0 || !strings.Contains(out, "+0 day-files, 0 decoded — resumed") {
		t.Fatalf("build-index with nothing to add: exit %d:\n%s", code, out)
	}
}

// TestCLIArchivePackKeepsIndexCurrent: packing days into an indexed
// archive extends the index through the same step `census -archive`
// takes, so the next longitudinal query sees the new days instead of
// refusing a stale index.
func TestCLIArchivePackKeepsIndexCurrent(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ar")
	if code, out := run(t, "archive", "pack", "-dir", dir, "-gen", "0:3"); code != 0 || strings.Contains(out, "indexed") {
		t.Fatalf("pack without an index: exit %d:\n%s", code, out)
	}
	if code, out := run(t, "query", "build-index", "-archive", dir); code != 0 {
		t.Fatalf("build-index: exit %d:\n%s", code, out)
	}
	code, out := run(t, "archive", "pack", "-dir", dir, "-gen", "4:5")
	if code != 0 || !strings.Contains(out, "indexed the packed days: +2 day-files, 2 decoded — resumed from the committed index") {
		t.Fatalf("pack into an indexed archive: exit %d:\n%s", code, out)
	}
	a, err := archive.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := a.Document("ipv4", 5)
	if err != nil || len(doc.Entries) == 0 {
		t.Fatalf("day 5: %v", err)
	}
	code, out = run(t, "query", "timeline", "-archive", dir, "-prefix", doc.Entries[0].Prefix)
	if code != 0 || !strings.Contains(out, "days 0..5:") {
		t.Fatalf("query timeline after the pack: exit %d:\n%s", code, out)
	}
	if code, out = run(t, "query", "events", "-archive", dir); code != 0 || !strings.Contains(out, "events (ipv4)") {
		t.Fatalf("query events after the pack: exit %d:\n%s", code, out)
	}
}

// signalChildEnv makes TestMain run signalChild instead of the tests.
const signalChildEnv = "LACES_TEST_SIGNAL_CHILD"

// signalChild is `laces serve` reduced to its signal handling: wait for
// the first signal, then "drain" for longer than the test will wait.
func signalChild() {
	ctx := signalContext()
	fmt.Println("ready")
	<-ctx.Done()
	fmt.Println("draining")
	time.Sleep(time.Minute)
}

// TestSignalContextSecondSignalKills: the first SIGINT cancels the
// context and the command starts draining; a second one must terminate
// the process, not be swallowed by a handler nobody is listening on.
func TestSignalContextSecondSignalKills(t *testing.T) {
	child := exec.Command(os.Args[0])
	child.Env = append(os.Environ(), signalChildEnv+"=1")
	stdout, err := child.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := child.Start(); err != nil {
		t.Fatal(err)
	}
	defer child.Process.Kill()
	lines := bufio.NewScanner(stdout)
	expect := func(want string) {
		t.Helper()
		if !lines.Scan() || lines.Text() != want {
			t.Fatalf("child said %q (%v), want %q", lines.Text(), lines.Err(), want)
		}
	}
	expect("ready")
	if err := child.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	expect("draining")

	exited := make(chan error, 1)
	go func() { exited <- child.Wait() }()
	// The handler is released just after the context is cancelled, not
	// atomically with it, so keep pressing Ctrl-C like an impatient
	// operator would; before the fix no number of them got through.
	deadline := time.After(2 * time.Second)
	for {
		child.Process.Signal(os.Interrupt)
		select {
		case err := <-exited:
			var ee *exec.ExitError
			if !errors.As(err, &ee) || !ee.Sys().(syscall.WaitStatus).Signaled() {
				t.Fatalf("child ended with %v, want death by SIGINT", err)
			}
			return
		case <-deadline:
			t.Fatal("second SIGINT did not terminate the draining process within 2 s")
		case <-time.After(20 * time.Millisecond):
		}
	}
}
