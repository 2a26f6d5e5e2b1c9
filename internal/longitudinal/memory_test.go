package longitudinal

// Acceptance tests for the streaming refactor: Run must not retain the
// per-day censuses it executes — History is built from per-day summaries
// and the documents stream out through Config.Sink. Pinned two ways: a
// static type walk proving no DailyCensus/Entry is reachable from
// History, and a memstats check that retained heap grows day-count-
// independently.

import (
	"reflect"
	"runtime"
	"testing"

	"github.com/laces-project/laces/internal/archive"
	"github.com/laces-project/laces/internal/core"
	"github.com/laces-project/laces/internal/netsim"
)

// TestHistoryHoldsNoCensus statically walks every type reachable from
// History and fails if a census or census entry can be stored there —
// the structural guarantee behind the O(1)-in-census-size memory bound.
func TestHistoryHoldsNoCensus(t *testing.T) {
	forbidden := map[reflect.Type]bool{
		reflect.TypeOf(core.DailyCensus{}): true,
		reflect.TypeOf(core.Entry{}):       true,
		reflect.TypeOf(core.Document{}):    true,
	}
	seen := map[reflect.Type]bool{}
	var walk func(reflect.Type, string)
	walk = func(ty reflect.Type, path string) {
		if seen[ty] {
			return
		}
		seen[ty] = true
		if forbidden[ty] {
			t.Fatalf("History retains census data: %s has type %v", path, ty)
		}
		switch ty.Kind() {
		case reflect.Pointer, reflect.Slice, reflect.Array:
			walk(ty.Elem(), path+"[]")
		case reflect.Map:
			walk(ty.Key(), path+".key")
			walk(ty.Elem(), path+".value")
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				f := ty.Field(i)
				walk(f.Type, path+"."+f.Name)
			}
		}
	}
	walk(reflect.TypeOf(History{}), "History")
}

// liveHeapAfterRun executes a clean run of the given length on a
// fresh world and returns the live heap with only the History retained.
func liveHeapAfterRun(t *testing.T, days int) (uint64, *History) {
	t.Helper()
	w, err := netsim.New(netsim.TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	h, err := Run(w, Config{Days: days, Stride: 1, Events: Events{None: true}})
	if err != nil {
		t.Fatal(err)
	}
	w = nil // the world and its caches must not count against the history
	_ = w
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc, h
}

// TestRunPeakMemoryDayCountIndependent is the memory-stats check of the
// acceptance bar: tripling the day count must not grow the retained heap
// by anything close to a census per day (a leak of the old kind — one
// DailyCensus held per day — is two orders of magnitude above the bound).
func TestRunPeakMemoryDayCountIndependent(t *testing.T) {
	base, h1 := liveHeapAfterRun(t, 4)
	big, h2 := liveHeapAfterRun(t, 16)
	var growth uint64
	if big > base {
		growth = big - base
	}
	perDay := growth / 12
	t.Logf("retained heap: %d days → %d B, %d days → %d B (growth %d B, %d B/extra day)",
		4, base, 16, big, growth, perDay)
	if perDay > 64<<10 {
		t.Fatalf("retained heap grows %d B per extra census day — the runner is holding censuses", perDay)
	}
	runtime.KeepAlive(h1)
	runtime.KeepAlive(h2)
}

// TestRunStreamsIntoSink archives a longitudinal run through Config.Sink
// and checks the store carries exactly the executed days, verified.
func TestRunStreamsIntoSink(t *testing.T) {
	dir := t.TempDir()
	w, err := archive.Create(dir, archive.Options{SnapshotEvery: 3})
	if err != nil {
		t.Fatal(err)
	}
	h, err := Run(testWorld, Config{Days: 5, Stride: 1, Events: Events{None: true}, Sink: w})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	a, err := archive.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, fam := range []string{"ipv4", "ipv6"} {
		days := a.Days(fam)
		if len(days) != 5 {
			t.Fatalf("%s: archived %d days, ran 5", fam, len(days))
		}
	}
	if res, err := a.Verify(); err != nil || res.Days != 10 {
		t.Fatalf("verify: %v (%+v)", err, res)
	}
	// The archived counts must agree with the history's summaries.
	for i, s := range h.Summaries(false) {
		rec, ok := a.Record("ipv4", s.Day)
		if !ok {
			t.Fatalf("day %d missing from archive", s.Day)
		}
		if rec.GCount != s.GTotal || rec.MCount != s.MTotal {
			t.Fatalf("run %d: archive counts G=%d M=%d, history G=%d M=%d",
				i, rec.GCount, rec.MCount, s.GTotal, s.MTotal)
		}
	}
}
