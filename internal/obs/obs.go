// Package obs is the census telemetry core: dependency-free counters,
// gauges and fixed-bucket histograms with atomic updates, one span model
// (census → phase → stage → shard in-process, CLI → orchestrator → worker
// across wire frames), one bounded structured-event log (the flight
// recorder), Prometheus text exposition and a JSON Snapshot.
//
// The design contract mirrors internal/netsim's Impairer hook: hot-path
// instrumentation must be zero-alloc, and a disabled registry must
// compile down to near-no-ops. Every instrument type is nil-safe — a
// *Counter, *Gauge, *Histogram or *ActiveSpan obtained from a nil *Registry
// is nil, and calling its methods costs exactly one branch — so
// measurement loops carry a single pre-resolved handle and no
// conditional wiring. Telemetry never feeds back into measurement
// results: a census Document is byte-identical with observation on or
// off, which the determinism guards pin.
package obs

import (
	"math"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. The zero value
// is ready to use; methods on a nil *Counter are no-ops, so handles
// resolved from a disabled registry cost one branch on the hot path.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
//
//laces:hotpath one branch plus one atomic add per event
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
//
//laces:hotpath one branch plus one atomic add per event
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 for a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// reset zeroes the counter (progress bookkeeping between stages).
func (c *Counter) reset() {
	if c != nil {
		c.v.Store(0)
	}
}

// Gauge is an atomically updated instantaneous value. Nil-safe like
// Counter.
type Gauge struct{ v atomic.Int64 }

// Set stores n.
//
//laces:hotpath one branch plus one atomic store per event
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.v.Store(n)
	}
}

// Add adjusts the gauge by n (negative to decrement).
//
//laces:hotpath one branch plus one atomic add per event
func (g *Gauge) Add(n int64) {
	if g != nil {
		g.v.Add(n)
	}
}

// Value returns the current value (0 for a nil gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// FloatCounter is a monotonically increasing float64 counter (seconds
// totals). Add uses a CAS loop over the float bits, so it is lock-free
// and allocation-free.
type FloatCounter struct{ bits atomic.Uint64 }

// Add increments the counter by v.
func (c *FloatCounter) Add(v float64) {
	if c == nil {
		return
	}
	for {
		old := c.bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if c.bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Value returns the current total (0 for a nil counter).
func (c *FloatCounter) Value() float64 {
	if c == nil {
		return 0
	}
	return math.Float64frombits(c.bits.Load())
}

// numStripes is the stripe count of a Striped counter. Power of two so
// the stripe index is a mask, comfortably above typical GOMAXPROCS.
const numStripes = 64

// stripe is one cache-line-padded counter cell: 8 bytes of value plus
// padding to 64 bytes, so adjacent stripes never share a line.
type stripe struct {
	v atomic.Int64
	_ [56]byte
}

// Striped is a contention-avoiding counter for loops that update from
// many goroutines at once (the simulator's per-probe accounting): adds
// land on one of 64 padded stripes selected by a caller-supplied key
// (shard index, target ID — anything spread across workers), and reads
// sum the stripes. Nil-safe like Counter.
type Striped struct{ cells [numStripes]stripe }

// Add increments the stripe selected by key.
//
//laces:hotpath one atomic add per probe, striped to dodge cache-line contention
func (s *Striped) Add(key uint64, n int64) {
	if s != nil {
		s.cells[key&(numStripes-1)].v.Add(n)
	}
}

// Value sums all stripes.
func (s *Striped) Value() int64 {
	if s == nil {
		return 0
	}
	var sum int64
	for i := range s.cells {
		sum += s.cells[i].v.Load()
	}
	return sum
}

// Split reads a striped counter whose adds pack two correlated 32-bit
// fields into one value (lo | hi<<32) — the idiom for counting an event
// pair (probe issued, reply delivered) with a single atomic update. It
// unpacks per stripe before summing, so each field only overflows past
// 2^32 events landing on a single stripe (~2.7×10^11 events total at
// uniform key spread). Nil-safe.
func (s *Striped) Split() (lo, hi int64) {
	if s == nil {
		return 0, 0
	}
	for i := range s.cells {
		v := s.cells[i].v.Load()
		lo += v & (1<<32 - 1)
		hi += v >> 32
	}
	return lo, hi
}
