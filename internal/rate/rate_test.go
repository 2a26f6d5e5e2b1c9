package rate

import (
	"context"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

var epoch = time.Date(2024, 3, 21, 0, 0, 0, 0, time.UTC) // census start date

func TestNewLimiterRejectsBadRate(t *testing.T) {
	for _, r := range []float64{0, -1} {
		if _, err := NewLimiter(r, 1, nil); err == nil {
			t.Errorf("NewLimiter(%v) should fail", r)
		}
	}
}

func TestLimiterAllowBurst(t *testing.T) {
	clk := NewFakeClock(epoch)
	l, err := NewLimiter(10, 5, clk)
	if err != nil {
		t.Fatal(err)
	}
	// Full burst available immediately.
	for i := 0; i < 5; i++ {
		if !l.Allow() {
			t.Fatalf("token %d should be available from initial burst", i)
		}
	}
	if l.Allow() {
		t.Fatal("bucket should be empty after burst")
	}
	// After 100ms at 10/s exactly one token refills.
	clk.Advance(100 * time.Millisecond)
	if !l.Allow() {
		t.Fatal("one token should have refilled")
	}
	if l.Allow() {
		t.Fatal("only one token should have refilled")
	}
}

func TestLimiterRefillCapped(t *testing.T) {
	clk := NewFakeClock(epoch)
	l, _ := NewLimiter(100, 3, clk)
	for l.Allow() {
	}
	clk.Advance(time.Hour) // would refill 360k tokens; cap is 3
	n := 0
	for l.Allow() {
		n++
	}
	if n != 3 {
		t.Fatalf("refill not capped at burst: got %d tokens", n)
	}
}

func TestLimiterWaitAdvancesFakeClock(t *testing.T) {
	clk := NewFakeClock(epoch)
	l, _ := NewLimiter(1000, 1, clk)
	ctx := context.Background()
	start := clk.Now()
	for i := 0; i < 100; i++ {
		if err := l.Wait(ctx); err != nil {
			t.Fatal(err)
		}
	}
	elapsed := clk.Now().Sub(start)
	// 100 tokens at 1000/s with burst 1: ~99ms of simulated waiting.
	if elapsed < 90*time.Millisecond || elapsed > 110*time.Millisecond {
		t.Fatalf("simulated elapsed = %v, want ~99ms", elapsed)
	}
}

func TestLimiterWaitHonoursContext(t *testing.T) {
	l, _ := NewLimiter(0.0001, 1, nil) // one token per ~3 hours
	if !l.Allow() {
		t.Fatal("initial token missing")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := l.Wait(ctx); err == nil {
		t.Fatal("Wait should fail on cancelled context")
	}
}

func TestLimiterConservation(t *testing.T) {
	// Property: over any sequence of Allow calls and clock advances, the
	// number of granted tokens never exceeds burst + rate×elapsed.
	f := func(steps []uint8) bool {
		clk := NewFakeClock(epoch)
		const perSec, burst = 50.0, 10
		l, _ := NewLimiter(perSec, burst, clk)
		granted := 0
		var elapsed time.Duration
		for _, s := range steps {
			if s%2 == 0 {
				if l.Allow() {
					granted++
				}
			} else {
				d := time.Duration(s) * time.Millisecond
				clk.Advance(d)
				elapsed += d
			}
		}
		maxAllowed := float64(burst) + perSec*elapsed.Seconds() + 1e-6
		return float64(granted) <= maxAllowed
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPacerSchedule(t *testing.T) {
	p, err := NewPacer(epoch, 100, time.Second) // 100 targets/s, 1s worker offset
	if err != nil {
		t.Fatal(err)
	}
	if got := p.SendTime(0, 0); !got.Equal(epoch) {
		t.Fatalf("first probe at %v, want %v", got, epoch)
	}
	// Target 10, worker 3: 10×10ms + 3×1s.
	want := epoch.Add(100*time.Millisecond + 3*time.Second)
	if got := p.SendTime(10, 3); !got.Equal(want) {
		t.Fatalf("SendTime(10,3) = %v, want %v", got, want)
	}
}

func TestPacerSameTargetSpacedByOffset(t *testing.T) {
	// The paper's synchronized probing: probes to the same target from
	// consecutive workers are exactly Offset apart (like a ping sequence).
	p, _ := NewPacer(epoch, 1000, time.Second)
	f := func(i uint16, w uint8) bool {
		if w == 0 {
			return true
		}
		a := p.SendTime(int(i), int(w-1))
		b := p.SendTime(int(i), int(w))
		return b.Sub(a) == time.Second
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPacerDuration(t *testing.T) {
	p, _ := NewPacer(epoch, 10, time.Second) // 100ms period
	// 5 targets, 3 workers: last probe at 4×100ms + 2×1s, plus one period.
	want := 400*time.Millisecond + 2*time.Second + 100*time.Millisecond
	if got := p.Duration(5, 3); got != want {
		t.Fatalf("Duration = %v, want %v", got, want)
	}
	if p.Duration(0, 3) != 0 {
		t.Fatal("Duration of empty measurement should be 0")
	}
}

func TestPacerMonotone(t *testing.T) {
	p, _ := NewPacer(epoch, 333, 250*time.Millisecond)
	f := func(i uint16, w uint8) bool {
		t0 := p.SendTime(int(i), int(w))
		t1 := p.SendTime(int(i)+1, int(w))
		return t1.After(t0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNewPacerRejectsBadRate(t *testing.T) {
	if _, err := NewPacer(epoch, 0, 0); err == nil {
		t.Fatal("NewPacer(0) should fail")
	}
}

func TestFakeClockSleepCancelled(t *testing.T) {
	clk := NewFakeClock(epoch)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := clk.Sleep(ctx, time.Second); err == nil {
		t.Fatal("Sleep with cancelled context should fail")
	}
	if !clk.Now().Equal(epoch) {
		t.Fatal("cancelled Sleep must not advance the clock")
	}
}

func TestRealClockSleep(t *testing.T) {
	var c WallClock
	start := c.Now()
	if err := c.Sleep(context.Background(), time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if c.Now().Sub(start) < time.Millisecond {
		t.Fatal("WallClock.Sleep returned too early")
	}
	if err := c.Sleep(context.Background(), -time.Second); err != nil {
		t.Fatal("negative sleep should return immediately without error")
	}
}

func BenchmarkLimiterAllow(b *testing.B) {
	clk := NewFakeClock(epoch)
	l, _ := NewLimiter(1e9, 1<<30, clk)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l.Allow()
	}
}

// Allow reports whether one token is immediately available, consuming it
// if so.
func (l *Limiter) Allow() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.refillLocked(l.clock.Now())
	if l.tokens >= 1 {
		l.tokens--
		return true
	}
	return false
}

// FakeClock is a manually advanced clock for tests and simulation. It
// implements Clock. Sleep advances the clock instead of blocking, which
// lets rate-limited pipelines run at full speed deterministically.
type FakeClock struct {
	mu  sync.Mutex
	now time.Time
}

// NewFakeClock returns a FakeClock starting at start.
func NewFakeClock(start time.Time) *FakeClock {
	return &FakeClock{now: start}
}

// Now returns the current fake time.
func (c *FakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Sleep advances the fake clock by d immediately.
func (c *FakeClock) Sleep(ctx context.Context, d time.Duration) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	c.Advance(d)
	return nil
}

// Advance moves the clock forward by d (negative d is ignored).
func (c *FakeClock) Advance(d time.Duration) {
	if d <= 0 {
		return
	}
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}
