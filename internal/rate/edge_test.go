package rate

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"
	"time"
)

// TestConstructorsRejectNonPositiveRates sweeps the full non-positive
// edge for both abstractions, including the pathological float inputs a
// governance layer could compute (negative after misconfigured halving,
// NaN from 0/0).
func TestConstructorsRejectNonPositiveRates(t *testing.T) {
	for _, r := range []float64{0, -1, -1e9, math.Inf(-1)} {
		if _, err := NewLimiter(r, 8, nil); !errors.Is(err, ErrRateZero) {
			t.Errorf("NewLimiter(%v) error = %v, want ErrRateZero", r, err)
		}
		if _, err := NewPacer(time.Unix(0, 0), r, time.Second); !errors.Is(err, ErrRateZero) {
			t.Errorf("NewPacer(%v) error = %v, want ErrRateZero", r, err)
		}
	}
	// NaN comparisons are false, so NaN would slip through a `<= 0`
	// check — pin today's behavior explicitly: NaN is not rejected, and
	// callers must not forward NaN rates. (StepRate never produces one.)
	if _, err := NewLimiter(math.NaN(), 1, nil); err != nil {
		t.Errorf("NewLimiter(NaN) unexpectedly rejected: %v", err)
	}
}

// TestLimiterWaitCancelledMidWait cancels the context while Wait is
// genuinely blocked on the real clock (not pre-cancelled), and checks
// Wait returns promptly with the context error wrapped.
func TestLimiterWaitCancelledMidWait(t *testing.T) {
	l, err := NewLimiter(0.0001, 1, nil) // one token per ~3 hours
	if err != nil {
		t.Fatal(err)
	}
	if !l.Allow() {
		t.Fatal("initial burst token missing")
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- l.Wait(ctx) }()
	// Give Wait time to enter its sleep before cancelling.
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Wait error = %v, want wrapped context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Wait did not return after mid-wait cancellation")
	}
}

// TestLimiterWaitDeadlineMidWait is the deadline twin: a context that
// expires while Wait sleeps must surface DeadlineExceeded.
func TestLimiterWaitDeadlineMidWait(t *testing.T) {
	l, err := NewLimiter(0.0001, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !l.Allow() {
		t.Fatal("initial burst token missing")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := l.Wait(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Wait error = %v, want wrapped DeadlineExceeded", err)
	}
}

// TestLimiterConcurrentAllowNeverOversells hammers Allow from many
// goroutines with a frozen clock: exactly the burst can succeed, no
// matter the interleaving. Run under -race this also pins the lock
// discipline (the CI race job does).
func TestLimiterConcurrentAllowNeverOversells(t *testing.T) {
	const burst = 64
	clk := NewFakeClock(time.Unix(0, 0))
	l, err := NewLimiter(1, burst, clk)
	if err != nil {
		t.Fatal(err)
	}
	var granted int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := int64(0)
			for i := 0; i < 100; i++ {
				if l.Allow() {
					local++
				}
			}
			mu.Lock()
			granted += local
			mu.Unlock()
		}()
	}
	wg.Wait()
	if granted != burst {
		t.Fatalf("granted %d tokens from a frozen %d-token bucket", granted, burst)
	}
	// One second of refill buys exactly one more.
	clk.Advance(time.Second)
	if !l.Allow() {
		t.Fatal("refilled token missing")
	}
	if l.Allow() {
		t.Fatal("oversold after refill")
	}
}

// TestPacerZeroOffsetAndDuration pins the degenerate pacer inputs the
// orchestrator can produce: zero worker offset (all workers synchronized
// exactly) and non-positive target counts.
func TestPacerZeroOffsetAndDuration(t *testing.T) {
	start := time.Unix(1000, 0)
	p, err := NewPacer(start, 100, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.SendTime(0, 5); !got.Equal(start) {
		t.Fatalf("zero offset: worker 5 sends at %v, want %v", got, start)
	}
	if p.Duration(0, 8) != 0 || p.Duration(-3, 8) != 0 {
		t.Fatal("non-positive target counts must have zero duration")
	}
	if got, want := p.Duration(1, 1), p.period; got != want {
		t.Fatalf("single probe duration = %v, want one period %v", got, want)
	}
}
