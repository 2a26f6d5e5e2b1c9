// Package rate implements the probing-rate control LACeS uses to satisfy
// its "responsible measurement" requirement (R3): the Orchestrator streams
// hitlist targets to Workers at a CLI-defined rate, and §5.5.2 of the paper
// shows accuracy is maintained even at 1/8th the normal rate.
//
// Two abstractions are provided:
//
//   - Limiter: a classic token bucket, safe for concurrent use, with
//     blocking (Wait) acquisition and an injectable clock so simulations
//     and tests never sleep.
//   - Pacer: converts a desired packets-per-second rate into the precise
//     send timestamp for the i-th probe, which is what the Orchestrator
//     uses to schedule synchronized probes with per-worker offsets.
package rate

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Clock abstracts time for testability. A Limiter built without one
// uses WallClock.
type Clock interface {
	Now() time.Time
	// Sleep waits for d or until ctx is done, returning ctx.Err() in the
	// latter case.
	Sleep(ctx context.Context, d time.Duration) error
}

// WallClock is real time: the one place wall time enters; everything
// else injects a Clock.
type WallClock struct{}

// Now returns the wall-clock time.
func (WallClock) Now() time.Time { return time.Now() } //laces:allow detnow WallClock is the one place wall time enters; everything else injects Clock

// Sleep waits for d or until ctx is done.
func (WallClock) Sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// ErrRateZero is returned when constructing a limiter or pacer with a
// non-positive rate.
var ErrRateZero = errors.New("rate: packets-per-second must be positive")

// Limiter is a token bucket: capacity Burst tokens, refilled at PerSecond
// tokens per second. A Limiter must be created with NewLimiter.
type Limiter struct {
	perSecond float64
	burst     float64
	clock     Clock

	// Pacer-wait telemetry: how often Wait had to sleep and for how
	// long in total. Atomic so readers never contend with the bucket
	// mutex; read via WaitStats.
	waits     atomic.Int64
	waitNanos atomic.Int64

	mu     sync.Mutex
	tokens float64
	last   time.Time
}

// WaitStats returns the limiter's sleep telemetry: the number of times
// Wait blocked and the total requested sleep time. Zero for a nil
// limiter.
func (l *Limiter) WaitStats() (waits int64, total time.Duration) {
	if l == nil {
		return 0, 0
	}
	return l.waits.Load(), time.Duration(l.waitNanos.Load())
}

// NewLimiter returns a token bucket producing perSecond tokens per second
// with the given burst capacity (minimum 1). A nil clock uses WallClock.
func NewLimiter(perSecond float64, burst int, clock Clock) (*Limiter, error) {
	if perSecond <= 0 {
		return nil, ErrRateZero
	}
	if burst < 1 {
		burst = 1
	}
	if clock == nil {
		clock = WallClock{}
	}
	return &Limiter{
		perSecond: perSecond,
		burst:     float64(burst),
		clock:     clock,
		tokens:    float64(burst),
		last:      clock.Now(),
	}, nil
}

// refillLocked advances the bucket to now. Caller holds l.mu.
func (l *Limiter) refillLocked(now time.Time) {
	elapsed := now.Sub(l.last)
	if elapsed <= 0 {
		return
	}
	l.last = now
	l.tokens += elapsed.Seconds() * l.perSecond
	if l.tokens > l.burst {
		l.tokens = l.burst
	}
}

// Wait blocks until a token is available or ctx is done.
func (l *Limiter) Wait(ctx context.Context) error {
	for {
		l.mu.Lock()
		now := l.clock.Now()
		l.refillLocked(now)
		if l.tokens >= 1 {
			l.tokens--
			l.mu.Unlock()
			return nil
		}
		need := 1 - l.tokens
		wait := time.Duration(need / l.perSecond * float64(time.Second))
		l.mu.Unlock()
		l.waits.Add(1)
		l.waitNanos.Add(int64(wait))
		if err := l.clock.Sleep(ctx, wait); err != nil {
			return fmt.Errorf("rate: waiting for token: %w", err)
		}
	}
}

// Pacer computes deterministic send times for a sequence of probes sent at
// a fixed rate starting from a base time. Unlike Limiter it holds no
// mutable state, so the Orchestrator can compute the schedule of probe i
// for worker w as:
//
//	send(i, w) = Start + i/Rate + w×Offset
//
// which is exactly the synchronized probing scheme of §4.2.3: every target
// receives one probe from each worker, spaced Offset apart, while the
// hitlist is consumed at Rate targets/second.
type Pacer struct {
	start  time.Time
	period time.Duration
	offset time.Duration
}

// NewPacer creates a pacer for the given targets-per-second rate and
// inter-worker offset.
func NewPacer(start time.Time, perSecond float64, workerOffset time.Duration) (*Pacer, error) {
	if perSecond <= 0 {
		return nil, ErrRateZero
	}
	return &Pacer{
		start:  start,
		period: time.Duration(float64(time.Second) / perSecond),
		offset: workerOffset,
	}, nil
}

// SendTime returns the scheduled transmit time of the probe for target
// index i from worker index w.
func (p *Pacer) SendTime(i, w int) time.Time {
	return p.start.Add(time.Duration(i)*p.period + time.Duration(w)*p.offset)
}

// Duration returns the total wall-clock time needed to probe n targets
// with nWorkers workers: the send time of the last probe plus one period.
func (p *Pacer) Duration(n, nWorkers int) time.Duration {
	if n <= 0 {
		return 0
	}
	last := time.Duration(n-1)*p.period + time.Duration(nWorkers-1)*p.offset
	return last + p.period
}
