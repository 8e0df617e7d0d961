package faults

import (
	"sync"
	"time"

	"elites/internal/mathx"
)

// A Breaker trips open on the BreakerTripAfter-th consecutive failure and,
// while open, lets every BreakerProbeAfter-th Allow through as a probe.
const (
	BreakerTripAfter  = 3
	BreakerProbeAfter = 8
)

// Breaker is the consecutive-failure circuit breaker with a periodic
// half-open probe behind the result cache's disk tier and the fleet's
// per-worker request path. The zero value is closed. It does no locking:
// the owner guards it with the mutex that protects the state around it.
type Breaker struct {
	consec int // consecutive failures since the last success
	open   bool
	skips  int // Allow calls while open, for the probe cadence
	trips  uint64
}

// Allow reports whether the next guarded operation may proceed.
func (b *Breaker) Allow() bool {
	if !b.open {
		return true
	}
	b.skips++
	return b.skips%BreakerProbeAfter == 0
}

// Success closes the breaker and resets the failure streak.
func (b *Breaker) Success() { b.consec, b.open, b.skips = 0, false, 0 }

// Failure records a failure and reports whether it tripped the breaker. A
// failure while open (a failed probe) keeps it open and is not a new trip.
func (b *Breaker) Failure() (tripped bool) {
	b.consec++
	if b.open || b.consec < BreakerTripAfter {
		return false
	}
	b.open, b.skips = true, 0
	b.trips++
	return true
}

// Open reports whether the breaker is open.
func (b *Breaker) Open() bool { return b.open }

// Trips counts the breaker's closed → open transitions.
func (b *Breaker) Trips() uint64 { return b.trips }

// Backoff returns base doubled attempt times, capped at limit (so limit
// when base > limit), without overflowing for any attempt. A non-positive
// base returns 0.
func Backoff(base, limit time.Duration, attempt int) time.Duration {
	attempt = max(attempt, 0)
	switch {
	case base <= 0:
		return 0
	case base > limit>>attempt: // an over-wide shift is 0, never an overflow
		return limit
	}
	return base << attempt
}

// Jitter is a seeded random stream for spreading retry waits: the same
// seed replays the same waits, while callers that fail together still
// come back apart. It is safe for concurrent use.
type Jitter struct {
	mu  sync.Mutex
	rng *mathx.RNG
}

// NewJitter returns the stream mathx.NewRNG(seed).Derive(label).
func NewJitter(seed uint64, label string) *Jitter {
	return &Jitter{rng: mathx.NewRNG(seed).Derive(label)}
}

// Equal draws uniformly from [d/2, d]: exactly d/2 + Intn(d/2+1)
// nanoseconds. A non-positive d returns 0 without drawing.
func (j *Jitter) Equal(d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return d/2 + time.Duration(j.rng.Intn(int(d/2)+1))
}

// RetryAfterSeconds returns 1 or 2: equal jitter over a 2-second
// Retry-After, so clients shed together do not return in lockstep.
func (j *Jitter) RetryAfterSeconds() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return 1 + j.rng.Intn(2)
}
