package faults

import (
	"math"
	"slices"
	"sync"
	"testing"
	"time"
)

func TestBreakerTripProbeAndClose(t *testing.T) {
	var b Breaker
	if b.Open() || !b.Allow() {
		t.Fatal("zero Breaker must be closed and allow")
	}
	// A success mid-streak resets it: two failures, a success, two more
	// failures never reach the threshold.
	b.Failure()
	b.Failure()
	b.Success()
	for i := 1; i < BreakerTripAfter; i++ {
		if b.Failure() || b.Open() {
			t.Fatalf("tripped after %d consecutive failures, want %d", i, BreakerTripAfter)
		}
	}
	if !b.Failure() || !b.Open() || b.Trips() != 1 {
		t.Fatalf("failure %d: open=%v trips=%d, want tripped once", BreakerTripAfter, b.Open(), b.Trips())
	}

	// While open only every BreakerProbeAfter-th Allow passes.
	for i := 1; i <= 2*BreakerProbeAfter; i++ {
		if got, want := b.Allow(), i%BreakerProbeAfter == 0; got != want {
			t.Fatalf("open Allow #%d = %v, want %v", i, got, want)
		}
	}

	// A failed probe keeps it open and is not a second trip.
	if b.Failure() || !b.Open() || b.Trips() != 1 {
		t.Fatalf("failed probe: open=%v trips=%d, want open with 1 trip", b.Open(), b.Trips())
	}

	// Success closes it and resets the streak: it trips again only after
	// a full fresh run of failures.
	b.Success()
	if b.Open() || !b.Allow() {
		t.Fatal("Success did not close the breaker")
	}
	for i := 1; i < BreakerTripAfter; i++ {
		if b.Failure() {
			t.Fatalf("streak not reset: tripped at failure %d after Success", i)
		}
	}
	if !b.Failure() || b.Trips() != 2 {
		t.Fatalf("second trip: trips=%d, want 2", b.Trips())
	}
	// The probe cadence restarts with each trip.
	for i := 1; i < BreakerProbeAfter; i++ {
		if b.Allow() {
			t.Fatalf("Allow #%d passed right after a fresh trip", i)
		}
	}
	if !b.Allow() {
		t.Fatalf("Allow #%d after a fresh trip should probe", BreakerProbeAfter)
	}
}

func TestBackoffDoublesAndCaps(t *testing.T) {
	ms := time.Millisecond
	for _, c := range []struct {
		base, limit time.Duration
		attempt     int
		want        time.Duration
	}{
		{10 * ms, time.Second, 0, 10 * ms},
		{10 * ms, time.Second, 1, 20 * ms},
		{10 * ms, time.Second, 2, 40 * ms},
		{10 * ms, time.Second, 6, 640 * ms},
		{10 * ms, time.Second, 7, time.Second},
		{25 * ms, time.Second, 5, 800 * ms},
		{25 * ms, time.Second, 6, time.Second},
		{10 * ms, time.Second, -1, 10 * ms},
		{2 * time.Second, time.Second, 0, time.Second}, // base > limit
		{2 * time.Second, time.Second, 3, time.Second},
		{time.Second, time.Second, 4, time.Second},
		{0, time.Second, 5, 0},
		{1, math.MaxInt64, 62, 1 << 62},
	} {
		if got := Backoff(c.base, c.limit, c.attempt); got != c.want {
			t.Errorf("Backoff(%v, %v, %d) = %v, want %v", c.base, c.limit, c.attempt, got, c.want)
		}
	}
}

func TestBackoffNeverOverflows(t *testing.T) {
	for _, base := range []time.Duration{1, 10 * time.Millisecond, time.Hour} {
		for _, limit := range []time.Duration{time.Second, math.MaxInt64} {
			for _, attempt := range []int{62, 63, 64, 1000} {
				if d := Backoff(base, limit, attempt); d <= 0 || d > limit {
					t.Errorf("Backoff(%v, %v, %d) = %v, want in (0, %v]", base, limit, attempt, d, limit)
				}
			}
		}
	}
}

func TestJitterEqualRangeAndReplay(t *testing.T) {
	a, b := NewJitter(7, "test/jitter"), NewJitter(7, "test/jitter")
	var varied bool
	for i := 0; i < 200; i++ {
		d := time.Duration(i+1) * 37 * time.Millisecond
		got := a.Equal(d)
		if got < d/2 || got > d {
			t.Fatalf("Equal(%v) = %v outside [%v, %v]", d, got, d/2, d)
		}
		if again := b.Equal(d); again != got {
			t.Fatalf("draw %d: %v vs %v from the same seed", i, got, again)
		}
		varied = varied || got != d
	}
	if !varied {
		t.Fatal("every Equal draw landed on d — jitter inactive")
	}
	if d := a.Equal(0); d != 0 {
		t.Fatalf("Equal(0) = %v, want 0", d)
	}
}

func TestJitterRetryAfterSeconds(t *testing.T) {
	j := NewJitter(3, "test/retry-after")
	seen := map[int]int{}
	for i := 0; i < 64; i++ {
		seen[j.RetryAfterSeconds()]++
	}
	if len(seen) != 2 || seen[1] == 0 || seen[2] == 0 {
		t.Fatalf("RetryAfterSeconds values %v, want both 1 and 2 and nothing else", seen)
	}
}

// TestJitterConcurrentDrawsMatchSequential shares one Jitter across 8
// goroutines: under -race the mutex must hold, and the draws must be
// exactly the sequential stream's — none lost, none repeated.
func TestJitterConcurrentDrawsMatchSequential(t *testing.T) {
	const goroutines, each = 8, 200
	shared := NewJitter(11, "test/concurrent")
	out := make([][]time.Duration, goroutines)
	var wg sync.WaitGroup
	for g := range out {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				out[g] = append(out[g], shared.Equal(time.Second))
			}
		}()
	}
	wg.Wait()
	got := slices.Concat(out...)
	seq := NewJitter(11, "test/concurrent")
	want := make([]time.Duration, 0, len(got))
	for range got {
		want = append(want, seq.Equal(time.Second))
	}
	slices.Sort(got)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Fatal("concurrent draws differ from the sequential stream")
	}
}
