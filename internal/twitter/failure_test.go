package twitter

import (
	"errors"
	"strings"
	"testing"
	"time"
)

func TestCrawlSurvivesTransientFailures(t *testing.T) {
	p := smallPlatform(t, 900)
	truth, derr := DatasetFromPlatform(p)
	if derr != nil {
		t.Fatal(derr)
	}

	api := NewAPI(p)
	api.FailureRate = 0.15 // 15% of calls return 503
	ds, err := Crawl(api)
	if err != nil {
		t.Fatalf("crawl did not survive failure injection: %v", err)
	}
	if api.Failures == 0 {
		t.Fatal("failure injection inactive — test proves nothing")
	}
	// The recovered dataset must equal the ground truth exactly.
	if ds.Graph.NumNodes() != truth.Graph.NumNodes() ||
		ds.Graph.NumEdges() != truth.Graph.NumEdges() {
		t.Fatalf("crawl under failures diverged: %d/%d vs %d/%d nodes/edges",
			ds.Graph.NumNodes(), ds.Graph.NumEdges(),
			truth.Graph.NumNodes(), truth.Graph.NumEdges())
	}
}

func TestAPIInjectsFailuresDeterministically(t *testing.T) {
	p := smallPlatform(t, 300)
	a1 := NewAPI(p)
	a1.FailureRate = 0.5
	a2 := NewAPI(p)
	a2.FailureRate = 0.5
	for i := 0; i < 40; i++ {
		_, _, err1 := a1.FriendIDs(a1.VerifiedBotID(), 0)
		_, _, err2 := a2.FriendIDs(a2.VerifiedBotID(), 0)
		if (err1 == nil) != (err2 == nil) {
			t.Fatal("failure injection not deterministic")
		}
	}
	if a1.Failures == 0 {
		t.Fatal("no failures at 50% rate over 40 calls")
	}
}

func TestRetryGivesUpOnPersistentFailure(t *testing.T) {
	p := smallPlatform(t, 300)
	api := NewAPI(p)
	api.FailureRate = 1.0 // every call fails
	_, _, err := retryFriendIDs(api, newRetrier(), api.VerifiedBotID(), 0)
	if !errors.Is(err, ErrServiceUnavailable) {
		t.Fatalf("want ErrServiceUnavailable after retries, got %v", err)
	}
	// Retries consumed: initial + crawlMaxRetries attempts.
	if api.Failures != crawlMaxRetries+1 {
		t.Fatalf("attempts = %d, want %d", api.Failures, crawlMaxRetries+1)
	}
}

func TestRetryDoesNotMaskHardErrors(t *testing.T) {
	p := smallPlatform(t, 300)
	api := NewAPI(p)
	if _, _, err := retryFriendIDs(api, newRetrier(), 424242, 0); !errors.Is(err, ErrUnknownUser) {
		t.Fatalf("hard error should pass through, got %v", err)
	}
}

func TestFailuresConsumeRateBudget(t *testing.T) {
	p := smallPlatform(t, 300)
	api := NewAPI(p)
	api.FailureRate = 1.0
	start := api.Clock().Now()
	for i := 0; i < 16; i++ {
		api.FriendIDs(api.VerifiedBotID(), 0) //nolint:errcheck // failures expected
	}
	if api.Clock().Now().Sub(start) < windowLength {
		t.Fatal("failed calls must still consume the rate window")
	}
}

// TestRetryWaitsAreJitteredAndDeterministic pins the backoff schedule: waits
// carry equal jitter (uniform in [base/2, base]) and two fresh retriers
// replay the identical sequence, keeping crawls reproducible. The literal
// waits pin the exact draws, so a change to the jitter stream or its
// arithmetic fails here even when it stays inside the range.
func TestRetryWaitsAreJitteredAndDeterministic(t *testing.T) {
	want := []time.Duration{
		4806571202, 8905343008, 17217434018,
		21172130234, 47634298068, 125069688054,
	}
	p := smallPlatform(t, 300)
	sample := func() []time.Duration {
		api := NewAPI(p)
		rt := newRetrier()
		var waits []time.Duration
		for attempt := range want {
			before := api.Clock().Now()
			if err := rt.wait(api, attempt, ErrServiceUnavailable); err != nil {
				t.Fatalf("wait: %v", err)
			}
			waits = append(waits, api.Clock().Now().Sub(before))
		}
		return waits
	}
	a, b := sample(), sample()
	var jittered bool
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("wait %d not deterministic: %v vs %v", i, a[i], b[i])
		}
		if a[i] != want[i] {
			t.Fatalf("wait %d = %v (%d), want %v", i, a[i], int64(a[i]), want[i])
		}
		base := 5 * time.Second << uint(i)
		if a[i] < base/2 || a[i] > base {
			t.Fatalf("wait %d = %v outside equal-jitter range [%v, %v]", i, a[i], base/2, base)
		}
		if a[i] != base {
			jittered = true
		}
	}
	if !jittered {
		t.Fatal("every wait landed exactly on its base — jitter inactive")
	}
}

// TestRetryBudgetExhaustion drains one retrier's cumulative budget and checks
// the terminal error both names the budget and wraps the transient failure
// that spent it, so callers can still errors.Is the root cause.
func TestRetryBudgetExhaustion(t *testing.T) {
	p := smallPlatform(t, 300)
	api := NewAPI(p)
	rt := newRetrier()
	var err error
	for attempt := 0; ; attempt++ {
		if attempt > 64 {
			t.Fatal("budget never exhausted")
		}
		// Re-use a mid-sized exponent so exhaustion comes from accumulation,
		// not one monster wait.
		if err = rt.wait(api, 5, ErrServiceUnavailable); err != nil {
			break
		}
	}
	if !errors.Is(err, ErrServiceUnavailable) {
		t.Fatalf("budget error must wrap the transient failure, got %v", err)
	}
	if !strings.Contains(err.Error(), "retry budget exhausted") {
		t.Fatalf("error should describe the budget: %v", err)
	}
	if rt.spent > crawlRetryBudget {
		t.Fatalf("spent %v exceeds budget %v", rt.spent, crawlRetryBudget)
	}
}

// TestCrawlFailsWithBudgetErrorOnPersistentOutage runs a full crawl against
// an API that always 503s: the crawl must fail with a descriptive error
// rather than advancing the virtual clock forever.
func TestCrawlFailsWithBudgetErrorOnPersistentOutage(t *testing.T) {
	p := smallPlatform(t, 300)
	api := NewAPI(p)
	api.FailureRate = 1.0
	if _, err := Crawl(api); !errors.Is(err, ErrServiceUnavailable) {
		t.Fatalf("persistent outage should surface ErrServiceUnavailable, got %v", err)
	}
}
