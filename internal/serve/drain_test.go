package serve

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestDrainRefusesNewWork: a drained server turns its health surface red,
// refuses new pipeline runs with 503 + Retry-After, and counts the
// rejections — but keeps answering cheap reads (datasets, metrics).
func TestDrainRefusesNewWork(t *testing.T) {
	s := newTestServer(t, Config{Options: fastServeOptions()})
	ts := httptest.NewServer(s)
	defer ts.Close()

	// Drain via the admin endpoint (the fleet's graceful-removal path).
	resp, err := ts.Client().Post(ts.URL+"/v1/admin/drain", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !s.draining.Load() {
		t.Fatalf("drain: %d, draining=%v", resp.StatusCode, s.draining.Load())
	}

	if code, body := get(t, ts, "/healthz"); code != http.StatusServiceUnavailable ||
		!strings.Contains(string(body), "draining") {
		t.Fatalf("healthz after drain: %d %s", code, body)
	}
	if code, _ := get(t, ts, "/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("readyz after drain: %d", code)
	}

	resp, err = ts.Client().Get(ts.URL + "/v1/datasets/demo/report?stages=summary")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("report while draining: %d, want 503", resp.StatusCode)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || ra < 1 || ra > 2 {
		t.Fatalf("Retry-After = %q, want jittered 1..2", resp.Header.Get("Retry-After"))
	}

	if code, _ := get(t, ts, "/v1/datasets"); code != http.StatusOK {
		t.Fatalf("dataset listing while draining: %d, want 200", code)
	}
	code, body := get(t, ts, "/metrics")
	if code != http.StatusOK || !strings.Contains(string(body), "eliteserve_draining_rejected_total 1") {
		t.Fatalf("metrics after drained rejection: %d\n%s", code, body)
	}
}

// TestRetryAfterEqualJitter: the shed/draining Retry-After is 1 or 2
// seconds (equal jitter over a 2s base) and actually varies, so
// synchronized clients spread their retries.
func TestRetryAfterEqualJitter(t *testing.T) {
	s := New(Config{Options: fastServeOptions()})
	seen := map[int]bool{}
	for i := 0; i < 64; i++ {
		v := s.retryAfter.RetryAfterSeconds()
		if v < 1 || v > 2 {
			t.Fatalf("RetryAfterSeconds = %d, want 1..2", v)
		}
		seen[v] = true
	}
	if !seen[1] || !seen[2] {
		t.Fatalf("jitter never varied: %v", seen)
	}
}

// TestWaitJobsReportsAbandoned: WaitJobs returns 0 once every async job
// finishes, and the count of still-running jobs when the budget expires
// first.
func TestWaitJobsReportsAbandoned(t *testing.T) {
	s := newTestServer(t, Config{Options: fastServeOptions(), AsyncAfter: time.Millisecond})
	ts := httptest.NewServer(s)
	defer ts.Close()

	// With no jobs, WaitJobs returns immediately.
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if n := s.WaitJobs(ctx); n != 0 {
		t.Fatalf("WaitJobs on idle server = %d, want 0", n)
	}

	// Kick off a cold async run, then immediately wait with a zero budget:
	// the job is still running, so it counts as abandoned.
	resp, err := ts.Client().Post(ts.URL+"/v1/datasets/demo/report", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async POST: %d, want 202", resp.StatusCode)
	}
	expired, cancelNow := context.WithCancel(context.Background())
	cancelNow()
	if n := s.WaitJobs(expired); n != 1 {
		t.Fatalf("WaitJobs with expired budget = %d, want 1 abandoned", n)
	}

	// A generous budget drains cleanly.
	ctx2, cancel2 := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel2()
	if n := s.WaitJobs(ctx2); n != 0 {
		t.Fatalf("WaitJobs = %d abandoned, want 0", n)
	}
}
