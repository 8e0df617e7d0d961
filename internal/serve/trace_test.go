package serve

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"elites/internal/obs"
)

// trace_test.go pins the server half of the tracing contract: an
// incoming traceparent header continues the caller's trace through
// admission, cache lookup and the per-stage pipeline spans; coalesced
// joiners link to the leader run's trace; and /metrics (which the same
// obs.Registry now renders) stays valid classic exposition with the
// pre-existing metric names. Run under -race by CI.

func newTraceServer(t *testing.T, tr *obs.Tracer) *Server {
	t.Helper()
	cfg := Config{
		Options:       fastServeOptions(),
		MaxConcurrent: 2,
		MaxQueue:      8,
		Tracer:        tr,
	}
	return newTestServer(t, cfg)
}

// TestTraceContinuesFromHeader: a request carrying a traceparent header
// yields serve.report, pipeline and stage.* spans all under the remote
// trace id, with cache attrs on the stage spans.
func TestTraceContinuesFromHeader(t *testing.T) {
	tr := obs.NewTracer(obs.TracerConfig{Name: "worker", Seed: 3})
	s := newTraceServer(t, tr)
	ts := httptest.NewServer(s)
	defer ts.Close()

	// A remote "router" span supplies the inbound header.
	remote := obs.NewTracer(obs.TracerConfig{Name: "router", Seed: 4})
	root := remote.Root("router.request")
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/datasets/demo/report?stages=summary", nil)
	obs.InjectHeader(req.Header, root)
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("report: %d", resp.StatusCode)
	}
	root.End()

	want := root.TraceID().String()
	spans := tr.TraceSpans(want)
	names := map[string]obs.SpanRecord{}
	for _, rec := range spans {
		names[rec.Name] = rec
	}
	for _, n := range []string{"serve.report", "admit", "pipeline", "stage.summary"} {
		if _, ok := names[n]; !ok {
			t.Fatalf("trace %s missing span %q; have %v", want, n, spanNames(spans))
		}
	}
	if got := names["serve.report"].Attrs["status"]; got != "200" {
		t.Fatalf("serve.report status attr = %q", got)
	}
	if got := names["serve.report"].Attrs["body_cache"]; got != "miss" {
		t.Fatalf("cold request body_cache attr = %q, want miss", got)
	}
	if got := names["stage.summary"].Attrs["cache_hit"]; got != "false" {
		t.Fatalf("cold stage cache_hit attr = %q, want false", got)
	}
	// The serve.report span must parent under the remote root.
	if names["serve.report"].Parent != root.SpanID().String() {
		t.Fatalf("serve.report parent = %s, want %s", names["serve.report"].Parent, root.SpanID())
	}

	// Warm re-request in a fresh trace: served from the body memo, so the
	// span records the hit and no pipeline span appears.
	root2 := remote.Root("router.request")
	req2, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/datasets/demo/report?stages=summary", nil)
	obs.InjectHeader(req2.Header, root2)
	resp2, err := ts.Client().Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	warm := tr.TraceSpans(root2.TraceID().String())
	if len(warm) == 0 {
		t.Fatal("warm request recorded no spans")
	}
	for _, rec := range warm {
		if rec.Name == "serve.report" && rec.Attrs["body_cache"] != "hit" {
			t.Fatalf("warm serve.report body_cache = %q, want hit", rec.Attrs["body_cache"])
		}
		if rec.Name == "pipeline" {
			t.Fatal("warm request ran the pipeline")
		}
	}

	// A per-user feature request records the body memo the same way: the
	// first users:batch misses, its repeat hits.
	for _, want := range []string{"miss", "hit"} {
		root := remote.Root("router.request")
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/datasets/demo/users:batch",
			strings.NewReader(`{"ranks":[1,2]}`))
		obs.InjectHeader(req.Header, root)
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		// Reading to EOF orders this after the server span has ended.
		io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("users:batch: %d", resp.StatusCode)
		}
		got := "<no serve.users_batch span>"
		for _, rec := range tr.TraceSpans(root.TraceID().String()) {
			if rec.Name == "serve.users_batch" {
				got = rec.Attrs["body_cache"]
			}
		}
		if got != want {
			t.Fatalf("users:batch body_cache = %q, want %s", got, want)
		}
	}
}

// TestDebugTracesEndpoint: the handler is routed and span counts cover
// the stages executed (the CI smoke asserts the same bound end to end).
func TestDebugTracesEndpoint(t *testing.T) {
	tr := obs.NewTracer(obs.TracerConfig{Name: "worker", Seed: 3})
	s := newTraceServer(t, tr)
	ts := httptest.NewServer(s)
	defer ts.Close()

	if code, _ := get(t, ts, "/v1/datasets/demo/report?stages=summary,degree"); code != http.StatusOK {
		t.Fatalf("report: %d", code)
	}
	code, body := get(t, ts, "/debug/traces")
	if code != http.StatusOK {
		t.Fatalf("/debug/traces: %d", code)
	}
	// 2 stages ran; the trace must hold at least serve.report + admit +
	// pipeline + one span per stage.
	if got := strings.Count(string(body), `"span"`); got < 5 {
		t.Fatalf("debug/traces has %d spans, want >= 5:\n%s", got, body)
	}
	for _, want := range []string{"stage.summary", "stage.degree", "serve.report"} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("debug/traces missing %q", want)
		}
	}
}

// TestNoTracerDebugTraces404s: without a tracer the endpoint reports
// tracing disabled rather than an empty trace list.
func TestNoTracerDebugTraces404s(t *testing.T) {
	s := newTestServer(t, Config{Options: fastServeOptions(), MaxConcurrent: 1})
	ts := httptest.NewServer(s)
	defer ts.Close()
	if code, _ := get(t, ts, "/debug/traces"); code != http.StatusNotFound {
		t.Fatalf("/debug/traces without tracer: %d, want 404", code)
	}
}

// TestCoalescedJoinerLinksLeader: a request that joins another request's
// in-flight run records the leader's trace id as a span link plus a
// "coalesced" event — the cross-trace causality /debug/traces exposes.
func TestCoalescedJoinerLinksLeader(t *testing.T) {
	tr := obs.NewTracer(obs.TracerConfig{Name: "worker", Seed: 3})
	f := newFlight()

	leader := tr.Root("serve.report")
	joiner := tr.Root("serve.report")
	release := make(chan struct{})
	fn := func(ctx context.Context, _ *progress) (runOutcome, error) {
		<-release
		return runOutcome{body: []byte("b")}, nil
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		f.Do(obs.ContextWithSpan(context.Background(), leader), "k", fn, nil)
	}()
	// Wait for the leader's call to be registered, then join.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, ok := f.peek("k"); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("leader call never registered")
		}
		time.Sleep(time.Millisecond)
	}
	var joined bool
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, joined, _ = f.Do(obs.ContextWithSpan(context.Background(), joiner), "k", fn, nil)
	}()
	// Wait for the joiner to register, then let the run finish. The link
	// is recorded before Do blocks on the run, so after wg.Wait() it is
	// guaranteed to be on the span.
	for {
		if c, ok := f.peek("k"); ok {
			f.mu.Lock()
			w := c.waiters
			f.mu.Unlock()
			if w == 2 {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("joiner never registered")
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	if !joined {
		t.Fatal("second caller did not join the leader's run")
	}
	joiner.End()

	recs := tr.TraceSpans(joiner.TraceID().String())
	if len(recs) != 1 {
		t.Fatalf("joiner trace has %d spans", len(recs))
	}
	if len(recs[0].Links) != 1 || recs[0].Links[0] != leader.TraceID().String() {
		t.Fatalf("joiner links = %v, want [%s]", recs[0].Links, leader.TraceID())
	}
	foundEvent := false
	for _, ev := range recs[0].Events {
		if ev.Name == "coalesced" && ev.Attrs["leader_trace"] == leader.TraceID().String() {
			foundEvent = true
		}
	}
	if !foundEvent {
		t.Fatalf("joiner events = %+v, want coalesced with leader_trace", recs[0].Events)
	}
	leader.End()
}

// TestMetricsExpositionValid: the registry-rendered /metrics passes the
// strict classic-format validator and still carries every pre-existing
// metric name — the golden guarantee the migration made.
func TestMetricsExpositionValid(t *testing.T) {
	tr := obs.NewTracer(obs.TracerConfig{Name: "worker", Seed: 3})
	s := newTraceServer(t, tr)
	ts := httptest.NewServer(s)
	defer ts.Close()

	if code, _ := get(t, ts, "/v1/datasets/demo/report?stages=summary"); code != http.StatusOK {
		t.Fatal("report failed")
	}
	code, body := get(t, ts, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: %d", code)
	}
	if err := obs.ValidateExposition(body); err != nil {
		t.Fatalf("serve /metrics invalid exposition: %v\n%s", err, body)
	}
	for _, name := range []string{
		"eliteserve_uptime_seconds",
		"eliteserve_requests_total",
		"eliteserve_request_duration_seconds_bucket",
		"eliteserve_runs_total",
		"eliteserve_coalesced_requests_total",
		"eliteserve_shed_requests_total",
		"eliteserve_cancelled_runs_total",
		"eliteserve_jobs_queued_total",
		"eliteserve_body_cache_hits_total",
		"eliteserve_degraded_total",
		"eliteserve_draining_rejected_total",
		"eliteserve_feature_shard_hits_total",
		"eliteserve_stage_cache_hits_total",
		"eliteserve_stage_cache_misses_total",
		"eliteserve_stage_cache_hit_ratio",
	} {
		if !strings.Contains(string(body), name) {
			t.Fatalf("/metrics missing pre-existing metric %q:\n%s", name, body)
		}
	}
	// Exemplars must not leak into the classic flavor...
	if strings.Contains(string(body), "trace_id") {
		t.Fatalf("classic /metrics leaked exemplars:\n%s", body)
	}
	// ...but appear under the OpenMetrics Accept.
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/metrics", nil)
	req.Header.Set("Accept", "application/openmetrics-text")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	om, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(om), "trace_id") || !strings.Contains(string(om), "# EOF") {
		t.Fatalf("OpenMetrics /metrics missing exemplars or EOF:\n%s", om)
	}
}

func spanNames(recs []obs.SpanRecord) []string {
	names := make([]string, len(recs))
	for i, r := range recs {
		names[i] = r.Name
	}
	return names
}
