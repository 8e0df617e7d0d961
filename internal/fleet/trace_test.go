package fleet

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"elites/internal/obs"
)

// trace_test.go pins the router half of the tracing contract: every
// proxied request opens one router.request root span, each attempt is a
// child carrying the worker name, the traceparent header injected
// upstream puts both workers' serve spans in the same trace, retries
// surface as events, and the registry-rendered /metrics stays valid
// exposition. Run under -race by CI.

func newTraceTracer(seed uint64) *obs.Tracer {
	return obs.NewTracer(obs.TracerConfig{Name: "router", Seed: seed})
}

// TestTraceRetryOneTraceID: a failing primary forces a retry onto the
// second worker; both workers receive traceparent headers naming the
// SAME trace, the root span records the retry event, and /debug/traces
// serves the whole tree.
func TestTraceRetryOneTraceID(t *testing.T) {
	bs, addrs := fakeFleet(t, 2)
	tr := newTraceTracer(9)
	rt := newTestRouter(t, Config{Workers: addrs, Retries: 1, Tracer: tr})

	const target = "/v1/datasets/demo/report?stages=summary"
	order := orderFor(rt, http.MethodGet, target)

	seen := make(chan string, 2)
	bs.set(order[0].name, func(w http.ResponseWriter, r *http.Request) {
		seen <- r.Header.Get("traceparent")
		w.WriteHeader(http.StatusInternalServerError)
	})
	bs.set(order[1].name, func(w http.ResponseWriter, r *http.Request) {
		seen <- r.Header.Get("traceparent")
		w.Write([]byte("ok from retry"))
	})

	rec := doGet(rt, target)
	if rec.Code != http.StatusOK || rec.Body.String() != "ok from retry" {
		t.Fatalf("retried response: %d %q", rec.Code, rec.Body.String())
	}

	tp1, tp2 := <-seen, <-seen
	trace1, parent1, ok1 := obs.ParseTraceparent(tp1)
	trace2, parent2, ok2 := obs.ParseTraceparent(tp2)
	if !ok1 || !ok2 {
		t.Fatalf("workers received unparseable traceparents %q %q", tp1, tp2)
	}
	if trace1 != trace2 {
		t.Fatalf("attempts carried different trace ids: %s vs %s", trace1, trace2)
	}
	if parent1 == parent2 {
		t.Fatal("attempts shared a span id; want distinct sibling spans")
	}

	spans := tr.TraceSpans(trace1.String())
	var root *obs.SpanRecord
	attempts := 0
	for i, rec := range spans {
		switch rec.Name {
		case "router.request":
			root = &spans[i]
		case "router.attempt":
			attempts++
		}
	}
	if root == nil || attempts != 2 {
		t.Fatalf("trace has root=%v attempts=%d, want root + 2 attempts", root != nil, attempts)
	}
	if root.Attrs["status"] != "200" {
		t.Fatalf("root status attr = %q", root.Attrs["status"])
	}
	retried := false
	for _, ev := range root.Events {
		if ev.Name == "retry" && ev.Attrs["failed_worker"] == order[0].name {
			retried = true
		}
	}
	if !retried {
		t.Fatalf("root events %+v missing retry(failed_worker=%s)", root.Events, order[0].name)
	}

	// The same tree must come back over GET /debug/traces.
	dbg := doGet(rt, "/debug/traces?trace="+trace1.String())
	if dbg.Code != http.StatusOK {
		t.Fatalf("/debug/traces: %d", dbg.Code)
	}
	for _, want := range []string{trace1.String(), "router.request", "router.attempt"} {
		if !strings.Contains(dbg.Body.String(), want) {
			t.Fatalf("/debug/traces missing %q:\n%s", want, dbg.Body.String())
		}
	}
}

// TestWarmGetTracedAsBodyHit: the router.request span says whether the
// workers' stored body answered the GET — body_cache=miss, with the
// attempt that fetched it, or body_cache=hit, with no attempt at all.
func TestWarmGetTracedAsBodyHit(t *testing.T) {
	bs, addrs := fakeFleet(t, 1)
	tr := newTraceTracer(9)
	dir := t.TempDir()
	rt := newTestRouter(t, Config{Workers: addrs, Tracer: tr, CacheDir: dir})
	bs.set(addrs[0], identified(testIdentity, "ok"))
	rt.ProbeNow(context.Background())

	const target = "/v1/datasets/demo/report?stages=summary"
	traced := func(want string, attempts int) {
		t.Helper()
		client := tr.Root("client")
		req := httptest.NewRequest(http.MethodGet, target, nil)
		obs.InjectHeader(req.Header, client)
		rec := httptest.NewRecorder()
		rt.ServeHTTP(rec, req)
		client.End()
		if rec.Code != http.StatusOK || rec.Body.String() != "ok" {
			t.Fatalf("GET: %d %q", rec.Code, rec.Body.String())
		}
		got, n := "", 0
		for _, sp := range tr.TraceSpans(client.TraceID().String()) {
			switch sp.Name {
			case "router.request":
				got = sp.Attrs["body_cache"]
			case "router.attempt":
				n++
			}
		}
		if got != want || n != attempts {
			t.Fatalf("router.request body_cache=%q with %d attempts, want %q with %d", got, n, want, attempts)
		}
	}
	traced("miss", 1)
	storeBody(t, dir, target, "ok")
	traced("hit", 0)
}

// TestFleetMetricsExpositionValid: the router's registry-rendered
// /metrics passes the strict validator and keeps every pre-existing
// metric name (scripts/fleetload.sh and CI grep these).
func TestFleetMetricsExpositionValid(t *testing.T) {
	bs, addrs := fakeFleet(t, 2)
	tr := newTraceTracer(9)
	dir := t.TempDir()
	rt := newTestRouter(t, Config{Workers: addrs, Tracer: tr, CacheDir: dir})
	bs.set(addrs[0], identified(testIdentity, "ok"))
	bs.set(addrs[1], identified(testIdentity, "ok"))
	rt.ProbeNow(context.Background())
	doGet(rt, "/v1/datasets/demo/report?stages=summary")
	storeBody(t, dir, "/v1/datasets/demo/report?stages=summary", "ok")
	doGet(rt, "/v1/datasets/demo/report?stages=summary")

	rec := doGet(rt, "/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics: %d", rec.Code)
	}
	body := rec.Body.String()
	if err := obs.ValidateExposition([]byte(body)); err != nil {
		t.Fatalf("fleet /metrics invalid exposition: %v\n%s", err, body)
	}
	for _, name := range []string{
		"eliterouter_uptime_seconds",
		"eliterouter_worker_up",
		"eliterouter_workers_available",
		"eliterouter_breaker_open",
		"eliterouter_requests_total",
		"eliterouter_request_duration_seconds_bucket",
		"eliterouter_retries_total",
		"eliterouter_failovers_total",
		"eliterouter_breaker_trips_total",
		"eliterouter_degraded_total",
		"eliterouter_shed_total",
		"eliterouter_body_hits_total",
		"eliterouter_probe_failures_total",
		"eliterouter_ejections_total",
		"eliterouter_readmissions_total",
	} {
		if !strings.Contains(body, name) {
			t.Fatalf("/metrics missing pre-existing metric %q:\n%s", name, body)
		}
	}
	// A GET before its body is stored is proxied; one after is a hit.
	if !strings.Contains(body, "\neliterouter_body_hits_total 1\n") {
		t.Fatalf("want one body hit for a GET before and one after the body is stored:\n%s", body)
	}
	// fleetload.sh parses worker_up lines as exactly 'name{...} 0|1'.
	if !strings.Contains(body, `eliterouter_worker_up{worker="`+addrs[0]+`"} 1`) &&
		!strings.Contains(body, `eliterouter_worker_up{worker="`+addrs[0]+`"} 0`) {
		t.Fatalf("worker_up gauge not rendered as integral 0/1:\n%s", body)
	}
	if strings.Contains(body, "trace_id") {
		t.Fatalf("classic /metrics leaked exemplars:\n%s", body)
	}

	// OpenMetrics flavor adds exemplars + EOF.
	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	req.Header.Set("Accept", "application/openmetrics-text")
	omrec := httptest.NewRecorder()
	rt.ServeHTTP(omrec, req)
	om := omrec.Body.String()
	if !strings.Contains(om, "# EOF") || !strings.Contains(om, "trace_id") {
		t.Fatalf("OpenMetrics /metrics missing EOF or exemplars:\n%s", om)
	}
}
