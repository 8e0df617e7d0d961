package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"elites/internal/faults"
)

// chaos_test.go drives the full HTTP server through the fault matrix: every
// injector kind crossed with the cold / warm / coalesced / async request
// paths. The invariants under every combination: the server never crashes,
// fault responses are either clean, structurally degraded (200 + Warning +
// "degraded": true), or structured errors — and the first clean request
// after the fault clears is byte-identical to a never-faulted body.

// chaosConfig builds a server config with its own cache dir and the given
// fault spec. The body memo is disabled so every request actually runs the
// battery (the fault schedule is per-run, and memoized bodies would mask
// later rule firings).
func chaosConfig(t *testing.T, spec string) Config {
	t.Helper()
	opts := fastServeOptions()
	opts.CacheDir = t.TempDir()
	cfg := Config{Options: opts, BodyCacheBytes: -1}
	if spec != "" {
		inj, err := faults.Parse(spec, 1)
		if err != nil {
			t.Fatalf("parse %q: %v", spec, err)
		}
		cfg.Options.Faults = inj
	}
	return cfg
}

// chaosResp is one captured response.
type chaosResp struct {
	code    int
	body    []byte
	warning string
}

func chaosDo(t *testing.T, ts *httptest.Server, method, path string) chaosResp {
	t.Helper()
	req, err := http.NewRequest(method, ts.URL+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, path, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return chaosResp{code: resp.StatusCode, body: buf.Bytes(), warning: resp.Header.Get("Warning")}
}

// degradedView is the slice of the JSON body the chaos assertions read.
type degradedView struct {
	Degraded    bool `json:"degraded"`
	StageErrors []struct {
		Stage   string `json:"stage"`
		Error   string `json:"error"`
		Panic   bool   `json:"panic"`
		Stack   string `json:"stack"`
		Skipped bool   `json:"skipped"`
	} `json:"stage_errors"`
}

func parseDegraded(t *testing.T, body []byte) degradedView {
	t.Helper()
	var v degradedView
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatalf("unmarshal report: %v", err)
	}
	return v
}

// chaosRef memoizes the never-faulted report body once per binary.
var (
	chaosRefOnce sync.Once
	chaosRefBody []byte
)

func referenceBody(t *testing.T) []byte {
	t.Helper()
	chaosRefOnce.Do(func() {
		s := newTestServer(t, chaosConfig(t, ""))
		ts := httptest.NewServer(s)
		defer ts.Close()
		r := chaosDo(t, ts, http.MethodGet, "/v1/datasets/demo/report")
		if r.code != http.StatusOK {
			t.Fatalf("reference run: %d %s", r.code, r.body)
		}
		chaosRefBody = r.body
	})
	return chaosRefBody
}

// assertClean checks a response is a complete, never-degraded report
// byte-identical to the reference.
func assertClean(t *testing.T, r chaosResp, ref []byte) {
	t.Helper()
	if r.code != http.StatusOK {
		t.Fatalf("clean request: code %d, body %s", r.code, r.body)
	}
	if r.warning != "" {
		t.Fatalf("clean request carries Warning %q", r.warning)
	}
	if !bytes.Equal(r.body, ref) {
		t.Fatalf("clean body diverges from the never-faulted reference\n got: %s\nwant: %s", r.body, ref)
	}
}

// assertDegraded checks a response is a 200 partial report with the Warning
// header, "degraded": true, and a structured error entry for wantStage.
func assertDegraded(t *testing.T, r chaosResp, wantStage string) degradedView {
	t.Helper()
	if r.code != http.StatusOK {
		t.Fatalf("degraded request: code %d, body %s", r.code, r.body)
	}
	if r.warning == "" {
		t.Fatal("degraded response missing Warning header")
	}
	v := parseDegraded(t, r.body)
	if !v.Degraded {
		t.Fatalf("body not marked degraded: %s", r.body)
	}
	for _, se := range v.StageErrors {
		if se.Stage == wantStage && se.Error != "" {
			return v
		}
	}
	t.Fatalf("no stage_errors entry for %q in %s", wantStage, r.body)
	return v
}

// TestChaosMatrix crosses every injector kind with every request path.
func TestChaosMatrix(t *testing.T) {
	ref := referenceBody(t)
	const report = "/v1/datasets/demo/report"

	injectors := []struct {
		name string
		spec string
		// expect is the faulted request's outcome: "degraded" (200 partial),
		// "clean" (the fault is absorbed), or "error" (structured 5xx).
		expect string
	}{
		{"stage-panic", "stage:degree=panic", "degraded"},
		{"stage-error", "stage:degree=error", "degraded"},
		{"stage-slow", "stage:degree=slow:delay=30ms", "clean"},
		{"cache-read-ioerror", "cache:read=ioerror:times=all", "clean"},
		{"cache-write-enospc", "cache:write=enospc:times=all", "clean"},
		{"stage-cancel", "stage:degree=cancel", "error"},
	}
	paths := []string{"cold", "warm", "coalesced", "async"}

	for _, inj := range injectors {
		for _, path := range paths {
			t.Run(inj.name+"/"+path, func(t *testing.T) {
				spec := inj.spec
				if path == "warm" && inj.expect != "clean" {
					// Let the warming run pass clean; the rule fires on the
					// second (warm-cache) run. Cache-op rules already fire
					// on every hit and are absorbed either way.
					spec += ":after=1"
				}
				cfg := chaosConfig(t, spec)
				if path == "async" {
					cfg.AsyncAfter = time.Nanosecond
				}
				s := newTestServer(t, cfg)
				ts := httptest.NewServer(s)
				defer ts.Close()

				if path == "warm" {
					// Warming run: clean either way — stage rules hold fire
					// until the second run (after=1), cache rules fire but
					// are absorbed.
					assertClean(t, chaosDo(t, ts, http.MethodGet, report), ref)
				}

				checkFaulted := func(r chaosResp) {
					switch inj.expect {
					case "degraded":
						assertDegraded(t, r, "degree")
					case "clean":
						assertClean(t, r, ref)
					case "error":
						if r.code != http.StatusInternalServerError {
							t.Fatalf("cancel injection: code %d, body %s", r.code, r.body)
						}
						var e map[string]string
						if err := json.Unmarshal(r.body, &e); err != nil || e["error"] == "" {
							t.Fatalf("cancel error body not structured: %s", r.body)
						}
					}
				}

				switch path {
				case "cold", "warm":
					checkFaulted(chaosDo(t, ts, http.MethodGet, report))
				case "coalesced":
					const n = 4
					resps := make([]chaosResp, n)
					var wg sync.WaitGroup
					for i := 0; i < n; i++ {
						i := i
						wg.Add(1)
						go func() {
							defer wg.Done()
							resps[i] = chaosDo(t, ts, http.MethodGet, report)
						}()
					}
					wg.Wait()
					// Exactly one run fires the (times=1) fault; every
					// response is either that run's outcome or a clean
					// straggler. At least one response must carry the fault.
					faulted := 0
					for _, r := range resps {
						switch {
						case inj.expect == "clean":
							assertClean(t, r, ref)
							faulted++ // the fault is absorbed into every clean body
						case r.code == http.StatusOK && r.warning == "":
							assertClean(t, r, ref)
						default:
							checkFaulted(r)
							faulted++
						}
					}
					if faulted == 0 {
						t.Fatal("no response observed the injected fault")
					}
				case "async":
					r := chaosDo(t, ts, http.MethodPost, report)
					if r.code == http.StatusAccepted {
						var acc struct {
							JobID string `json:"job_id"`
						}
						if err := json.Unmarshal(r.body, &acc); err != nil || acc.JobID == "" {
							t.Fatalf("202 body: %s", r.body)
						}
						r = pollJobResult(t, ts, acc.JobID)
					}
					checkFaulted(r)
				}

				// The fault window is spent (or absorbed): the next request
				// must serve the full clean report, byte-identical to a
				// never-faulted server's.
				assertClean(t, chaosDo(t, ts, http.MethodGet, report), ref)
				if inj.expect == "degraded" && s.met.degraded.Value() == 0 {
					t.Fatal("eliteserve_degraded_total not incremented")
				}
			})
		}
	}
}

// pollJobResult waits for an async job to finish and fetches its result.
func pollJobResult(t *testing.T, ts *httptest.Server, jobID string) chaosResp {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		st := chaosDo(t, ts, http.MethodGet, "/v1/jobs/"+jobID)
		if st.code != http.StatusOK {
			t.Fatalf("job status: %d %s", st.code, st.body)
		}
		var v struct {
			State string `json:"state"`
		}
		if err := json.Unmarshal(st.body, &v); err != nil {
			t.Fatal(err)
		}
		if v.State != "running" {
			return chaosDo(t, ts, http.MethodGet, "/v1/jobs/"+jobID+"/result")
		}
		if time.Now().After(deadline) {
			t.Fatal("job never finished")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestChaosPanicThroughCoalescerWithWaiters panics a real battery stage
// while concurrent waiters share the run through the coalescer: the server
// must survive, every waiter of the panicked run gets the same degraded
// body with a typed panic entry (stage, panic flag, captured stack), and
// the next clean request is byte-identical to the never-faulted reference.
func TestChaosPanicThroughCoalescerWithWaiters(t *testing.T) {
	ref := referenceBody(t)
	const report = "/v1/datasets/demo/report"
	s := newTestServer(t, chaosConfig(t, "stage:centrality=panic"))
	ts := httptest.NewServer(s)
	defer ts.Close()

	const n = 8
	resps := make([]chaosResp, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			resps[i] = chaosDo(t, ts, http.MethodGet, report)
		}()
	}
	wg.Wait()

	var degraded []chaosResp
	for _, r := range resps {
		if r.code != http.StatusOK {
			t.Fatalf("waiter got %d: %s", r.code, r.body)
		}
		if r.warning != "" {
			degraded = append(degraded, r)
		} else {
			assertClean(t, r, ref)
		}
	}
	if len(degraded) == 0 {
		t.Fatal("no waiter observed the panicked run")
	}
	for i, r := range degraded {
		v := assertDegraded(t, r, "centrality")
		found := false
		for _, se := range v.StageErrors {
			if se.Stage == "centrality" {
				found = true
				if !se.Panic {
					t.Fatalf("centrality entry not marked panic: %s", r.body)
				}
				if se.Stack == "" {
					t.Fatal("panic entry missing captured stack")
				}
			}
		}
		if !found {
			t.Fatal("no centrality stage_errors entry")
		}
		if !bytes.Equal(r.body, degraded[0].body) {
			t.Fatalf("degraded waiter %d body diverges from waiter 0", i)
		}
	}

	// Fault window spent: the server recovers to clean, byte-identical
	// bodies with no restart.
	assertClean(t, chaosDo(t, ts, http.MethodGet, report), ref)
	if got := s.met.degraded.Value(); got == 0 {
		t.Fatal("eliteserve_degraded_total not incremented")
	}
}

// TestChaosStageRetrySucceedsTransiently: with a per-stage retry policy, a
// rule that fails the degree stage exactly once is absorbed — the response
// is clean and the retry is invisible to the client.
func TestChaosStageRetryAbsorbsTransientFault(t *testing.T) {
	ref := referenceBody(t)
	cfg := chaosConfig(t, "stage:degree=error")
	cfg.Options.StageRetries = 2
	cfg.Options.StageRetryBackoff = time.Millisecond
	s := newTestServer(t, cfg)
	ts := httptest.NewServer(s)
	defer ts.Close()
	assertClean(t, chaosDo(t, ts, http.MethodGet, "/v1/datasets/demo/report"), ref)
	if inj := cfg.Options.Faults; inj.Fired("stage:degree") != 1 {
		t.Fatalf("fault fired %d times, want 1", inj.Fired("stage:degree"))
	}
}

// TestChaosMetricsExposition: a degraded run surfaces in /metrics as
// eliteserve_degraded_total.
func TestChaosMetricsExposition(t *testing.T) {
	s := newTestServer(t, chaosConfig(t, "stage:degree=error"))
	ts := httptest.NewServer(s)
	defer ts.Close()
	r := chaosDo(t, ts, http.MethodGet, "/v1/datasets/demo/report")
	assertDegraded(t, r, "degree")
	m := chaosDo(t, ts, http.MethodGet, "/metrics")
	if m.code != http.StatusOK {
		t.Fatalf("/metrics: %d", m.code)
	}
	if !bytes.Contains(m.body, []byte("eliteserve_degraded_total 1")) {
		t.Fatalf("exposition missing eliteserve_degraded_total 1:\n%s",
			firstMatchingLines(m.body, "eliteserve_degraded"))
	}
}

// firstMatchingLines extracts exposition lines containing substr, for
// failure messages.
func firstMatchingLines(body []byte, substr string) string {
	var out bytes.Buffer
	for _, line := range bytes.Split(body, []byte("\n")) {
		if bytes.Contains(line, []byte(substr)) {
			fmt.Fprintf(&out, "%s\n", line)
		}
	}
	return out.String()
}
