package fleet

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"elites/internal/core"
	"elites/internal/faults"
	"elites/internal/serve"
)

// chaos_test.go is the fleet's end-to-end chaos drill: a router fronting
// two REAL serve.Servers (full pipeline, shared result cache) under
// deterministic network faults — injected latency, connection drops and
// 5xx bursts — with one worker killed outright mid-load. The acceptance
// bar: a 200-request load completes with zero 5xx responses, every
// degraded body is byte-identical to a worker's own non-degraded body for
// the same identity, and the failover/retry/breaker counters are visible
// in /metrics. Run under -race by the chaos CI job.

// newChaosWorker builds one real serving stack over a small generated
// dataset. Both workers generate from the same seed and share cacheDir,
// so their bodies are byte-identical and warm requests hydrate from the
// shared content-addressed cache.
func newChaosWorker(t *testing.T, cacheDir string) (*httptest.Server, string) {
	t.Helper()
	s := serve.New(serve.Config{
		Options: core.Options{
			DistanceSources:    20,
			BetweennessSources: 8,
			EigenK:             8,
			BootstrapReps:      3,
			Seed:               7,
			CacheDir:           cacheDir,
		},
		MaxConcurrent: 2,
		MaxQueue:      64,
	})
	if err := s.RegisterGenerated("demo", "verified", 300, 11); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return ts, strings.TrimPrefix(ts.URL, "http://")
}

func TestChaosFleetLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos drill runs full pipelines; skipped in -short")
	}
	cacheDir := t.TempDir()
	tsA, addrA := newChaosWorker(t, cacheDir)
	_, addrB := newChaosWorker(t, cacheDir)

	// The identities under load: report classes (the coalescer/cache
	// identity the fleet hashes on) plus cheap reads.
	targets := []string{
		"/v1/datasets/demo/report?stages=summary",
		"/v1/datasets/demo/report?stages=summary,degree",
		"/v1/datasets/demo/report?stages=summary&format=text",
		"/v1/datasets/demo",
		"/v1/datasets",
	}

	// Baselines: each worker's own non-degraded body, fetched directly
	// (no router, no faults). Also verifies the two workers agree byte
	// for byte, which is what makes failover invisible to clients.
	baseline := map[string][]byte{}
	for _, target := range targets {
		bodyA := directGet(t, tsA.URL+target)
		baseline[target] = bodyA
	}

	// Deterministic network chaos, every mechanism at once:
	//   - worker A's connections drop for a burst mid-load,
	//   - a fleet-wide 5xx burst later on,
	//   - probabilistic added latency throughout.
	spec := fmt.Sprintf("net:%s=drop:times=8:after=10,net:*=5xx:times=5:after=60,net:*=slow:delay=200us:p=0.2", addrA)
	inj, err := faults.Parse(spec, 1)
	if err != nil {
		t.Fatal(err)
	}

	rt, err := New(Config{
		Workers:        []string{addrA, addrB},
		ProbeInterval:  time.Hour, // probes driven manually
		EjectAfter:     3,
		Retries:        2,
		RequestTimeout: 60 * time.Second,
		CacheDir:       cacheDir,
		Faults:         inj,
		Seed:           42,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	rt.ProbeNow(context.Background())

	front := httptest.NewServer(rt)
	defer front.Close()

	const load = 200
	const killAt = 90 // worker A dies mid-load
	degradedSeen := 0
	for i := 0; i < load; i++ {
		if i == killAt {
			tsA.Close()
			// The prober notices within EjectAfter rounds; in production
			// this is EjectAfter*ProbeInterval of wall clock.
			for p := 0; p < 3; p++ {
				rt.ProbeNow(context.Background())
			}
		}
		target := targets[i%len(targets)]
		resp, err := front.Client().Get(front.URL + target)
		if err != nil {
			t.Fatalf("request %d (%s): %v", i, target, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("request %d (%s): reading body: %v", i, target, err)
		}
		if resp.StatusCode >= 500 {
			t.Fatalf("request %d (%s): %d leaked through the degradation ladder\n%s",
				i, target, resp.StatusCode, body)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d (%s): %d, want 200", i, target, resp.StatusCode)
		}
		if resp.Header.Get("X-Elites-Degraded") == "true" {
			degradedSeen++
			if !strings.Contains(resp.Header.Get("Warning"), "last-known-good") {
				t.Fatalf("request %d: degraded response without Warning header", i)
			}
		}
		// Degraded or not, every body must be byte-identical to the
		// worker's own non-degraded body for the identity: degraded reads
		// serve recorded clean bytes, healthy reads hydrate the shared
		// cache, and the two workers generate identical datasets.
		if !bytes.Equal(body, baseline[target]) {
			t.Fatalf("request %d (%s): body diverged from baseline (degraded=%v)\n got %d bytes, want %d",
				i, target, resp.Header.Get("X-Elites-Degraded") == "true", len(body), len(baseline[target]))
		}
	}

	// The chaos must actually have exercised the machinery.
	retries, failovers, shed := rt.met.retries.Value(), rt.met.failovers.Value(), rt.met.shed.Value()
	if shed != 0 {
		t.Fatalf("%d requests shed: the last-known-good floor has holes", shed)
	}
	if retries == 0 || failovers == 0 {
		t.Fatalf("chaos did not engage the ladder: retries=%d failovers=%d", retries, failovers)
	}

	// And the fleet view tells the story: A down, B carrying the load,
	// counters exposed.
	resp, err := front.Client().Get(front.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		fmt.Sprintf("eliterouter_worker_up{worker=%q} 0", addrA),
		fmt.Sprintf("eliterouter_worker_up{worker=%q} 1", addrB),
		"eliterouter_workers_available 1",
		"eliterouter_retries_total",
		"eliterouter_failovers_total",
		"eliterouter_breaker_trips_total",
		"eliterouter_ejections_total 1",
	} {
		if !strings.Contains(string(metrics), want) {
			t.Fatalf("metrics missing %q:\n%s", want, metrics)
		}
	}
	t.Logf("chaos drill: %d requests, %d retries, %d failovers, %d degraded, 0 shed",
		load, retries, failovers, degradedSeen)
}

// TestChaosWorkerDrainFailover: draining a worker (the fleet's graceful
// removal path) turns its health surface red; the prober ejects it and
// traffic fails over with zero errors.
func TestChaosWorkerDrainFailover(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full pipelines; skipped in -short")
	}
	cacheDir := t.TempDir()
	tsA, addrA := newChaosWorker(t, cacheDir)
	_, addrB := newChaosWorker(t, cacheDir)

	rt, err := New(Config{
		Workers:        []string{addrA, addrB},
		ProbeInterval:  time.Hour,
		EjectAfter:     3,
		Retries:        2,
		RequestTimeout: 60 * time.Second,
		CacheDir:       cacheDir,
		Seed:           42,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	const target = "/v1/datasets/demo/report?stages=summary"
	want := directGet(t, tsA.URL+target)

	rec := doGet(rt, target)
	if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want) {
		t.Fatalf("pre-drain request: %d", rec.Code)
	}

	// Drain A: its healthz turns 503 and the prober ejects it.
	resp, err := http.Post(tsA.URL+"/v1/admin/drain", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	for i := 0; i < 3; i++ {
		rt.ProbeNow(context.Background())
	}
	for _, w := range rt.workers {
		if w.name == addrA && w.available() {
			t.Fatal("drained worker not ejected")
		}
	}

	// Every identity still serves, now from B, byte-identical.
	for i := 0; i < 10; i++ {
		rec := doGet(rt, target)
		if rec.Code != http.StatusOK {
			t.Fatalf("post-drain request %d: %d", i, rec.Code)
		}
		if !bytes.Equal(rec.Body.Bytes(), want) {
			t.Fatalf("post-drain body diverged on request %d", i)
		}
		if got := rec.Header().Get("X-Elites-Worker"); got != addrB {
			t.Fatalf("post-drain request %d served by %q, want %q", i, got, addrB)
		}
	}
}

// restartableWorker is one worker address whose eliteserve process can be
// replaced — a restart with other options over the same cache dir — and
// whose dataset requests can be made to fail while /healthz stays up.
type restartableWorker struct {
	srv  atomic.Pointer[serve.Server]
	fail atomic.Bool
}

func (rw *restartableWorker) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if rw.fail.Load() && r.URL.Path != "/healthz" {
		http.Error(w, "worker failing", http.StatusInternalServerError)
		return
	}
	rw.srv.Load().ServeHTTP(w, r)
}

// start replaces the worker with a fresh eliteserve at seed over cacheDir.
func (rw *restartableWorker) start(t *testing.T, cacheDir string, seed uint64) {
	t.Helper()
	s := serve.New(serve.Config{Options: core.Options{
		DistanceSources: 20, BetweennessSources: 8, EigenK: 8, BootstrapReps: 3,
		Seed: seed, CacheDir: cacheDir,
	}})
	if err := s.RegisterGenerated("demo", "verified", 300, 11); err != nil {
		t.Fatal(err)
	}
	rw.srv.Store(s)
}

// TestLastKnownGoodFollowsWorkerIdentity runs real workers over one cache
// dir. A last-known-good body is stored under the identity the worker
// stated and read only under the identity the router learned from
// /healthz, so (a) a worker restarted with another seed is never answered
// with the old seed's body, and (b) a body a fresh router stored before
// its first probe is the one it serves once the probe has run.
func TestLastKnownGoodFollowsWorkerIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full pipelines; skipped in -short")
	}
	// distances samples its BFS sources by seed, so its body names the run.
	const target = "/v1/datasets/demo/report?stages=distances"
	ctx := context.Background()
	setup := func(t *testing.T) (*restartableWorker, string, string) {
		dir := t.TempDir()
		rw := &restartableWorker{}
		rw.start(t, dir, 42)
		ts := httptest.NewServer(rw)
		t.Cleanup(ts.Close)
		return rw, strings.TrimPrefix(ts.URL, "http://"), dir
	}

	t.Run("restart with another seed", func(t *testing.T) {
		rw, addr, dir := setup(t)
		rt := newTestRouter(t, Config{Workers: []string{addr}, CacheDir: dir})
		rt.ProbeNow(ctx)
		rec := doGet(rt, target)
		if rec.Code != http.StatusOK {
			t.Fatalf("seed 42 GET: %d", rec.Code)
		}
		seed42 := rec.Body.Bytes()

		rw.start(t, dir, 43)
		direct := httptest.NewRecorder()
		rw.ServeHTTP(direct, httptest.NewRequest(http.MethodGet, target, nil))
		if direct.Code != http.StatusOK || bytes.Equal(direct.Body.Bytes(), seed42) {
			t.Fatalf("setup: the seed 43 body must differ from the seed 42 body (status %d)", direct.Code)
		}
		rt.ProbeNow(ctx)
		rw.fail.Store(true)
		rec = doGet(rt, target)
		if bytes.Equal(rec.Body.Bytes(), seed42) {
			t.Fatal("router answered a seed 43 worker with the seed 42 body")
		}
		if rec.Code != http.StatusServiceUnavailable {
			t.Fatalf("every attempt failing with no body for the seed 43 identity: %d, want 503", rec.Code)
		}
	})

	t.Run("fresh router before its first probe", func(t *testing.T) {
		rw, addr, dir := setup(t)
		rt := newTestRouter(t, Config{Workers: []string{addr}, CacheDir: dir})
		rec := doGet(rt, target)
		if rec.Code != http.StatusOK {
			t.Fatalf("clean GET: %d", rec.Code)
		}
		clean, identity := rec.Body.Bytes(), rec.Header().Get("X-Elites-Identity")
		if identity == "" {
			t.Fatal("the router did not pass on the worker's X-Elites-Identity")
		}
		rt.ProbeNow(ctx)
		rw.fail.Store(true)
		rec = doGet(rt, target)
		if rec.Code != http.StatusOK || rec.Header().Get("X-Elites-Degraded") != "true" ||
			!bytes.Equal(rec.Body.Bytes(), clean) {
			t.Fatalf("degraded GET: %d %v, want the clean body from last-known-good", rec.Code, rec.Header())
		}
		if got := rec.Header().Get("X-Elites-Identity"); got != identity {
			t.Fatalf("degraded GET names identity %q, want %q", got, identity)
		}
	})
}

func directGet(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d", url, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body
}
