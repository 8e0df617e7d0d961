package fleet

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
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
// bar: in a 200-request load every GET of a stored body answers 200, the
// dataset listing and info (which have no stored body, so no degraded
// floor) answer 200 or shed with 503 and Retry-After, every body is
// byte-identical to a worker's own non-degraded body for the same
// identity, and the failover/retry/breaker counters are visible in
// /metrics. Once the second worker dies too, every stored body is still
// served, degraded. Run under -race by the chaos CI job.

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
	tsB, addrB := newChaosWorker(t, cacheDir)

	// The identities under load: report classes (the coalescer/cache
	// identity the fleet hashes on) plus cheap reads.
	targets := []string{
		"/v1/datasets/demo/report?stages=summary",
		"/v1/datasets/demo/report?stages=summary,degree",
		"/v1/datasets/demo/report?stages=summary&format=text",
		"/v1/datasets/demo",
		"/v1/datasets",
	}
	noFloor := map[string]bool{"/v1/datasets/demo": true, "/v1/datasets": true}

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
	//   - a fleet-wide 5xx burst mid-load, while both workers are up,
	//   - probabilistic added latency throughout.
	// The reports' bodies are stored, so only the listing and dataset info
	// reach a worker: at least 38 transport calls (the first probe round
	// and 36 of the 90 requests) come before the kill, so the burst's
	// calls 21-25 land while a second worker can take the retry.
	spec := fmt.Sprintf("net:%s=drop:times=8:after=10,net:*=5xx:times=5:after=20,net:*=slow:delay=200us:p=0.2", addrA)
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
	degradedSeen, shedSeen := 0, 0
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
		if noFloor[target] && resp.StatusCode == http.StatusServiceUnavailable && resp.Header.Get("Retry-After") != "" {
			shedSeen++
			continue
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
	if shed != uint64(shedSeen) {
		t.Fatalf("%d requests shed, %d of them with a stored body: the degraded floor has holes", shed, shed-uint64(shedSeen))
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

	// B dies too: every stored body is still served, degraded and byte
	// for byte; the listing and dataset info shed.
	tsB.Close()
	for p := 0; p < 3; p++ {
		rt.ProbeNow(context.Background())
	}
	for _, target := range targets {
		rec := doGet(rt, target)
		switch {
		case noFloor[target]:
			if rec.Code != http.StatusServiceUnavailable || rec.Header().Get("Retry-After") == "" {
				t.Fatalf("%s with no worker: %d %v, want 503 with Retry-After", target, rec.Code, rec.Header())
			}
		case rec.Code != http.StatusOK || rec.Header().Get("X-Elites-Degraded") != "true" ||
			!bytes.Equal(rec.Body.Bytes(), baseline[target]):
			t.Fatalf("%s with no worker: %d %v, want the baseline body degraded", target, rec.Code, rec.Header())
		}
	}
	t.Logf("chaos drill: %d requests, %d retries, %d failovers, %d degraded, %d shed",
		load, retries, failovers, degradedSeen, shedSeen)
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

	// No CacheDir: every request is proxied, so each one shows which
	// worker served it.
	rt, err := New(Config{
		Workers:        []string{addrA, addrB},
		ProbeInterval:  time.Hour,
		EjectAfter:     3,
		Retries:        2,
		RequestTimeout: 60 * time.Second,
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
// dir. The router names a stored body only under the identity a worker
// listed at its last healthy probe, so (a) a worker restarted with another
// seed is never answered with the old seed's body, (b) a worker restarted
// without the dataset answers 404 through the router, not the stored body,
// and (c) a body a worker stored before the router's first probe is the
// one it serves once the probe has run.
func TestLastKnownGoodFollowsWorkerIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full pipelines; skipped in -short")
	}
	// distances samples its BFS sources by seed, so its body names the run.
	const target = "/v1/datasets/demo/report?stages=distances"
	ctx := context.Background()
	setup := func(t *testing.T) (*restartableWorker, *httptest.Server, string) {
		dir := t.TempDir()
		rw := &restartableWorker{}
		rw.start(t, dir, 42)
		ts := httptest.NewServer(rw)
		t.Cleanup(ts.Close)
		return rw, ts, dir
	}
	addr := func(ts *httptest.Server) string { return strings.TrimPrefix(ts.URL, "http://") }

	t.Run("restart with another seed", func(t *testing.T) {
		rw, ts, dir := setup(t)
		rt := newTestRouter(t, Config{Workers: []string{addr(ts)}, CacheDir: dir})
		rt.ProbeNow(ctx)
		rec := doGet(rt, target)
		if rec.Code != http.StatusOK {
			t.Fatalf("seed 42 GET: %d", rec.Code)
		}
		seed42 := rec.Body.Bytes()

		// The seed 43 body, from a worker over another dir, so that no
		// seed 43 body is stored in the router's.
		other := &restartableWorker{}
		other.start(t, t.TempDir(), 43)
		direct := httptest.NewRecorder()
		other.ServeHTTP(direct, httptest.NewRequest(http.MethodGet, target, nil))
		if direct.Code != http.StatusOK || bytes.Equal(direct.Body.Bytes(), seed42) {
			t.Fatalf("setup: the seed 43 body must differ from the seed 42 body (status %d)", direct.Code)
		}
		rw.start(t, dir, 43)
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

	t.Run("restart without the dataset", func(t *testing.T) {
		rw, ts, dir := setup(t)
		rt := newTestRouter(t, Config{Workers: []string{addr(ts)}, CacheDir: dir})
		rt.ProbeNow(ctx)
		if rec := doGet(rt, target); rec.Code != http.StatusOK {
			t.Fatalf("cold GET: %d", rec.Code)
		}
		if rec := doGet(rt, target); rec.Code != http.StatusOK || rec.Header().Get("X-Elites-Cache") != "hit" {
			t.Fatalf("warm GET: %d %v, want a hit", rec.Code, rec.Header())
		}
		rw.srv.Store(serve.New(serve.Config{Options: core.Options{Seed: 42, CacheDir: dir}}))
		rt.ProbeNow(ctx)
		rec := doGet(rt, target)
		if rec.Code != http.StatusNotFound || rec.Header().Get("X-Elites-Cache") != "" {
			t.Fatalf("GET of a withdrawn dataset: %d %v, want the worker's 404", rec.Code, rec.Header())
		}
	})

	t.Run("fresh router before its first probe", func(t *testing.T) {
		_, ts, dir := setup(t)
		rt := newTestRouter(t, Config{Workers: []string{addr(ts)}, CacheDir: dir})
		rec := doGet(rt, target)
		if rec.Code != http.StatusOK {
			t.Fatalf("clean GET: %d", rec.Code)
		}
		clean, identity := rec.Body.Bytes(), rec.Header().Get("X-Elites-Identity")
		if identity == "" {
			t.Fatal("the router did not pass on the worker's X-Elites-Identity")
		}
		rt.ProbeNow(ctx)
		// The worker dies and is ejected: with no worker to answer, the
		// stored body is served degraded.
		ts.Close()
		for i := 0; i < 3; i++ {
			rt.ProbeNow(ctx)
		}
		rec = doGet(rt, target)
		if rec.Code != http.StatusOK || rec.Header().Get("X-Elites-Degraded") != "true" ||
			!bytes.Equal(rec.Body.Bytes(), clean) {
			t.Fatalf("degraded GET: %d %v, want the clean body degraded", rec.Code, rec.Header())
		}
		if got := rec.Header().Get("X-Elites-Identity"); got != identity {
			t.Fatalf("degraded GET names identity %q, want %q", got, identity)
		}
	})
}

// TestRouterReadsServeBodyEntries runs one real worker and a router over
// one cache dir. For each kind of stored body, the worker's clean GET (or
// users:batch POST) writes exactly one body entry, and it is the one the
// router names; the same request through the router then returns the
// same bytes from it with the worker failing, clean while the worker is
// selectable and degraded once it is ejected. The dir ends with one file
// per body.
func TestRouterReadsServeBodyEntries(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full pipelines; skipped in -short")
	}
	ctx := context.Background()
	dir := t.TempDir()
	rw := &restartableWorker{}
	rw.start(t, dir, 42)
	ts := httptest.NewServer(rw)
	defer ts.Close()
	rt := newTestRouter(t, Config{Workers: []string{strings.TrimPrefix(ts.URL, "http://")}, CacheDir: dir})
	rt.ProbeNow(ctx)

	entries := func() map[string]bool {
		t.Helper()
		names, err := filepath.Glob(filepath.Join(dir, "body-v*.bin"))
		if err != nil {
			t.Fatal(err)
		}
		set := map[string]bool{}
		for _, n := range names {
			set[strings.TrimSuffix(filepath.Base(n), ".bin")] = true
		}
		return set
	}
	type request struct{ target, data string }
	targets := []request{
		{"/v1/datasets/demo/report?stages=degree,summary", ""},
		{"/v1/datasets/demo/report?format=text", ""},
		{"/v1/datasets/demo/stages/components", ""},
		{"/v1/datasets/demo/users/007/features", ""},
		{"/v1/datasets/demo/users:batch", `{"ranks":[3,1,2]}`},
	}
	clean := map[request][]byte{}
	for _, q := range targets {
		before := entries()
		rec := doRequest(rt, q.target, q.data)
		if rec.Code != http.StatusOK || rec.Header().Get("X-Elites-Cache") != "" {
			t.Fatalf("%v: cold request %d %v, want a proxied 200", q, rec.Code, rec.Header())
		}
		clean[q] = rec.Body.Bytes()
		var wrote []string
		for e := range entries() {
			if !before[e] {
				wrote = append(wrote, e)
			}
		}
		req := newRequest(q.target, q.data)
		b, _, ok := rt.bodyFor(routeOf(req), req, []byte(q.data), rt.workers)
		if !ok || len(wrote) != 1 || wrote[0] != b.Entry {
			t.Fatalf("%v: the worker wrote %v, the router names %q (ok %v)", q, wrote, b.Entry, ok)
		}
	}

	// A rank outside the dataset is never stored: the router names its
	// entry, misses, and passes on the worker's 400.
	before := len(entries())
	for range 2 {
		rec := doRequest(rt, "/v1/datasets/demo/users:batch", `{"ranks":[1,999999]}`)
		if rec.Code != http.StatusBadRequest || rec.Header().Get("X-Elites-Cache") != "" || len(entries()) != before {
			t.Fatalf("out-of-range batch: %d %v, want the worker's 400 and no entry", rec.Code, rec.Header())
		}
	}

	rw.fail.Store(true)
	for _, q := range targets {
		rec := doRequest(rt, q.target, q.data)
		if rec.Code != http.StatusOK || rec.Header().Get("X-Elites-Cache") != "hit" ||
			rec.Header().Get("X-Elites-Degraded") != "" || !bytes.Equal(rec.Body.Bytes(), clean[q]) {
			t.Fatalf("%v: warm request %d %v, want the clean bytes as a hit", q, rec.Code, rec.Header())
		}
	}

	ts.Close()
	for i := 0; i < 3; i++ {
		rt.ProbeNow(ctx)
	}
	for _, q := range targets {
		rec := doRequest(rt, q.target, q.data)
		if rec.Code != http.StatusOK || rec.Header().Get("X-Elites-Degraded") != "true" ||
			!bytes.Equal(rec.Body.Bytes(), clean[q]) {
			t.Fatalf("%v: degraded request %d %v, want the clean bytes degraded", q, rec.Code, rec.Header())
		}
	}
	if n := len(entries()); n != len(targets) {
		t.Fatalf("%d body entries for %d bodies", n, len(targets))
	}
	if lkg, _ := filepath.Glob(filepath.Join(dir, "routerlkg-*")); len(lkg) != 0 {
		t.Fatalf("router copies in the cache dir: %v", lkg)
	}
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
