package fleet

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"elites/internal/cache"
	"elites/internal/core"
	"elites/internal/faults"
)

// newTestRouter builds a Router with fast test timings over worker URLs.
func newTestRouter(t *testing.T, cfg Config) *Router {
	t.Helper()
	if cfg.RequestTimeout == 0 {
		cfg.RequestTimeout = 10 * time.Second
	}
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = time.Hour // probes driven manually via ProbeNow
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	return rt
}

// behaviorSet maps worker host:port -> handler behavior, shared by every
// fake worker in a test so behaviors can be assigned after the rendezvous
// order is known.
type behaviorSet struct {
	mu sync.Mutex
	m  map[string]http.HandlerFunc
}

func newBehaviorSet() *behaviorSet { return &behaviorSet{m: map[string]http.HandlerFunc{}} }

func (b *behaviorSet) set(addr string, h http.HandlerFunc) {
	b.mu.Lock()
	b.m[addr] = h
	b.mu.Unlock()
}

func (b *behaviorSet) handler(w http.ResponseWriter, r *http.Request) {
	b.mu.Lock()
	h := b.m[r.Host]
	b.mu.Unlock()
	if h == nil {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintf(w, "default from %s", r.Host)
		return
	}
	h(w, r)
}

// fakeFleet spins up n fake workers over one behaviorSet.
func fakeFleet(t *testing.T, n int) (*behaviorSet, []string) {
	t.Helper()
	bs := newBehaviorSet()
	addrs := make([]string, n)
	for i := range addrs {
		ts := httptest.NewServer(http.HandlerFunc(bs.handler))
		t.Cleanup(ts.Close)
		addrs[i] = strings.TrimPrefix(ts.URL, "http://")
	}
	return bs, addrs
}

func respondText(code int, body string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(code)
		fmt.Fprint(w, body)
	}
}

// orderFor returns the router's rendezvous order for a request path.
func orderFor(rt *Router, method, target string) []*worker {
	return rendezvousOrder(rt.workers, routeOf(httptest.NewRequest(method, target, nil)).key)
}

// testIdentity is the dataset identity the fake workers below state.
const testIdentity = "00000000000000ff-0000000000000001"

// healthBody is the /healthz body of a worker of this build serving
// "demo" under identity.
func healthBody(identity string) string {
	return fmt.Sprintf(`{"status":"ok","view_version":%d,"identities":{"demo":%q}}`, core.ViewVersion, identity)
}

// identified answers /healthz with the "demo" identity a worker states,
// and every other path with a JSON body stamped with that identity, as
// eliteserve does.
func identified(identity, body string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			fmt.Fprint(w, healthBody(identity))
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("X-Elites-Identity", identity)
		fmt.Fprint(w, body)
	}
}

func doGet(rt *Router, target string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	rt.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
	return rec
}

// --- placement ---------------------------------------------------------------

// TestRendezvousStability: ranking is deterministic, spreads identities
// across workers, and removing a worker never reorders the survivors —
// the property that keeps cache identities pinned through topology churn.
func TestRendezvousStability(t *testing.T) {
	var workers []*worker
	for i := 0; i < 5; i++ {
		w, err := newWorker(fmt.Sprintf("10.0.0.%d:9000", i))
		if err != nil {
			t.Fatal(err)
		}
		workers = append(workers, w)
	}

	primaries := map[string]int{}
	for k := 0; k < 200; k++ {
		h := cache.NewHasher()
		h.String("test/key")
		h.Word(uint64(k))
		key := h.Sum()

		o1 := rendezvousOrder(workers, key)
		o2 := rendezvousOrder(workers, key)
		for i := range o1 {
			if o1[i] != o2[i] {
				t.Fatalf("key %d: order not deterministic", k)
			}
		}
		primaries[o1[0].name]++

		// Drop the primary: the survivors keep their relative order.
		survivors := make([]*worker, 0, len(workers)-1)
		for _, w := range workers {
			if w != o1[0] {
				survivors = append(survivors, w)
			}
		}
		after := rendezvousOrder(survivors, key)
		for i := range after {
			if after[i] != o1[i+1] {
				t.Fatalf("key %d: removal remapped survivors (pos %d: %s != %s)",
					k, i, after[i].name, o1[i+1].name)
			}
		}
	}
	// Placement is reasonably spread: every worker owns something.
	if len(primaries) != len(workers) {
		t.Fatalf("placement collapsed: only %d of %d workers are primaries: %v",
			len(primaries), len(workers), primaries)
	}
}

// TestIdentityKeySeparation: placement hashes the dataset id with the
// path, stage subset and format, so it is fixed before any probe. The
// stored body is named from the identity a worker stated in place of the
// id, so a result digest that changes (another seed, a codec bump) moves
// it, and with no stated identity no body is named at all.
func TestIdentityKeySeparation(t *testing.T) {
	get := func(target string) *http.Request { return httptest.NewRequest(http.MethodGet, target, nil) }
	const target = "/v1/datasets/demo/report?stages=summary"
	base := routeOf(get(target)).key
	if routeOf(get(target)).key != base {
		t.Fatal("rendezvous key not deterministic")
	}
	for _, other := range []string{
		"/v1/datasets/demo/report?stages=summary,degree",
		"/v1/datasets/demo/report?stages=summary&format=text",
		"/v1/datasets/other/report?stages=summary",
	} {
		if routeOf(get(other)).key == base {
			t.Fatalf("%s shares the rendezvous key of %s", other, target)
		}
	}

	// The stored body is named from the identity the router learned, in
	// place of the id: a result digest that changes names another entry.
	// With no learned identity, and for a POST, the dataset listing or a
	// dataset's info, there is none.
	rt := newTestRouter(t, Config{Workers: []string{"127.0.0.1:1"}, CacheDir: t.TempDir()})
	learn := func(identity string) { rt.workers[0].learn(map[string]string{"demo": identity}) }
	entry := func(r *http.Request) (string, bool) {
		b, _, ok := rt.bodyFor(routeOf(r), r, rt.workers)
		return b.Entry, ok
	}
	named := func(target string) string {
		t.Helper()
		e, ok := entry(get(target))
		if !ok {
			t.Fatalf("%s names no stored body", target)
		}
		return e
	}
	if _, ok := entry(get(target)); ok {
		t.Fatal("a body is named before any identity is learned")
	}
	learn(testIdentity)
	stated := named(target)
	if named(target) != stated {
		t.Fatal("body entry not deterministic")
	}
	if named("/v1/datasets/demo/report?stages=summary,degree") == stated ||
		named("/v1/datasets/demo/report?stages=summary&format=text") == stated {
		t.Fatal("stage subset or format does not separate body entries")
	}
	learn("00000000000000ff-0000000000000002")
	if named(target) == stated {
		t.Fatal("result digest does not separate body entries")
	}
	for _, r := range []*http.Request{
		httptest.NewRequest(http.MethodPost, target, nil),
		get("/v1/datasets"),
		get("/v1/datasets/demo"),
		get("/v1/datasets/demo/users/1"),
		get("/v1/datasets/demo/users/0/features"),
		get("/v1/datasets/demo/stages/nope"),
		get("/v1/datasets/demo/stages/summary/x"),
		get("/v1/datasets/demo/report?format=xml"),
		get("/v1/datasets/other/report"),
	} {
		if _, ok := entry(r); ok {
			t.Fatalf("%s %s names a stored body", r.Method, r.URL)
		}
	}
}

// --- worker state machine ----------------------------------------------------

func TestWorkerHealthStateMachine(t *testing.T) {
	w, err := newWorker("127.0.0.1:9001")
	if err != nil {
		t.Fatal(err)
	}
	const eject = 3

	// up -> down takes eject consecutive failures.
	for i := 0; i < eject-1; i++ {
		if ejected, _ := w.noteProbe(false, eject); ejected {
			t.Fatalf("ejected after only %d failures", i+1)
		}
	}
	if ejected, _ := w.noteProbe(false, eject); !ejected || w.available() {
		t.Fatal("not ejected at the threshold")
	}

	// down -> probation on the first healthy probe; traffic flows again.
	if _, readmitted := w.noteProbe(true, eject); !readmitted || !w.available() {
		t.Fatal("healthy probe did not readmit to probation")
	}

	// Any failure during probation goes straight back down.
	if ejected, _ := w.noteProbe(false, eject); !ejected || w.available() {
		t.Fatal("probation failure did not re-eject")
	}

	// Full recovery: readmit, then a clean streak promotes to up.
	w.noteProbe(true, eject)
	w.noteProbe(true, eject)
	w.noteProbe(true, eject)
	w.mu.Lock()
	st := w.state
	w.mu.Unlock()
	if st != stateUp {
		t.Fatalf("state after clean streak = %v, want up", st)
	}

	// A request failure during probation also re-ejects.
	w.noteProbe(false, eject)
	w.noteProbe(false, eject)
	w.noteProbe(false, eject)
	w.noteProbe(true, eject) // probation again
	w.noteRequestFailure()
	if w.available() {
		t.Fatal("request failure during probation did not re-eject")
	}
}

func TestWorkerBreaker(t *testing.T) {
	w, err := newWorker("127.0.0.1:9001")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < faults.BreakerTripAfter-1; i++ {
		if tripped := w.noteRequestFailure(); tripped {
			t.Fatalf("breaker tripped after only %d failures", i+1)
		}
	}
	if !w.noteRequestFailure() {
		t.Fatalf("breaker did not trip at %d consecutive failures", faults.BreakerTripAfter)
	}

	// While open, only every faults.BreakerProbeAfter-th selection passes.
	passed := 0
	for i := 1; i <= 2*faults.BreakerProbeAfter; i++ {
		if w.selectable() {
			passed++
			if i%faults.BreakerProbeAfter != 0 {
				t.Fatalf("selection %d passed an open breaker off-cadence", i)
			}
		}
	}
	if passed != 2 {
		t.Fatalf("%d probe selections in %d asks, want 2", passed, 2*faults.BreakerProbeAfter)
	}

	// One success closes it.
	w.noteRequestSuccess()
	if !w.selectable() {
		t.Fatal("breaker still open after a success")
	}
}

// --- routing behaviors -------------------------------------------------------

// TestRetryFailsOverToNextWorker: a 5xx from the rendezvous primary is
// retried on the next worker in hash order and feeds the primary's
// failure accounting.
func TestRetryFailsOverToNextWorker(t *testing.T) {
	bs, addrs := fakeFleet(t, 2)
	rt := newTestRouter(t, Config{Workers: addrs})

	const target = "/v1/datasets/demo/report?stages=summary"
	order := orderFor(rt, http.MethodGet, target)
	bs.set(order[0].name, respondText(http.StatusInternalServerError, `{"error":"boom"}`))
	bs.set(order[1].name, respondText(http.StatusOK, "ok from backup"))

	rec := doGet(rt, target)
	if rec.Code != http.StatusOK || rec.Body.String() != "ok from backup" {
		t.Fatalf("failover response: %d %q", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get("X-Elites-Worker"); got != order[1].name {
		t.Fatalf("served by %q, want backup %q", got, order[1].name)
	}
	retries, failovers := rt.met.retries.Value(), rt.met.failovers.Value()
	if retries != 1 || failovers != 1 {
		t.Fatalf("retries=%d failovers=%d, want 1/1", retries, failovers)
	}
	if info := order[0].info(); info.Failures != 1 {
		t.Fatalf("primary failures = %d, want 1", info.Failures)
	}
}

// TestRetryBudgetExhaustion: with every worker failing and no cached
// body, the request sheds with 503 + equal-jitter Retry-After — never a
// hung connection, never a raw 502.
func TestRetryBudgetExhaustion(t *testing.T) {
	bs, addrs := fakeFleet(t, 2)
	rt := newTestRouter(t, Config{Workers: addrs, Retries: 2})
	for _, a := range addrs {
		bs.set(a, respondText(http.StatusBadGateway, "down"))
	}

	rec := doGet(rt, "/v1/datasets/demo/report?stages=summary")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("exhausted budget: %d, want 503", rec.Code)
	}
	ra, err := strconv.Atoi(rec.Header().Get("Retry-After"))
	if err != nil || ra < 1 || ra > 2 {
		t.Fatalf("Retry-After = %q, want jittered 1..2", rec.Header().Get("Retry-After"))
	}
	shed := rt.met.shed.Value()
	if shed != 1 {
		t.Fatalf("shed = %d, want 1", shed)
	}
}

// countingHandler answers 200 and counts the requests it receives.
func countingHandler(n *atomic.Int32) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		n.Add(1)
		fmt.Fprint(w, "backup")
	}
}

// TestSlowPrimaryServesAlone: after a run of fast GETs, a GET whose
// primary is slow is still answered by the primary alone. Every body is
// a function of its identity, so no second attempt is launched while the
// first is in flight.
func TestSlowPrimaryServesAlone(t *testing.T) {
	bs, addrs := fakeFleet(t, 2)
	rt := newTestRouter(t, Config{Workers: addrs})

	const target = "/v1/datasets/demo/report?stages=summary"
	order := orderFor(rt, http.MethodGet, target)
	var backupHits atomic.Int32
	bs.set(order[1].name, countingHandler(&backupHits))
	for i := 0; i < 20; i++ {
		if rec := doGet(rt, target); rec.Code != http.StatusOK {
			t.Fatalf("fast GET %d: %d", i, rec.Code)
		}
	}
	bs.set(order[0].name, func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(200 * time.Millisecond)
		fmt.Fprint(w, "slow primary")
	})

	rec := doGet(rt, target)
	if rec.Code != http.StatusOK || rec.Body.String() != "slow primary" {
		t.Fatalf("slow primary response: %d %q", rec.Code, rec.Body.String())
	}
	if n := backupHits.Load(); n != 0 {
		t.Fatalf("backup worker received %d requests, want 0", n)
	}
	if failovers := rt.met.failovers.Value(); failovers != 0 {
		t.Fatalf("failovers = %d, want 0", failovers)
	}
}

// TestCancelledRequestNoRetry: a client that leaves mid-attempt launches
// no retry, and the worker it was waiting on is not blamed for it.
func TestCancelledRequestNoRetry(t *testing.T) {
	bs, addrs := fakeFleet(t, 2)
	rt := newTestRouter(t, Config{Workers: addrs})

	const target = "/v1/datasets/demo/report?stages=summary"
	order := orderFor(rt, http.MethodGet, target)
	arrived := make(chan struct{})
	bs.set(order[0].name, func(w http.ResponseWriter, r *http.Request) {
		close(arrived)
		<-r.Context().Done()
	})
	var backupHits atomic.Int32
	bs.set(order[1].name, countingHandler(&backupHits))

	ctx, cancel := context.WithCancel(context.Background())
	req := httptest.NewRequest(http.MethodGet, target, nil).WithContext(ctx)
	done := make(chan struct{})
	go func() {
		rt.ServeHTTP(httptest.NewRecorder(), req)
		close(done)
	}()
	<-arrived
	cancel()
	<-done

	if n := backupHits.Load(); n != 0 {
		t.Fatalf("backup worker received %d requests, want 0", n)
	}
	if retries := rt.met.retries.Value(); retries != 0 {
		t.Fatalf("retries = %d, want 0", retries)
	}
	if info := order[0].info(); info.Failures != 0 {
		t.Fatalf("primary failures = %d after a client cancel, want 0", info.Failures)
	}
}

// storeBody writes body where eliteserve stores the clean body of target
// under testIdentity, as a worker that answered it would have.
func storeBody(t *testing.T, dir, target, body string) {
	t.Helper()
	r := httptest.NewRequest(http.MethodGet, target, nil)
	rq := routeOf(r)
	b, ok := bodyOf(testIdentity, rq, r.URL.Query())
	if !ok {
		t.Fatalf("%s names no stored body", target)
	}
	c, err := cache.New(dir)
	if err != nil {
		t.Fatal(err)
	}
	c.Put(b.Entry, []byte(body))
}

// TestDegradedServesLastKnownGood: a warm GET is answered clean from the
// workers' stored body with no hop; once the fleet is gone, the same GET
// serves those exact bytes with a Warning header and a 200 — the
// acceptance bar is byte-identity, not similarity — and a GET with no
// stored body sheds.
func TestDegradedServesLastKnownGood(t *testing.T) {
	bs, addrs := fakeFleet(t, 2)
	dir := t.TempDir()
	rt := newTestRouter(t, Config{Workers: addrs, CacheDir: dir})

	const target = "/v1/datasets/demo/report?stages=summary"
	clean := `{"summary":{"nodes":400}}`
	for _, a := range addrs {
		bs.set(a, identified(testIdentity, clean))
	}
	rt.ProbeNow(context.Background())
	// The workers are fakes: store the body where eliteserve would.
	storeBody(t, dir, target, clean)
	rec := doGet(rt, target)
	if rec.Code != http.StatusOK || rec.Body.String() != clean {
		t.Fatalf("warm request: %d %q", rec.Code, rec.Body.String())
	}
	if rec.Header().Get("X-Elites-Cache") != "hit" || rec.Header().Get("X-Elites-Worker") != "" ||
		rec.Header().Get("X-Elites-Degraded") != "" || rec.Header().Get("X-Elites-Identity") != testIdentity {
		t.Fatalf("warm request headers: %v", rec.Header())
	}
	if hits := rt.met.bodyHits.Value(); hits != 1 {
		t.Fatalf("body hits = %d, want 1", hits)
	}

	// The fleet dies, and the prober ejects it.
	for _, a := range addrs {
		bs.set(a, respondText(http.StatusInternalServerError, "dead"))
	}
	for i := 0; i < 3; i++ {
		rt.ProbeNow(context.Background())
	}
	rec = doGet(rt, target)
	if rec.Code != http.StatusOK {
		t.Fatalf("degraded request: %d, want 200", rec.Code)
	}
	if rec.Body.String() != clean {
		t.Fatalf("degraded body %q not byte-identical to clean body %q", rec.Body.String(), clean)
	}
	if rec.Header().Get("X-Elites-Degraded") != "true" ||
		!strings.Contains(rec.Header().Get("Warning"), "last-known-good") {
		t.Fatalf("degraded markers missing: %v", rec.Header())
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("degraded Content-Type = %q", ct)
	}
	if rec.Header().Get("X-Elites-Cache") != "" {
		t.Fatalf("degraded response claims a clean cache hit: %v", rec.Header())
	}
	degraded, shed := rt.met.degraded.Value(), rt.met.shed.Value()
	if degraded != 1 || shed != 0 {
		t.Fatalf("degraded=%d shed=%d, want 1/0", degraded, shed)
	}

	rec2 := doGet(rt, target)
	if rec2.Code != http.StatusOK || rec2.Body.String() != clean {
		t.Fatalf("second degraded read: %d %q", rec2.Code, rec2.Body.String())
	}
	if rec := doGet(rt, "/v1/datasets/demo/report?stages=degree"); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("degraded request with no stored body: %d, want 503", rec.Code)
	}
}

// TestJobsScatter: job lookups are routed by job id, and a 404 (the job
// lives on another worker after topology churn) scatters to the next
// worker without feeding the failure machinery.
func TestJobsScatter(t *testing.T) {
	bs, addrs := fakeFleet(t, 2)
	rt := newTestRouter(t, Config{Workers: addrs})

	const target = "/v1/jobs/abc123"
	order := orderFor(rt, http.MethodGet, target)
	bs.set(order[0].name, respondText(http.StatusNotFound, `{"error":"unknown job"}`))
	bs.set(order[1].name, respondText(http.StatusOK, `{"state":"done"}`))

	rec := doGet(rt, target)
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "done") {
		t.Fatalf("scattered job lookup: %d %q", rec.Code, rec.Body.String())
	}
	if info := order[0].info(); info.Failures != 0 {
		t.Fatalf("scatter 404 counted as a worker failure: %+v", info)
	}
	retries := rt.met.retries.Value()
	if retries != 0 {
		t.Fatalf("scatter counted as a retry: %d", retries)
	}

	// Nobody has the job: the 404 stands (it is an answer, not a fault).
	bs.set(order[1].name, respondText(http.StatusNotFound, `{"error":"unknown job"}`))
	if rec := doGet(rt, target); rec.Code != http.StatusNotFound {
		t.Fatalf("exhausted scatter: %d, want 404", rec.Code)
	}
}

// --- health probing ----------------------------------------------------------

// healthToggle is a fake worker health surface with a flippable state.
type healthToggle struct {
	mu      sync.Mutex
	healthy map[string]bool
}

func (h *healthToggle) handler(w http.ResponseWriter, r *http.Request) {
	h.mu.Lock()
	ok := h.healthy[r.Host]
	h.mu.Unlock()
	switch {
	case r.URL.Path == "/healthz" && ok:
		fmt.Fprint(w, healthBody(testIdentity))
	case r.URL.Path == "/healthz":
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprint(w, `{"status":"draining"}`)
	default:
		w.WriteHeader(http.StatusOK)
	}
}

func (h *healthToggle) set(addr string, ok bool) {
	h.mu.Lock()
	h.healthy[addr] = ok
	h.mu.Unlock()
}

// TestProbeEjectionAndReadmission walks the full health cycle: eject
// after consecutive probe failures, readmit to probation on recovery,
// promote to up after a clean streak — with the transitions visible in
// /metrics and /fleet/workers.
func TestProbeEjectionAndReadmission(t *testing.T) {
	ht := &healthToggle{healthy: map[string]bool{}}
	ts1 := httptest.NewServer(http.HandlerFunc(ht.handler))
	ts2 := httptest.NewServer(http.HandlerFunc(ht.handler))
	t.Cleanup(ts1.Close)
	t.Cleanup(ts2.Close)
	a1 := strings.TrimPrefix(ts1.URL, "http://")
	a2 := strings.TrimPrefix(ts2.URL, "http://")
	ht.set(a1, true)
	ht.set(a2, true)

	rt := newTestRouter(t, Config{Workers: []string{a1, a2}, EjectAfter: 3})
	ctx := context.Background()

	rt.ProbeNow(ctx)
	if learned := rt.workers[0].identityOf("demo"); learned != testIdentity {
		t.Fatalf("identity learning: got %q, want %q", learned, testIdentity)
	}

	// Worker 2 turns unhealthy (e.g. draining): three probe failures eject.
	ht.set(a2, false)
	for i := 0; i < 3; i++ {
		rt.ProbeNow(ctx)
	}
	var w2 *worker
	for _, w := range rt.workers {
		if w.name == a2 {
			w2 = w
		}
	}
	if w2.available() {
		t.Fatal("unhealthy worker not ejected after 3 probe failures")
	}
	rec := doGet(rt, "/metrics")
	body := rec.Body.String()
	if !strings.Contains(body, fmt.Sprintf("eliterouter_worker_up{worker=%q} 0", a2)) ||
		!strings.Contains(body, "eliterouter_workers_available 1") {
		t.Fatalf("metrics do not show the ejection:\n%s", body)
	}

	// Recovery: first healthy probe readmits (traffic flows, probation),
	// two more promote to up.
	ht.set(a2, true)
	rt.ProbeNow(ctx)
	if !w2.available() {
		t.Fatal("healthy probe did not readmit")
	}
	if st := w2.info().State; st != "probation" {
		t.Fatalf("state after readmission = %q, want probation", st)
	}
	rt.ProbeNow(ctx)
	rt.ProbeNow(ctx)
	if st := w2.info().State; st != "up" {
		t.Fatalf("state after clean streak = %q, want up", st)
	}
	if !strings.Contains(doGet(rt, "/metrics").Body.String(), "eliterouter_readmissions_total 1") {
		t.Fatal("readmission not counted")
	}
}

// TestProbeReadsBoundedHealthBody: the status code alone decides health,
// and identities are learned only from a /healthz body that decodes within
// maxHealthBody bytes and states the router's view version. Each healthy
// probe replaces what the worker lists.
func TestProbeReadsBoundedHealthBody(t *testing.T) {
	bs, addrs := fakeFleet(t, 1)
	rt := newTestRouter(t, Config{Workers: addrs, EjectAfter: 1})
	wk := rt.workers[0]
	probe := func(body string) string {
		t.Helper()
		bs.set(addrs[0], func(w http.ResponseWriter, r *http.Request) { fmt.Fprint(w, body) })
		rt.ProbeNow(context.Background())
		if !wk.available() {
			t.Fatalf("a 200 ejected the worker: %.80s", body)
		}
		return wk.identityOf("demo")
	}
	pad := strings.Repeat("x", maxHealthBody)
	if got := probe(fmt.Sprintf(`{"view_version":%d,"identities":{"demo":%q},"pad":%q}`, core.ViewVersion, testIdentity, pad)); got != "" {
		t.Fatalf("learned %q from an over-limit body", got)
	}
	if got := probe(healthBody(testIdentity)); got != testIdentity {
		t.Fatalf("learned %q from a body within the limit", got)
	}
	if got := probe(fmt.Sprintf(`{"view_version":%d,"identities":{"demo":%q}}`, core.ViewVersion+1, testIdentity)); got != "" {
		t.Fatalf("learned %q from a worker at another view version", got)
	}
	probe(healthBody(testIdentity))
	if got := probe(fmt.Sprintf(`{"view_version":%d,"identities":{}}`, core.ViewVersion)); got != "" {
		t.Fatalf("kept %q after a probe that no longer lists the dataset", got)
	}
}

// TestIdentitiesUnderConcurrentProbes: probe rounds replace what each
// worker lists while GETs read it. The workers alternate between listing
// the dataset and not, so every GET is either the stored body as a hit
// or the worker's own answer, never anything else. Run under -race.
func TestIdentitiesUnderConcurrentProbes(t *testing.T) {
	bs, addrs := fakeFleet(t, 2)
	dir := t.TempDir()
	rt := newTestRouter(t, Config{Workers: addrs, CacheDir: dir})
	const target = "/v1/datasets/demo/report?stages=summary"
	storeBody(t, dir, target, "stored")
	var probes atomic.Int64
	for _, a := range addrs {
		bs.set(a, func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path != "/healthz" {
				fmt.Fprint(w, "proxied")
				return
			}
			if probes.Add(1)%2 == 0 {
				fmt.Fprint(w, healthBody(testIdentity))
				return
			}
			fmt.Fprintf(w, `{"status":"ok","view_version":%d,"identities":{}}`, core.ViewVersion)
		})
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			rt.ProbeNow(context.Background())
		}
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				rec := doGet(rt, target)
				hit := rec.Header().Get("X-Elites-Cache") == "hit"
				if body := rec.Body.String(); rec.Code != http.StatusOK || (hit && body != "stored") || (!hit && body != "proxied") {
					t.Errorf("GET %d: %d hit=%v %q", i, rec.Code, hit, body)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestDownWorkerReceivesNoTraffic: requests for an identity whose primary
// is down go straight to the backup, with no retry spent.
func TestDownWorkerReceivesNoTraffic(t *testing.T) {
	bs, addrs := fakeFleet(t, 2)
	rt := newTestRouter(t, Config{Workers: addrs, EjectAfter: 1})

	const target = "/v1/datasets/demo/report?stages=summary"
	order := orderFor(rt, http.MethodGet, target)
	bs.set(order[0].name, respondText(http.StatusOK, "primary"))
	bs.set(order[1].name, respondText(http.StatusOK, "backup"))

	// Mark the primary down directly (the prober's job).
	order[0].noteProbe(false, 1)
	if order[0].available() {
		t.Fatal("setup: primary should be down")
	}
	rec := doGet(rt, target)
	if rec.Code != http.StatusOK || rec.Body.String() != "backup" {
		t.Fatalf("down-primary routing: %d %q", rec.Code, rec.Body.String())
	}
	retries := rt.met.retries.Value()
	if retries != 0 {
		t.Fatalf("skipping a down worker burned %d retries", retries)
	}
	// Served by a worker other than the rendezvous primary: a failover,
	// although the backup was the first candidate.
	if failovers := rt.met.failovers.Value(); failovers != 1 {
		t.Fatalf("failovers = %d, want 1", failovers)
	}
	if info := order[0].info(); info.Requests != 0 {
		t.Fatalf("down worker still saw %d requests", info.Requests)
	}
}
