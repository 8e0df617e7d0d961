// Package fleet is the coordination layer that turns a set of eliteserve
// replicas into one fault-tolerant characterization service. The router
// rendezvous-hashes each request — dataset id, path, stage subset and
// format — onto a stable worker order, so repeated requests for one
// identity land on one replica and its single-flight coalescing works
// fleet-wide, while a worker leaving never remaps identities between the
// survivors. Which run a body came from is the workers' to say: each
// dataset response names its identity (dataset digest and core result
// digest) in X-Elites-Identity, and /healthz lists them.
//
// The workers store every clean body in their result cache under the
// entry core names for the request and its identity. A router over the
// same cache directory names the same entry from the identity the worker
// a request would reach lists in /healthz, so a warm GET is answered from
// that entry with no hop (X-Elites-Cache: hit), and a miss or a failed
// checksum is proxied.
//
// Around that placement sits a degradation ladder, crossed one rung at a
// time as failures accumulate:
//
//  1. Retry: a failed attempt (transport error, injected drop, 5xx) is
//     retried on the next worker in hash order, under a budget, with
//     equal-jitter exponential backoff between attempts.
//  2. Breaker: per-worker consecutive failures trip a faults.Breaker,
//     the same breaker as the result cache's disk tier; an open breaker
//     skips the worker except for a periodic pass-through probe.
//  3. Eject: the health prober marks a worker down after consecutive
//     failed /healthz probes; it rejoins through a probation period where
//     any failure sends it straight back down.
//  4. Degrade: when every attempt fails — all replicas down or the budget
//     exhausted — the router serves the workers' stored body for the
//     identity it learned from their /healthz, verbatim, with a Warning
//     header, rather than a 502: a degraded body is a clean body.
//
// At most one attempt is in flight per request: every body is a fixed
// function of its identity, so a speculative second attempt could only
// repeat the primary's work, never fetch a better answer.
//
// Only when there is no worker and no cached body does a request shed
// with 503 and a jittered Retry-After. Every rung is visible in
// /metrics (eliterouter_retries_total, _failovers_total,
// _breaker_trips_total, _degraded_total, _shed_total, _body_hits_total,
// _worker_up).
package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"

	"elites/internal/cache"
	"elites/internal/core"
	"elites/internal/faults"
	"elites/internal/obs"
)

const (
	// maxRequestBody bounds the buffered client body (re-sent on every
	// retry).
	maxRequestBody = 8 << 20
	// maxResponseBody bounds a buffered worker response.
	maxResponseBody = 64 << 20
	// backoffBase doubles per retry up to backoffLimit, before jitter.
	backoffBase  = 25 * time.Millisecond
	backoffLimit = time.Second
)

// Config configures a Router. Zero values take the documented defaults.
type Config struct {
	// Workers are the eliteserve base URLs ("http://127.0.0.1:9001" or
	// just "127.0.0.1:9001"). At least one is required.
	Workers []string

	// ProbeInterval is the health-probe cadence (default 500ms).
	ProbeInterval time.Duration
	// EjectAfter is how many consecutive failed probes eject an up worker
	// (default 3).
	EjectAfter int

	// Retries is the budget of extra sequential attempts after the first
	// (default 2).
	Retries int
	// RequestTimeout bounds one client request end to end, across all
	// attempts (default 60s).
	RequestTimeout time.Duration

	// CacheDir is the workers' result-cache directory: the router answers
	// warm GETs and degraded ones from the bodies the workers store there.
	// Empty, or a directory no worker writes, proxies every request and
	// sheds when no worker answers.
	CacheDir string

	// Faults, when non-nil, injects network faults ("net:<host:port>"
	// points) into every probe and proxied attempt.
	Faults *faults.Injector
	// Seed feeds the backoff and Retry-After jitter streams.
	Seed uint64

	// Tracer, when non-nil, opens a root span per proxied request,
	// injects traceparent on every attempt (so worker spans share the
	// trace id), and serves the span buffer at GET /debug/traces.
	Tracer *obs.Tracer
	// Logger, when non-nil, receives one structured record per proxied
	// request plus warnings for degradation-ladder transitions.
	Logger *slog.Logger
	// SlowRequest, when > 0 and Logger and Tracer are set, logs the full
	// span tree of requests at least this slow.
	SlowRequest time.Duration
}

func (c *Config) setDefaults() {
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 500 * time.Millisecond
	}
	if c.EjectAfter <= 0 {
		c.EjectAfter = 3
	}
	if c.Retries < 0 {
		c.Retries = 0
	} else if c.Retries == 0 {
		c.Retries = 2
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 60 * time.Second
	}
}

// Router proxies requests onto the worker fleet. It implements
// http.Handler and owns /healthz, /metrics and /fleet/workers itself;
// everything else is routed by identity.
type Router struct {
	cfg       Config
	workers   []*worker
	met       *fleetMetrics
	cache     *cache.Cache // the workers' result cache; nil without CacheDir
	transport http.RoundTripper
	client    *http.Client

	backoff    *faults.Jitter
	retryAfter *faults.Jitter

	startOnce sync.Once
	closeOnce sync.Once
	probeStop chan struct{}
	probeDone chan struct{}
}

// New builds a Router over cfg.Workers. The health prober does not start
// until Start is called, so tests can drive probes synchronously.
func New(cfg Config) (*Router, error) {
	cfg.setDefaults()
	if len(cfg.Workers) == 0 {
		return nil, fmt.Errorf("fleet: no workers configured")
	}
	workers := make([]*worker, 0, len(cfg.Workers))
	seen := map[string]bool{}
	for _, raw := range cfg.Workers {
		w, err := newWorker(raw)
		if err != nil {
			return nil, err
		}
		if seen[w.name] {
			return nil, fmt.Errorf("fleet: duplicate worker %q", w.name)
		}
		seen[w.name] = true
		workers = append(workers, w)
	}
	var cc *cache.Cache
	if cfg.CacheDir != "" {
		var err error
		if cc, err = cache.New(cfg.CacheDir); err != nil {
			return nil, err
		}
	}
	transport := http.DefaultTransport
	if cfg.Faults != nil {
		transport = &faultTransport{base: http.DefaultTransport, inj: cfg.Faults}
	}
	rt := &Router{
		cfg:        cfg,
		workers:    workers,
		met:        newFleetMetrics(time.Now()),
		cache:      cc,
		transport:  transport,
		client:     &http.Client{Transport: transport},
		backoff:    faults.NewJitter(cfg.Seed, "fleet/backoff"),
		retryAfter: faults.NewJitter(cfg.Seed, "fleet/retry-after"),
		probeStop:  make(chan struct{}),
		probeDone:  make(chan struct{}),
	}
	return rt, nil
}

// Start launches the background health prober. Close stops it.
func (rt *Router) Start() {
	rt.startOnce.Do(func() { go rt.probeLoop() })
}

// Close stops the health prober (idempotent; safe before Start).
func (rt *Router) Close() {
	rt.closeOnce.Do(func() { close(rt.probeStop) })
	rt.startOnce.Do(func() { close(rt.probeDone) })
	<-rt.probeDone
}

// ServeHTTP answers the router's own endpoints and proxies the rest.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch {
	case r.Method == http.MethodGet && r.URL.Path == "/healthz":
		rt.handleHealthz(w)
	case r.Method == http.MethodGet && r.URL.Path == "/metrics":
		rt.handleMetrics(w, r)
	case r.Method == http.MethodGet && r.URL.Path == "/fleet/workers":
		rt.handleWorkers(w)
	case r.URL.Path == "/debug/traces":
		rt.cfg.Tracer.ServeTraces(w, r)
	default:
		rt.proxy(w, r)
	}
}

func (rt *Router) infos() []workerInfo {
	infos := make([]workerInfo, len(rt.workers))
	for i, w := range rt.workers {
		infos[i] = w.info()
	}
	return infos
}

func (rt *Router) handleHealthz(w http.ResponseWriter) {
	available := 0
	for _, wk := range rt.workers {
		if wk.available() {
			available++
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":            "ok",
		"workers":           len(rt.workers),
		"workers_available": available,
	})
}

func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	ct, om := obs.NegotiateExposition(r.Header)
	w.Header().Set("Content-Type", ct)
	rt.met.write(w, rt.infos(), om)
}

func (rt *Router) handleWorkers(w http.ResponseWriter) {
	writeJSON(w, http.StatusOK, map[string]any{"workers": rt.infos()})
}

// --- identity routing --------------------------------------------------------

// route is how the router handles one request.
type route struct {
	key        uint64 // rendezvous key
	class      string // metrics label
	dataset    string // the {id} of a /v1/datasets/{id}… request
	rest       string // a GET's path after /v1/datasets/{id}/, which may name a stored body
	retryOn404 bool   // the jobs scatter (see routeOf)
}

// routeOf maps a request to its route. Dataset requests hash the
// dataset id plus the path and the result-shaping query parameters, so
// placement is fixed before any probe; job requests hash the job id,
// which is itself content-addressed by the workers. retryOn404 marks the
// jobs scatter: a 404 is retried on the next worker (the job may have been
// created there before a topology change) without feeding the failure
// machinery.
func routeOf(r *http.Request) route {
	p := r.URL.Path
	switch {
	case strings.HasPrefix(p, "/v1/jobs/"):
		id, _, _ := strings.Cut(strings.TrimPrefix(p, "/v1/jobs/"), "/")
		return route{key: hashKey("job", id), class: "jobs", retryOn404: true}
	case strings.HasPrefix(p, "/v1/datasets/"):
		id, rest, _ := strings.Cut(strings.TrimPrefix(p, "/v1/datasets/"), "/")
		q := r.URL.Query()
		rq := route{key: hashKey("dataset-id", id, p, q.Get("stages"), q.Get("format")), class: "datasets", dataset: id}
		if r.Method == http.MethodGet {
			rq.rest = rest
		}
		return rq
	case p == "/v1/datasets":
		return route{key: hashKey("listing"), class: "datasets"}
	default:
		return route{key: hashKey("path", p, r.URL.RawQuery), class: "other"}
	}
}

// hashKey digests a key kind and its parts.
func hashKey(parts ...string) uint64 {
	h := cache.NewHasher()
	h.String("fleet/identity")
	for _, s := range parts {
		h.String(s)
	}
	return h.Sum()
}

// bodyFor names the body the workers store for a GET, under the identity
// the first of workers that lists its dataset stated at its last healthy
// probe. ok is false with no cache, no such worker, or a request that
// names no stored body.
func (rt *Router) bodyFor(rq route, r *http.Request, workers []*worker) (b core.Body, identity string, ok bool) {
	if rt.cache == nil || rq.rest == "" {
		return b, "", false
	}
	for _, wk := range workers {
		if identity = wk.identityOf(rq.dataset); identity != "" {
			b, ok = bodyOf(identity, rq, r.URL.Query())
			return b, identity, ok
		}
	}
	return b, "", false
}

// bodyOf names the body of a GET of /v1/datasets/{id}/{rest} under
// identity, splitting rest as eliteserve's routes do. ok is false for a
// request eliteserve answers from no stored body, or with a 400.
func bodyOf(identity string, rq route, query url.Values) (b core.Body, ok bool) {
	var err error
	switch seg := strings.Split(rq.rest, "/"); {
	case rq.rest == "report":
		b, err = core.ReportBody(identity, query)
	case len(seg) == 2 && seg[0] == "stages":
		b, err = core.StageBody(identity, rq.dataset, seg[1])
	case len(seg) == 3 && seg[0] == "users" && seg[2] == "features":
		b, err = core.UserFeaturesBody(identity, seg[1])
	default:
		return b, false
	}
	return b, err == nil
}

// writeStored writes a stored body with the headers a worker sends with it.
func writeStored(w http.ResponseWriter, b core.Body, identity string, body []byte) {
	w.Header().Set("Content-Type", b.ContentType)
	w.Header().Set("X-Elites-Identity", identity)
	w.WriteHeader(http.StatusOK)
	w.Write(body)
}

// --- proxying ----------------------------------------------------------------

// attemptResult is one worker's answer (or failure) for one attempt.
type attemptResult struct {
	w    *worker
	resp *upstreamResponse
	err  error
}

// statusRecorder captures the written status code for metrics/tracing.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (rec *statusRecorder) WriteHeader(code int) {
	if rec.status == 0 {
		rec.status = code
	}
	rec.ResponseWriter.WriteHeader(code)
}

func (rec *statusRecorder) Write(b []byte) (int, error) {
	if rec.status == 0 {
		rec.status = http.StatusOK
	}
	return rec.ResponseWriter.Write(b)
}

// proxy instruments one routed request — root span (continuing any
// incoming traceparent), per-request metrics with trace-id exemplar,
// structured log record, slow-request span-tree dump — around the
// routing machinery in proxyRouted.
func (rt *Router) proxy(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	sp := rt.cfg.Tracer.StartFromHeader(r.Header, "router.request")
	if sp != nil {
		sp.SetAttr("method", r.Method)
		sp.SetAttr("path", r.URL.Path)
		r = r.WithContext(obs.ContextWithSpan(r.Context(), sp))
	}
	rec := &statusRecorder{ResponseWriter: w}
	class := rt.proxyRouted(rec, r)
	code := rec.status
	if code == 0 {
		// Nothing written: the client went away mid-request.
		code = 499
	}
	dur := time.Since(start)
	traceID := ""
	if sp != nil {
		traceID = sp.TraceID().String()
		sp.SetAttr("class", class)
		sp.SetAttrInt("status", code)
		sp.End()
	}
	rt.met.observeRequest(class, code, dur, traceID)
	if lg := rt.cfg.Logger; lg != nil {
		l := obs.WithSpan(lg, sp)
		l.Info("request",
			"class", class, "method", r.Method, "path", r.URL.Path,
			"status", code, "dur_ms", float64(dur.Microseconds())/1000)
		if rt.cfg.SlowRequest > 0 && dur >= rt.cfg.SlowRequest && sp != nil {
			l.Warn("slow request",
				"threshold", rt.cfg.SlowRequest.String(),
				"span_tree", "\n"+obs.RenderTree(rt.cfg.Tracer.TraceSpans(traceID)))
		}
	}
}

// proxyRouted is the routing body: identity, attempts, degradation. It
// returns the route class for the metrics series.
func (rt *Router) proxyRouted(w http.ResponseWriter, r *http.Request) string {
	rq := routeOf(r)

	var body []byte
	if r.Body != nil && r.Body != http.NoBody {
		var err error
		body, err = io.ReadAll(io.LimitReader(r.Body, maxRequestBody+1))
		if err != nil {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": "reading request body: " + err.Error()})
			return rq.class
		}
		if len(body) > maxRequestBody {
			writeJSON(w, http.StatusRequestEntityTooLarge, map[string]string{"error": "request body too large"})
			return rq.class
		}
	}

	order := rendezvousOrder(rt.workers, rq.key)
	candidates := make([]*worker, 0, len(order))
	for _, wk := range order {
		if wk.selectable() {
			candidates = append(candidates, wk)
		}
	}

	// A warm GET is answered clean from the workers' stored body, under the
	// identity the worker its first attempt would reach lists; with no
	// worker to reach it is degraded, below.
	if b, identity, ok := rt.bodyFor(rq, r, candidates[:min(1, len(candidates))]); ok {
		sp := obs.SpanFromContext(r.Context())
		if stored, hit := rt.cache.Get(b.Entry); hit {
			sp.SetAttr("body_cache", "hit")
			rt.met.bodyHits.Inc()
			w.Header().Set("X-Elites-Cache", "hit")
			writeStored(w, b, identity, stored)
			return rq.class
		}
		sp.SetAttr("body_cache", "miss")
	}

	ctx, cancel := context.WithTimeout(r.Context(), rt.cfg.RequestTimeout)
	defer cancel()

	res := rt.runAttempts(ctx, r, candidates, body, rq.retryOn404)
	if res == nil {
		rt.degrade(w, r, rq, order)
		return rq.class
	}

	if res.w != order[0] {
		rt.met.failovers.Inc()
	}
	res.resp.copyHeaders(w.Header())
	w.Header().Set("X-Elites-Worker", res.w.name)
	w.WriteHeader(res.resp.status)
	w.Write(res.resp.body)
	return rq.class
}

// runAttempts walks the candidate list one attempt at a time: a failed
// attempt is retried on the next worker under the budget, after an
// equal-jitter exponential backoff. It returns the result to serve, or
// nil when every attempt failed or the request itself ended (the degrade
// path).
func (rt *Router) runAttempts(ctx context.Context, r *http.Request, candidates []*worker, body []byte, retryOn404 bool) *attemptResult {
	pathq := r.URL.Path
	if r.URL.RawQuery != "" {
		pathq += "?" + r.URL.RawQuery
	}

	sp := obs.SpanFromContext(ctx)
	retriesUsed := 0
	for idx, wk := range candidates {
		res := rt.attempt(ctx, wk, idx, r, pathq, body)
		if res.err != nil && ctx.Err() != nil {
			// The client left or RequestTimeout expired: the failure is
			// the request's, not the worker's, and there is no one to
			// retry for.
			return nil
		}
		last := idx == len(candidates)-1
		v, tripped := rt.classify(&res, retryOn404)
		if tripped {
			sp.AddEvent("breaker.open", "worker", res.w.name)
			if lg := rt.cfg.Logger; lg != nil {
				obs.WithSpan(lg, sp).Warn("breaker open", "worker", res.w.name)
			}
		}
		switch v {
		case verdictServe:
			return &res
		case verdictSoft:
			// Jobs scatter: the worker is healthy, the job just is not
			// there. Try the next worker immediately; if the scatter is
			// exhausted, the 404 stands.
			if last {
				return &res
			}
		case verdictRetry:
			if last || retriesUsed >= rt.cfg.Retries || !rt.backoffSleep(ctx, retriesUsed) {
				return nil
			}
			retriesUsed++
			rt.met.retries.Inc()
			sp.AddEvent("retry", "failed_worker", res.w.name)
		}
	}
	return nil
}

type verdict int

const (
	verdictServe verdict = iota
	verdictRetry
	verdictSoft
)

// classify turns one attempt outcome into a verdict and feeds the
// worker's failure accounting. Transport errors and 5xx answers are
// worker faults (breaker input); 429 is a healthy-but-busy signal,
// retried without blaming the worker; a jobs-scatter 404 is soft.
// tripped reports whether this failure opened the worker's breaker.
func (rt *Router) classify(res *attemptResult, retryOn404 bool) (v verdict, tripped bool) {
	switch {
	case res.err != nil:
		return verdictRetry, res.w.noteRequestFailure()
	case res.resp.status >= 500:
		return verdictRetry, res.w.noteRequestFailure()
	case res.resp.status == http.StatusTooManyRequests:
		res.w.noteRequestSuccess()
		return verdictRetry, false
	case res.resp.status == http.StatusNotFound && retryOn404:
		res.w.noteRequestSuccess()
		return verdictSoft, false
	default:
		res.w.noteRequestSuccess()
		return verdictServe, false
	}
}

// attempt sends one request to one worker and returns its outcome. Each
// attempt gets its own child span, and that span's traceparent is
// injected upstream so the worker's serve/pipeline spans continue the
// same trace.
func (rt *Router) attempt(ctx context.Context, wk *worker, idx int, r *http.Request, pathq string, body []byte) attemptResult {
	asp := obs.SpanFromContext(ctx).Child("router.attempt")
	asp.SetAttr("worker", wk.name)
	asp.SetAttrInt("attempt", idx)
	finish := func(res attemptResult) attemptResult {
		switch {
		case res.err != nil:
			asp.SetAttr("error", res.err.Error())
			if errors.Is(res.err, faults.ErrInjected) {
				asp.AddEvent("fault.injected")
			}
		case res.resp != nil:
			asp.SetAttrInt("status", res.resp.status)
		}
		asp.End()
		return res
	}

	req, err := http.NewRequestWithContext(ctx, r.Method, wk.url.String()+pathq, bodyReader(body))
	if err != nil {
		return finish(attemptResult{w: wk, err: err})
	}
	for _, k := range []string{"Content-Type", "Accept"} {
		if v := r.Header.Get(k); v != "" {
			req.Header.Set(k, v)
		}
	}
	obs.InjectHeader(req.Header, asp)
	resp, err := rt.client.Do(req)
	if err != nil {
		return finish(attemptResult{w: wk, err: err})
	}
	ur, err := readResponse(resp)
	return finish(attemptResult{w: wk, resp: ur, err: err})
}

// backoffSleep waits before a request's retry-th retry (0-based). The
// schedule is per request, so concurrent failovers never stretch each
// other's waits. Returns false if ctx expired.
func (rt *Router) backoffSleep(ctx context.Context, retry int) bool {
	t := time.NewTimer(rt.backoff.Equal(faults.Backoff(backoffBase, backoffLimit, retry)))
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// --- degradation -------------------------------------------------------------

// degrade is the bottom of the ladder: every attempt failed. A GET whose
// body the workers stored, for the identity the first worker in order
// that lists its dataset stated at its last healthy probe, is served
// those exact bytes — the clean body of that identity, whose
// X-Elites-Identity they repeat — with a Warning header; everything else
// sheds with 503 + jittered Retry-After.
func (rt *Router) degrade(w http.ResponseWriter, r *http.Request, rq route, order []*worker) {
	sp := obs.SpanFromContext(r.Context())
	if b, identity, ok := rt.bodyFor(rq, r, order); ok {
		if body, hit := rt.cache.Get(b.Entry); hit {
			w.Header().Set("Warning", `199 eliterouter "degraded: serving last-known-good cached response"`)
			w.Header().Set("X-Elites-Degraded", "true")
			writeStored(w, b, identity, body)
			rt.met.degraded.Inc()
			sp.AddEvent("degraded")
			if lg := rt.cfg.Logger; lg != nil {
				obs.WithSpan(lg, sp).Warn("degraded response", "path", r.URL.Path)
			}
			return
		}
	}
	w.Header().Set("Retry-After", fmt.Sprintf("%d", rt.retryAfter.RetryAfterSeconds()))
	writeJSON(w, http.StatusServiceUnavailable, map[string]string{
		"error": "no worker available and no cached response",
	})
	rt.met.shed.Inc()
	sp.AddEvent("shed")
	if lg := rt.cfg.Logger; lg != nil {
		obs.WithSpan(lg, sp).Warn("request shed", "path", r.URL.Path)
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
