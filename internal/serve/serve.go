// Package serve is the HTTP serving subsystem over the characterization
// engine: an embeddable server that registers datasets (in-memory, from
// store directories, or generated from elitegen-style specs), runs the
// paper's analysis battery on demand through core.Characterizer, and
// answers JSON (or rendered-text) queries about the results.
//
// The serving path is built for heavy identical traffic over a small set
// of datasets:
//
//   - a single-flight coalescer keyed on the request's identity — the
//     dataset digest and core.ResultDigest of the server's options, plus
//     the stage subset and format — so N identical concurrent requests
//     trigger exactly one pipeline run (coalesce.go);
//   - a bounded admission queue that sheds overload with 429 instead of
//     accumulating goroutines (admission.go);
//   - request-context cancellation threaded down to the pipeline
//     scheduler, so a run every waiter abandoned stops at the next stage
//     boundary (core.Characterizer.RunDigested);
//   - an async job model: cold runs over the latency budget return 202
//     with a job id and per-stage progress polling (jobs.go);
//   - Prometheus-style /metrics with request, run, and stage-cache
//     accounting (metrics.go).
//
// Every clean encoded body is stored in the result cache under its request
// key and core.ViewVersion, so a request answered once — by this process
// or by any other sharing the cache directory — is served again with one
// checksum-verified read: no pipeline run, no stage decode, no encoding.
// A server with no cache directory keeps its bodies in a memory-only
// cache.
//
// Per-user feature traffic (features.go) adds one more tier: feature rows
// are stored as fixed-width shards in the result cache, so a warm
// /users/{rank}/features or users:batch request decodes one shard instead
// of running the pipeline — even in a fresh server process sharing the
// cache directory.
//
// Every /v1/datasets/{id}/… response carries that identity in the
// X-Elites-Identity header ("<dataset digest>-<result digest>", 16 hex
// digits each), and /healthz lists each dataset's identity and the
// core.ViewVersion of this build's encoders, so a fleet router names the
// stored bodies it reads by the run and the encoders that produced them.
//
// Endpoints: GET /healthz, GET /metrics, GET /v1/datasets,
// GET /v1/datasets/{id}, GET|POST /v1/datasets/{id}/report,
// GET /v1/datasets/{id}/stages/{stage}, GET /v1/datasets/{id}/users/{rank},
// GET /v1/datasets/{id}/users/{rank}/features,
// POST /v1/datasets/{id}/users:batch,
// GET /v1/jobs/{id}, GET /v1/jobs/{id}/result.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"elites/internal/cache"
	"elites/internal/core"
	"elites/internal/faults"
	"elites/internal/features"
	"elites/internal/gen"
	"elites/internal/obs"
	"elites/internal/store"
	"elites/internal/timeseries"
	"elites/internal/twitter"
)

// Config tunes a Server. The zero value serves with the default battery
// options, two concurrent runs, eight queued, and no async budget (every
// report request is synchronous).
type Config struct {
	// Options is the base characterization configuration every request
	// runs with (seed, sampling sizes, CacheDir for warm serving, ...).
	// Requests may restrict Options.Stages via ?stages=; everything else
	// is fixed at server construction so response bytes are a pure
	// function of (dataset, server options, requested stages, format).
	Options core.Options
	// MaxConcurrent bounds simultaneously executing pipeline runs
	// (<= 0 means 2). Coalesced requests count once.
	MaxConcurrent int
	// MaxQueue bounds runs waiting for a slot (< 0 means 0 — shed as soon
	// as every slot is busy; 0 means the default 8).
	MaxQueue int
	// AsyncAfter, when > 0, is the latency budget for POST report
	// requests: a run still going after this long detaches into a job and
	// the client gets 202 + job id. 0 serves everything synchronously.
	AsyncAfter time.Duration
	// Tracer, when non-nil, records a span tree per request (continuing
	// any incoming traceparent) and serves it at GET /debug/traces.
	// Tracing never touches cache keys or response bytes.
	Tracer *obs.Tracer
	// Logger, when non-nil, receives one structured record per request
	// with trace/span ids attached.
	Logger *slog.Logger
	// SlowRequest, when > 0 and Logger and Tracer are set, is the
	// flight-recorder threshold: requests at least this slow log their
	// full span tree.
	SlowRequest time.Duration
}

// dataset is one registered dataset plus its identity, and its memoized
// per-user degree ranking and in-degree table.
type dataset struct {
	ID       string
	Source   string
	ds       *twitter.Dataset
	activity *timeseries.DailySeries
	digest   uint64
	// identity is the X-Elites-Identity value: the dataset digest and the
	// server's result digest.
	identity string

	rankOnce sync.Once
	byRank   []int32 // node ids, rank 1 first (out-degree desc, node asc)
	inOnce   sync.Once
	inDeg    []int // read only by /users/{rank}, so built on its first call

	// featMu guards the per-dataset feature memos: the full matrix (set
	// after a pipeline run computed it) and individually decoded shards
	// (hydrated from the result cache without a run). See features.go.
	featMu   sync.Mutex
	feat     *features.Matrix
	shardMem map[int]*features.Rows
}

// memoryBodyBytes caps the memory-only body cache of a server with no
// cache directory.
const memoryBodyBytes = 64 << 20

// Server is the HTTP serving layer. Construct with New, register datasets,
// then mount it anywhere an http.Handler goes.
type Server struct {
	cfg        Config
	mux        *http.ServeMux
	flight     *flight
	admit      *admission
	jobs       *jobTable
	met        *metrics
	optsDigest uint64 // core.ResultDigest(cfg.Options)

	// cache holds every clean encoded body (see core.Body) and, with a cache
	// dir, the stage entries and feature shards the pipeline writes: the
	// result cache over Options.CacheDir, shared with every process over
	// that directory, or a memory-only cache when there is none.
	cache *cache.Cache
	// noMemo turns body memoization off, so that every request runs the
	// pipeline (the chaos tests, whose fault schedules count stage reads).
	noMemo bool

	// draining flips once (Drain or POST /v1/admin/drain) and never back:
	// new pipeline work is refused with 503 while in-flight requests and
	// async jobs run to completion (WaitJobs), and /healthz + /readyz turn
	// 503 so a fleet router stops routing here.
	draining atomic.Bool

	// retryAfter jitters Retry-After on shed (429) and draining (503)
	// responses, so rejected clients do not re-trip admission in lockstep.
	retryAfter *faults.Jitter

	mu       sync.Mutex
	datasets map[string]*dataset
}

// New builds a Server from cfg.
func New(cfg Config) *Server {
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = 2
	}
	switch {
	case cfg.MaxQueue == 0:
		cfg.MaxQueue = 8
	case cfg.MaxQueue < 0:
		cfg.MaxQueue = 0
	}
	s := &Server{
		cfg:        cfg,
		mux:        http.NewServeMux(),
		flight:     newFlight(),
		admit:      newAdmission(cfg.MaxConcurrent, cfg.MaxQueue),
		jobs:       newJobTable(jobsKept),
		met:        newMetrics(time.Now()),
		optsDigest: core.ResultDigest(cfg.Options),
		retryAfter: faults.NewJitter(cfg.Options.Seed, "serve/retry-after"),
		datasets:   map[string]*dataset{},
	}
	if cfg.Options.CacheDir != "" {
		if cc, err := cache.New(cfg.Options.CacheDir); err == nil {
			s.cache = cc
			if cfg.Options.CacheMemBytes > 0 {
				cc.SetMaxBytes(cfg.Options.CacheMemBytes)
			}
		}
	}
	if s.cache == nil {
		s.cache = cache.NewMemory(memoryBodyBytes)
	}
	s.route("GET /healthz", "healthz", s.handleHealthz)
	s.route("GET /readyz", "readyz", s.handleReadyz)
	s.route("POST /v1/admin/drain", "drain", s.handleDrain)
	s.route("GET /metrics", "metrics", s.handleMetrics)
	s.route("GET /v1/datasets", "datasets", s.handleDatasets)
	s.route("GET /v1/datasets/{id}", "dataset", s.handleDataset)
	s.route("GET /v1/datasets/{id}/report", "report", s.handleReport)
	s.route("POST /v1/datasets/{id}/report", "report", s.handleReport)
	s.route("GET /v1/datasets/{id}/stages/{stage}", "stage", s.handleStage)
	s.route("GET /v1/datasets/{id}/users/{rank}", "user", s.handleUser)
	s.route("GET /v1/datasets/{id}/users/{rank}/features", "user_features", s.handleUserFeatures)
	s.route("POST /v1/datasets/{id}/users:batch", "users_batch", s.handleUsersBatch)
	s.route("GET /v1/jobs/{id}", "job", s.handleJob)
	s.route("GET /v1/jobs/{id}/result", "job_result", s.handleJobResult)
	s.route("GET /debug/traces", "debug_traces", s.handleDebugTraces)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// --- dataset registration ----------------------------------------------------

func validID(id string) bool {
	if id == "" || len(id) > 64 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '-', c == '_', c == '.':
		default:
			return false
		}
	}
	return true
}

// RegisterDataset registers an in-memory dataset under id. The dataset's
// content digest (store.DatasetDigest) is computed once here, and only
// here: the identity, the body keys, the feature shards and every pipeline
// run over the dataset (core.Characterizer.RunDigested) key off this one
// value, so a request never re-hashes the dataset. The dataset must not
// change after registration.
func (s *Server) RegisterDataset(id string, ds *twitter.Dataset, activity *timeseries.DailySeries, source string) error {
	if !validID(id) {
		return fmt.Errorf("serve: invalid dataset id %q", id)
	}
	if ds == nil || ds.Graph == nil {
		return fmt.Errorf("serve: dataset %q has no graph", id)
	}
	d := &dataset{
		ID: id, Source: source, ds: ds, activity: activity,
		digest: store.DatasetDigest(ds, activity),
	}
	d.identity = fmt.Sprintf("%016x-%016x", d.digest, s.optsDigest)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.datasets[id]; dup {
		return fmt.Errorf("serve: dataset id %q already registered", id)
	}
	s.datasets[id] = d
	return nil
}

// RegisterDir loads a store dataset directory (elitegen/elitecrawl output)
// and registers it under id.
func (s *Server) RegisterDir(id, dir string) error {
	ds, activity, _, err := store.LoadDataset(dir)
	if err != nil {
		return fmt.Errorf("serve: loading %s: %w", dir, err)
	}
	return s.RegisterDataset(id, ds, activity, "dir:"+dir)
}

// RegisterGenerated synthesizes a dataset from an elitegen-style spec
// (kind "verified" or "twitter", n users, generation seed) and registers
// it under id.
func (s *Server) RegisterGenerated(id, kind string, n int, seed uint64) error {
	cfg := twitter.DefaultPlatformConfig(n)
	cfg.Seed = seed
	switch kind {
	case "verified":
		// default graph config
	case "twitter":
		g := gen.TwitterDefaults(n)
		g.Seed = seed
		cfg.GraphConfig = g
	default:
		return fmt.Errorf("serve: unknown dataset kind %q (want verified or twitter)", kind)
	}
	p, err := twitter.NewPlatform(cfg)
	if err != nil {
		return err
	}
	ds, err := twitter.DatasetFromPlatform(p)
	if err != nil {
		return err
	}
	activity := p.ActivitySeries(p.EnglishNodes())
	return s.RegisterDataset(id, ds, activity,
		fmt.Sprintf("gen:%s:n=%d:seed=%d", kind, n, seed))
}

// DatasetIDs lists registered dataset ids, sorted.
func (s *Server) DatasetIDs() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	ids := make([]string, 0, len(s.datasets))
	for id := range s.datasets {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

func (s *Server) dataset(id string) (*dataset, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	d, ok := s.datasets[id]
	return d, ok
}

// lookup resolves a /v1/datasets/{id}… request's dataset and stamps the
// response with its identity, or answers 404.
func (s *Server) lookup(w http.ResponseWriter, r *http.Request) (*dataset, bool) {
	d, ok := s.dataset(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown dataset %q", r.PathValue("id"))
		return nil, false
	}
	w.Header().Set("X-Elites-Identity", d.identity)
	return d, true
}

// ranking memoizes the out-degree ranking used by the per-user endpoints
// (features.RankByOutDegree is the single definition of the order, shared
// with eliteanalyze -features so batch bodies compare byte-for-byte).
func (d *dataset) ranking() []int32 {
	d.rankOnce.Do(func() { d.byRank = features.RankByOutDegree(d.ds.Graph) })
	return d.byRank
}

// inDegrees memoizes the in-degree table, an O(edges) pass that only the
// /users/{rank} endpoint reads.
func (d *dataset) inDegrees() []int {
	d.inOnce.Do(func() { d.inDeg = d.ds.Graph.InDegrees() })
	return d.inDeg
}

// --- request plumbing --------------------------------------------------------

// recorder captures the status code for metrics.
type recorder struct {
	http.ResponseWriter
	status int
}

func (rec *recorder) WriteHeader(code int) {
	if rec.status == 0 {
		rec.status = code
	}
	rec.ResponseWriter.WriteHeader(code)
}

func (rec *recorder) Write(b []byte) (int, error) {
	if rec.status == 0 {
		rec.status = http.StatusOK
	}
	return rec.ResponseWriter.Write(b)
}

// route mounts a handler with metrics, tracing and logging
// instrumentation under a stable route label (patterns with wildcards
// would explode series cardinality). The span continues any incoming
// traceparent, so a request proxied by eliterouter shares the router's
// trace id; its id becomes the latency histogram's exemplar.
func (s *Server) route(pattern, label string, h http.HandlerFunc) {
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &recorder{ResponseWriter: w}
		sp := s.cfg.Tracer.StartFromHeader(r.Header, "serve."+label)
		if sp != nil {
			sp.SetAttr("route", label)
			sp.SetAttr("path", r.URL.Path)
			r = r.WithContext(obs.ContextWithSpan(r.Context(), sp))
		}
		h(rec, r)
		code := rec.status
		if code == 0 {
			// Nothing written: the client went away mid-request.
			code = 499
		}
		dur := time.Since(start)
		traceID := ""
		if sp != nil {
			traceID = sp.TraceID().String()
			sp.SetAttrInt("status", code)
			sp.End()
		}
		s.met.observeRequest(label, code, dur, traceID)
		if lg := s.cfg.Logger; lg != nil {
			l := obs.WithSpan(lg, sp)
			l.Info("request",
				"route", label, "method", r.Method, "path", r.URL.Path,
				"status", code, "dur_ms", float64(dur.Microseconds())/1000)
			if s.cfg.SlowRequest > 0 && dur >= s.cfg.SlowRequest && sp != nil {
				l.Warn("slow request",
					"threshold", s.cfg.SlowRequest.String(),
					"span_tree", "\n"+obs.RenderTree(s.cfg.Tracer.TraceSpans(traceID)))
			}
		}
	})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		http.Error(w, `{"error":"encoding failure"}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(append(b, '\n'))
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// memoize stores a clean body as b's entry.
func (s *Server) memoize(b core.Body, body []byte) {
	if !s.noMemo {
		s.cache.Put(b.Entry, body)
	}
}

// coalesce runs fn through the coalescer under b's key and counts a
// request that joined another's run. The run memoizes its body as b's
// entry when the body is clean, once for all its waiters; a degraded body,
// or a run that produces none (the tier-3 features run), memoizes nothing.
func (s *Server) coalesce(ctx context.Context, b core.Body, fn func(context.Context, *progress) (runOutcome, error), watch func(*progress)) (runOutcome, error) {
	out, joined, err := s.flight.Do(ctx, b.Key, func(ctx context.Context, prog *progress) (runOutcome, error) {
		out, err := fn(ctx, prog)
		if err == nil && !out.degraded && out.body != nil {
			s.memoize(b, out.body)
		}
		return out, err
	}, watch)
	if joined {
		s.met.coalesced.Inc()
	}
	return out, err
}

// --- draining ----------------------------------------------------------------

// ErrDraining is returned (and mapped to HTTP 503) when the server has been
// asked to drain: it finishes in-flight work but admits no new pipeline
// runs, so a fleet router can remove it gracefully.
var ErrDraining = errors.New("serve: server draining")

// Drain puts the server into draining mode: /healthz and /readyz turn 503,
// new pipeline work is refused with 503 + Retry-After, and in-flight
// requests and async jobs run to completion. Draining is one-way.
func (s *Server) Drain() { s.draining.Store(true) }

// WaitJobs blocks until every async job has finished or ctx expires, and
// returns the number of jobs still running at return — the jobs a shutdown
// at that moment would abandon.
func (s *Server) WaitJobs(ctx context.Context) (abandoned int) {
	for {
		n := s.jobs.running()
		if n == 0 {
			return 0
		}
		select {
		case <-ctx.Done():
			return s.jobs.running()
		case <-time.After(25 * time.Millisecond):
		}
	}
}

// --- run execution -----------------------------------------------------------

// runBattery is the single execution path every report-shaped request
// funnels into (through the coalescer): the admission gate, then the
// characterizer run with the request context threaded through, with run
// metrics recorded. Runs are always timed — Report.Timings is what tells
// the JSON views which value-typed sections actually executed, and it
// never reaches response bytes. On stage failure the partial report comes
// back alongside the error; callers decide whether it is servable
// (degradable).
func (s *Server) runBattery(ctx context.Context, d *dataset, stages []string, prog *progress) (*core.Report, error) {
	if s.draining.Load() {
		s.met.drainRejected.Inc()
		return nil, ErrDraining
	}
	adm := obs.SpanFromContext(ctx).Child("admit")
	if err := s.admit.acquire(ctx); err != nil {
		if errors.Is(err, ErrBusy) {
			s.met.shed.Inc()
			adm.AddEvent("shed")
		}
		adm.End()
		return nil, err
	}
	adm.End()
	defer s.admit.release()

	opts := s.cfg.Options
	opts.Stages = stages
	opts.Timings = true
	opts.StageObserver = prog.observe
	s.met.runs.Inc()
	rep, err := core.NewCharacterizer(opts).RunDigested(ctx, d.ds, d.activity, d.digest)
	var cr *core.CacheReport
	if rep != nil {
		cr = rep.Cache
	}
	s.met.runFinished(cr, err != nil &&
		(errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)))
	return rep, err
}

// degradable decides whether a failed run is still worth serving as a
// partial (degraded) report: there is a report to serve, the failure is not
// a cancellation (the client is gone, or the whole run was torn down — a
// partial body would be arbitrary, not degraded), and at least one stage
// actually produced a result.
func degradable(ctx context.Context, rep *core.Report, err error) bool {
	if rep == nil || ctx.Err() != nil ||
		errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	for _, tm := range rep.Timings {
		if tm.Err == nil && !tm.Skipped {
			return true
		}
	}
	return false
}

// writeDegradedBanner prefixes a degraded text report with the failed-stage
// summary, so plain-text consumers cannot mistake a partial report for a
// complete one.
func writeDegradedBanner(buf *bytes.Buffer, rep *core.Report) {
	failed := 0
	for _, tm := range rep.Timings {
		if tm.Err != nil {
			failed++
		}
	}
	fmt.Fprintf(buf, "!! DEGRADED REPORT: %d stage(s) failed\n", failed)
	for _, tm := range rep.Timings {
		if tm.Err != nil {
			fmt.Fprintf(buf, "!!   %s: %v\n", tm.Name, tm.Err)
		}
	}
	buf.WriteByte('\n')
}

// buildReport runs the battery and encodes the full-report body, as text
// or else JSON (the formats core.ReportBody admits). A run where some
// stages failed but others completed encodes as a degraded body: JSON
// grows "degraded": true plus structured stage_errors entries, text gets
// the banner. Clean runs encode exactly as before, so a re-run after a
// fault clears is byte-identical to a never-faulted response.
func (s *Server) buildReport(ctx context.Context, d *dataset, stages []string, format string, prog *progress) (runOutcome, error) {
	rep, err := s.runBattery(ctx, d, stages, prog)
	if err != nil && !degradable(ctx, rep, err) {
		return runOutcome{}, err
	}
	degraded := err != nil
	if format == "text" {
		var buf bytes.Buffer
		if degraded {
			writeDegradedBanner(&buf, rep)
		}
		rep.Render(&buf)
		return runOutcome{body: buf.Bytes(), degraded: degraded}, nil
	}
	b, merr := json.MarshalIndent(core.NewReportView(rep), "", "  ")
	if merr != nil {
		return runOutcome{}, merr
	}
	return runOutcome{body: append(b, '\n'), degraded: degraded}, nil
}

// writeOutcome writes a run's body, marking degraded responses with a
// Warning header and counting them, so clients and operators can tell a
// partial report from a complete one without parsing the body.
func (s *Server) writeOutcome(w http.ResponseWriter, ctype string, out runOutcome) {
	w.Header().Set("Content-Type", ctype)
	if out.degraded {
		w.Header().Set("Warning", `199 eliteserve "degraded: one or more stages failed"`)
		s.met.degraded.Inc()
	}
	w.Write(out.body)
}

// writeRunError maps run failures onto HTTP semantics.
func (s *Server) writeRunError(w http.ResponseWriter, r *http.Request, err error) {
	switch {
	case errors.Is(err, ErrBusy):
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfter.RetryAfterSeconds()))
		writeError(w, http.StatusTooManyRequests, "server busy: admission queue full")
	case errors.Is(err, ErrDraining):
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfter.RetryAfterSeconds()))
		writeError(w, http.StatusServiceUnavailable, "server draining: not admitting new work")
	case r.Context().Err() != nil:
		// The client is gone; nothing useful to write. The recorder logs
		// this as 499.
	case errors.Is(err, context.DeadlineExceeded):
		writeError(w, http.StatusGatewayTimeout, "run exceeded deadline")
	default:
		writeError(w, http.StatusInternalServerError, "characterization failed: %v", err)
	}
}

// --- handlers ----------------------------------------------------------------

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"status":       "draining",
			"datasets":     len(s.DatasetIDs()),
			"jobs_running": s.jobs.running(),
		})
		return
	}
	identities := map[string]string{}
	for _, id := range s.DatasetIDs() {
		d, _ := s.dataset(id)
		identities[id] = d.identity
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":       "ok",
		"datasets":     len(identities),
		"identities":   identities,
		"view_version": core.ViewVersion,
	})
}

// handleReadyz is the readiness half of the health surface: it reports
// whether this worker should receive new traffic, which is exactly "not
// draining". Liveness (/healthz) stays useful during a drain for operators
// watching the worker finish up.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

// handleDrain (POST /v1/admin/drain) flips the server into draining mode
// for graceful removal from a fleet: health turns 503 so routers eject
// this worker, new pipeline work is refused, in-flight work finishes.
func (s *Server) handleDrain(w http.ResponseWriter, r *http.Request) {
	s.Drain()
	writeJSON(w, http.StatusOK, map[string]any{
		"status":       "draining",
		"jobs_running": s.jobs.running(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.met.serveExposition(w, r)
}

// handleDebugTraces serves the tracer's ring buffer (404 when tracing
// is disabled). See obs.(*Tracer).ServeTraces for the query parameters.
func (s *Server) handleDebugTraces(w http.ResponseWriter, r *http.Request) {
	s.cfg.Tracer.ServeTraces(w, r)
}

// datasetInfo is the JSON row for dataset listings.
type datasetInfo struct {
	ID          string `json:"id"`
	Nodes       int    `json:"nodes"`
	Edges       int64  `json:"edges"`
	HasProfiles bool   `json:"has_profiles"`
	HasActivity bool   `json:"has_activity"`
	Source      string `json:"source,omitempty"`
	Digest      string `json:"digest"`
}

func (d *dataset) info() datasetInfo {
	return datasetInfo{
		ID: d.ID, Nodes: d.ds.Graph.NumNodes(), Edges: d.ds.Graph.NumEdges(),
		HasProfiles: len(d.ds.Profiles) > 0, HasActivity: d.activity != nil,
		Source: d.Source, Digest: fmt.Sprintf("%016x", d.digest),
	}
}

func (s *Server) handleDatasets(w http.ResponseWriter, r *http.Request) {
	var infos []datasetInfo
	for _, id := range s.DatasetIDs() {
		d, _ := s.dataset(id)
		infos = append(infos, d.info())
	}
	writeJSON(w, http.StatusOK, map[string]any{"datasets": infos})
}

func (s *Server) handleDataset(w http.ResponseWriter, r *http.Request) {
	d, ok := s.lookup(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, d.info())
}

// serveMemo writes b's stored body and reports true, or reports false
// when the cache holds none (a corrupt entry or a disk fault is a miss
// too). Either way the request span's body_cache attribute records the hit
// or the miss.
func (s *Server) serveMemo(w http.ResponseWriter, r *http.Request, b core.Body) bool {
	span := obs.SpanFromContext(r.Context())
	var body []byte
	ok := false
	if !s.noMemo {
		body, ok = s.cache.Get(b.Entry)
	}
	if !ok {
		span.SetAttr("body_cache", "miss")
		return false
	}
	s.met.bodyHits.Inc()
	span.SetAttr("body_cache", "hit")
	w.Header().Set("Content-Type", b.ContentType)
	w.Write(body)
	return true
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	d, ok := s.lookup(w, r)
	if !ok {
		return
	}
	b, err := core.ReportBody(d.identity, r.URL.Query())
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if s.serveMemo(w, r, b) {
		return
	}
	reqSpan := obs.SpanFromContext(r.Context())
	run := func(ctx context.Context, prog *progress) (runOutcome, error) {
		// The coalescer hands fn a detached context; re-attach the leader
		// request's span so the pipeline spans land in its trace.
		return s.buildReport(obs.ContextWithSpan(ctx, reqSpan), d, b.Stages, b.Format, prog)
	}

	if s.cfg.AsyncAfter > 0 && r.Method == http.MethodPost {
		s.handleReportAsync(w, r, d, b, run)
		return
	}
	out, err := s.coalesce(r.Context(), b, run, nil)
	if err != nil {
		s.writeRunError(w, r, err)
		return
	}
	s.writeOutcome(w, b.ContentType, out)
}

// handleReportAsync implements the 202 job model: wait up to the latency
// budget, then detach. The job is its own (never-cancelling) waiter, so
// the run continues after the client disconnects.
func (s *Server) handleReportAsync(w http.ResponseWriter, r *http.Request, d *dataset, b core.Body, run func(context.Context, *progress) (runOutcome, error)) {
	j, created, err := s.jobs.getOrCreate(b.Key, d.ID, b.ContentType, time.Now())
	if err != nil {
		// A live job under the same content-addressed id belongs to a
		// different request identity (hash collision) — refuse rather
		// than hand this client that job's body.
		writeError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	if created {
		go func() {
			j.finish(s.coalesce(context.Background(), b, run, j.prog.Store))
		}()
	}
	budget := time.NewTimer(s.cfg.AsyncAfter)
	defer budget.Stop()
	select {
	case <-j.done:
		out, err, _ := j.result()
		if err != nil {
			s.writeRunError(w, r, err)
			return
		}
		s.writeOutcome(w, b.ContentType, out)
	case <-budget.C:
		s.met.jobsQueued.Inc()
		writeJSON(w, http.StatusAccepted, map[string]string{
			"job_id":     j.ID,
			"status_url": "/v1/jobs/" + j.ID,
			"result_url": "/v1/jobs/" + j.ID + "/result",
		})
	case <-r.Context().Done():
		// Client gone; the job keeps running. Recorded as 499.
	}
}

func (s *Server) handleStage(w http.ResponseWriter, r *http.Request) {
	d, ok := s.lookup(w, r)
	if !ok {
		return
	}
	// The run covers every stage the view draws from (components'
	// servable projection is the summary table).
	b, err := core.StageBody(d.identity, d.ID, r.PathValue("stage"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if s.serveMemo(w, r, b) {
		return
	}
	reqSpan := obs.SpanFromContext(r.Context())
	out, err := s.coalesce(r.Context(), b, func(ctx context.Context, prog *progress) (runOutcome, error) {
		rep, rerr := s.runBattery(obs.ContextWithSpan(ctx, reqSpan), d, b.Stages, prog)
		if rerr != nil && !degradable(ctx, rep, rerr) {
			return runOutcome{}, rerr
		}
		frag, verr := core.StageView(rep, b.Stage)
		if verr != nil {
			return runOutcome{}, verr
		}
		payload := map[string]any{
			"dataset": d.ID, "stage": b.Stage, "result": frag,
		}
		if rerr != nil {
			payload["degraded"] = true
		}
		b, merr := json.MarshalIndent(payload, "", "  ")
		if merr != nil {
			return runOutcome{}, merr
		}
		return runOutcome{body: append(b, '\n'), degraded: rerr != nil}, nil
	}, nil)
	if err != nil {
		s.writeRunError(w, r, err)
		return
	}
	s.writeOutcome(w, b.ContentType, out)
}

// userView is the per-user payload: degree ranking plus the §IV
// verification-feature metrics the related work motivates serving
// per-account. Profile is nil (omitted) only when the dataset carries no
// profiles at all — a false/zero profile value always serializes, so
// "not verified" is distinguishable from "no profile recorded".
type userView struct {
	Rank      int              `json:"rank"`
	Node      int              `json:"node"`
	OutDegree int              `json:"out_degree"`
	InDegree  int              `json:"in_degree"`
	Profile   *userProfileView `json:"profile,omitempty"`
}

// userProfileView is the profile half of a per-user response.
type userProfileView struct {
	ScreenName string `json:"screen_name"`
	Name       string `json:"name"`
	Category   string `json:"category"`
	Verified   bool   `json:"verified"`
	Followers  int64  `json:"followers"`
	Friends    int64  `json:"friends"`
	Listed     int64  `json:"listed"`
	Statuses   int64  `json:"statuses"`
	Bio        string `json:"bio,omitempty"`
}

func (s *Server) handleUser(w http.ResponseWriter, r *http.Request) {
	d, ok := s.lookup(w, r)
	if !ok {
		return
	}
	rank, err := strconv.Atoi(r.PathValue("rank"))
	if err != nil || rank < 1 {
		writeError(w, http.StatusBadRequest, "rank must be a positive integer, got %q", r.PathValue("rank"))
		return
	}
	byRank := d.ranking()
	if rank > len(byRank) {
		writeError(w, http.StatusNotFound, "rank %d out of range (dataset has %d users)", rank, len(byRank))
		return
	}
	node := int(byRank[rank-1])
	v := userView{
		Rank: rank, Node: node,
		OutDegree: d.ds.Graph.OutDegree(node), InDegree: d.inDegrees()[node],
	}
	if node < len(d.ds.Profiles) {
		p := d.ds.Profiles[node]
		v.Profile = &userProfileView{
			ScreenName: p.ScreenName,
			Name:       p.Name,
			Category:   p.Category.String(),
			Verified:   p.Verified,
			Followers:  p.Followers,
			Friends:    p.Friends,
			Listed:     p.Listed,
			Statuses:   p.Statuses,
			Bio:        p.Bio,
		}
	}
	writeJSON(w, http.StatusOK, v)
}

// jobStatus is the polling payload for async runs.
type jobStatus struct {
	ID         string       `json:"id"`
	Dataset    string       `json:"dataset"`
	State      string       `json:"state"` // running | done | failed
	Created    time.Time    `json:"created"`
	StagesDone int          `json:"stages_done"`
	Stages     []stageState `json:"stages,omitempty"`
	Error      string       `json:"error,omitempty"`
	ResultURL  string       `json:"result_url,omitempty"`
}

// stageState is one completed stage in a job's progress.
type stageState struct {
	Name       string  `json:"name"`
	DurationMS float64 `json:"duration_ms"`
	CacheHit   bool    `json:"cache_hit"`
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	st := jobStatus{ID: j.ID, Dataset: j.Dataset, Created: j.Created, State: "running"}
	if _, err, finished := j.result(); finished {
		if err != nil {
			st.State = "failed"
			st.Error = err.Error()
		} else {
			st.State = "done"
			st.ResultURL = "/v1/jobs/" + j.ID + "/result"
		}
	}
	for _, tm := range j.progressSnapshot() {
		st.Stages = append(st.Stages, stageState{
			Name:       tm.Name,
			DurationMS: float64(tm.Duration.Microseconds()) / 1000,
			CacheHit:   tm.CacheHit,
		})
	}
	st.StagesDone = len(st.Stages)
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	// The job's key (core.Body.Key) opens with the identity of its run.
	identity, _, _ := strings.Cut(j.Key, "|")
	w.Header().Set("X-Elites-Identity", identity)
	out, err, finished := j.result()
	if !finished {
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusConflict, "job %s still running", j.ID)
		return
	}
	if err != nil {
		s.writeRunError(w, r, err)
		return
	}
	s.writeOutcome(w, j.ContentType, out)
}
