// Command eliteserve serves the characterization engine over HTTP: it
// registers datasets (saved dataset directories and/or elitegen-style
// generation specs), then answers report queries through the coalescing,
// cache-backed serving layer in internal/serve.
//
// Endpoints (see docs/ARCHITECTURE.md "The serving layer" and the README
// endpoints table):
//
//	GET  /healthz                              liveness, dataset count, identities (503 while draining)
//	GET  /readyz                               readiness (503 while draining)
//	POST /v1/admin/drain                       stop admitting new pipeline work
//	GET  /metrics                              Prometheus text metrics
//	GET  /v1/datasets                          registered datasets
//	GET  /v1/datasets/{id}                     one dataset's summary row
//	GET|POST /v1/datasets/{id}/report          full battery (?stages=, ?format=json|text)
//	GET  /v1/datasets/{id}/stages/{stage}      one stage's result fragment
//	GET  /v1/datasets/{id}/users/{rank}        per-user metrics by out-degree rank
//	GET  /v1/datasets/{id}/users/{rank}/features   per-user feature row + scorer verdict
//	POST /v1/datasets/{id}/users:batch         batched feature rows ({"ranks":[1,2,3]})
//	GET  /v1/jobs/{id}, /v1/jobs/{id}/result   async job status / result
//	GET  /debug/traces                         recent request span trees as JSON
//
// Every request gets a serve.* span — admission waits, body-cache and
// stage-cache hits, per-stage pipeline timings, retries and recovered
// panics all hang off it — and an incoming traceparent header (as
// injected by eliterouter) continues the caller's trace instead of
// starting a new one. -trace-out appends finished spans as JSON lines
// (scripts/traceview.sh pretty-prints them), -log-format selects text
// or JSON structured logs, and -slow-request dumps the span tree of
// any request over the threshold to the log.
//
// Identical concurrent requests coalesce onto one pipeline run; -cache
// makes warm requests hydrate from the content-addressed result cache (the
// same directory eliteanalyze -cache uses, so reports are byte-identical
// between the two). Every clean encoded body is stored there too, so a
// restarted server, or another one sharing the directory, answers a
// request answered before with one checksum-verified read and no pipeline
// run; without -cache the bodies are kept in memory only. -async-after bounds how long a cold POST holds the
// connection before detaching into a job; the admission queue sheds
// overload with 429. On SIGINT/SIGTERM the server drains gracefully: new
// pipeline work is refused with 503 + jittered Retry-After, in-flight
// requests and async jobs get -drain-timeout to finish, and jobs still
// running at expiry are reported as abandoned.
//
// Usage:
//
//	elitegen -n 20000 -seed 42 -out ./dataset
//	eliteserve -addr :8080 -data verified=./dataset -cache ~/.elites-cache
//	curl localhost:8080/v1/datasets/verified/report?stages=summary,degree
//
//	eliteserve -gen demo=verified:10000:42        # no directory needed
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"elites/internal/core"
	"elites/internal/faults"
	"elites/internal/obs"
	"elites/internal/serve"
)

// listFlag collects repeatable -data / -gen flags.
type listFlag []string

func (l *listFlag) String() string { return strings.Join(*l, ", ") }

func (l *listFlag) Set(v string) error {
	*l = append(*l, v)
	return nil
}

func main() {
	var (
		dataFlags listFlag
		genFlags  listFlag
	)
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		seed       = flag.Uint64("seed", 42, "characterization seed (eliteanalyze's default, so served reports match its output)")
		fast       = flag.Bool("fast", false, "skip eigenvalues, betweenness and bootstraps")
		parallel   = flag.Int("parallel", 0, "max concurrent analysis stages per run (0 = all cores)")
		cacheDir   = flag.String("cache", "", "directory for the per-stage result cache (warm requests skip the heavy stages)")
		cacheMem   = flag.Int64("cache-mem", 0, "in-memory cache tier cap in bytes (0 = default 256 MiB)")
		maxConc    = flag.Int("max-concurrent", 2, "pipeline runs executing at once")
		maxQueue   = flag.Int("max-queue", 8, "runs waiting for a slot before requests are shed with 429 (-1 = no queue)")
		asyncAfter = flag.Duration("async-after", 30*time.Second, "latency budget before a cold POST detaches into a job (0 = always synchronous)")
		drainWait  = flag.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for in-flight requests and async jobs before abandoning them")

		// Robustness knobs. -faults is a chaos-testing hook: it injects
		// deterministic failures into the serving path (stage errors/panics,
		// cache I/O errors, ...) so operators can rehearse degraded serving;
		// the ELITES_FAULTS env var is the flagless fallback.
		stageRetries = flag.Int("stage-retries", 0, "re-run a failed (non-panicking) stage up to this many times before degrading the report")
		faultSpec    = flag.String("faults", "", `inject deterministic faults, e.g. "stage:degree=error,cache:read=ioerror:times=all" (testing; overrides $ELITES_FAULTS)`)
		faultSeed    = flag.Uint64("faults-seed", 1, "seed for probabilistic fault rules")

		// Observability knobs (see docs/ARCHITECTURE.md "Observability").
		logFormat = flag.String("log-format", "text", "structured log format: text or json")
		traceOut  = flag.String("trace-out", "", "append every finished span as a JSON line to this file")
		slowReq   = flag.Duration("slow-request", 0, "log the full span tree of requests at least this slow (0 = off)")
	)
	flag.Var(&dataFlags, "data", "register a dataset directory as id=path (repeatable)")
	flag.Var(&genFlags, "gen", "register a generated dataset as id=kind:n:seed, kind verified|twitter (repeatable)")
	flag.Parse()

	if err := run(*addr, *seed, *fast, *parallel, *cacheDir, *cacheMem,
		*maxConc, *maxQueue, *asyncAfter, *drainWait,
		*stageRetries, *faultSpec, *faultSeed,
		*logFormat, *traceOut, *slowReq, dataFlags, genFlags); err != nil {
		fmt.Fprintln(os.Stderr, "eliteserve:", err)
		os.Exit(1)
	}
}

func run(addr string, seed uint64, fast bool, parallel int, cacheDir string, cacheMem int64,
	maxConc, maxQueue int, asyncAfter time.Duration, drainWait time.Duration,
	stageRetries int, faultSpec string, faultSeed uint64,
	logFormat, traceOut string, slowReq time.Duration, dataFlags, genFlags []string) error {
	logger, err := obs.NewLogger(logFormat, os.Stderr)
	if err != nil {
		return fmt.Errorf("-log-format: %w", err)
	}
	tcfg := obs.TracerConfig{Name: "eliteserve:" + addr, Seed: seed}
	if traceOut != "" {
		f, err := os.OpenFile(traceOut, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("-trace-out: %w", err)
		}
		defer f.Close()
		tcfg.Sink = f
	}
	opts := core.Options{
		Seed: seed, Parallelism: parallel,
		CacheDir: cacheDir, CacheMemBytes: cacheMem,
		StageRetries: stageRetries,
	}
	if fast {
		opts.SkipEigen = true
		opts.SkipBetweenness = true
		opts.SkipBootstrap = true
		opts.DistanceSources = 100
	}
	if faultSpec == "" {
		faultSpec = os.Getenv("ELITES_FAULTS")
	}
	if faultSpec != "" {
		inj, err := faults.Parse(faultSpec, faultSeed)
		if err != nil {
			return fmt.Errorf("-faults: %w", err)
		}
		opts.Faults = inj
		fmt.Fprintf(os.Stderr, "eliteserve: FAULT INJECTION ACTIVE (%s)\n", faultSpec)
	}
	srv := serve.New(serve.Config{
		Options:       opts,
		MaxConcurrent: maxConc,
		MaxQueue:      maxQueue,
		AsyncAfter:    asyncAfter,
		Tracer:        obs.NewTracer(tcfg),
		Logger:        logger,
		SlowRequest:   slowReq,
	})

	for _, spec := range dataFlags {
		id, path, ok := strings.Cut(spec, "=")
		if !ok {
			return fmt.Errorf("-data %q: want id=path", spec)
		}
		if err := srv.RegisterDir(id, path); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "eliteserve: registered %s from %s\n", id, path)
	}
	for _, spec := range genFlags {
		id, rest, ok := strings.Cut(spec, "=")
		if !ok {
			return fmt.Errorf("-gen %q: want id=kind:n:seed", spec)
		}
		parts := strings.Split(rest, ":")
		if len(parts) != 3 {
			return fmt.Errorf("-gen %q: want id=kind:n:seed", spec)
		}
		n, err := strconv.Atoi(parts[1])
		if err != nil || n <= 0 {
			return fmt.Errorf("-gen %q: bad n %q", spec, parts[1])
		}
		gseed, err := strconv.ParseUint(parts[2], 10, 64)
		if err != nil {
			return fmt.Errorf("-gen %q: bad seed %q", spec, parts[2])
		}
		start := time.Now()
		if err := srv.RegisterGenerated(id, parts[0], n, gseed); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "eliteserve: generated %s (%s, n=%d, seed=%d) in %v\n",
			id, parts[0], n, gseed, time.Since(start).Round(time.Millisecond))
	}
	if len(srv.DatasetIDs()) == 0 {
		return fmt.Errorf("no datasets registered (use -data id=path and/or -gen id=kind:n:seed)")
	}

	// Slow-loris protection: bound how long a client may dribble headers
	// or a body. WriteTimeout is deliberately unset — cold synchronous
	// reports legitimately stream for minutes; -async-after and the
	// admission queue bound those instead.
	hs := &http.Server{
		Addr:              addr,
		Handler:           srv,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "eliteserve: serving %v on %s\n", srv.DatasetIDs(), addr)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		return err
	case <-sig:
		// Graceful drain: flip the health surface red and refuse new
		// pipeline work first, so a fleet router fails over before the
		// listener closes; then give in-flight requests and async jobs
		// -drain-timeout to finish.
		fmt.Fprintln(os.Stderr, "eliteserve: draining")
		srv.Drain()
		ctx, cancel := context.WithTimeout(context.Background(), drainWait)
		defer cancel()
		if abandoned := srv.WaitJobs(ctx); abandoned > 0 {
			fmt.Fprintf(os.Stderr, "eliteserve: drain timeout: %d async job(s) abandoned\n", abandoned)
		}
		fmt.Fprintln(os.Stderr, "eliteserve: shutting down")
		return hs.Shutdown(ctx)
	}
}
