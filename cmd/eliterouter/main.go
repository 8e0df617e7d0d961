// Command eliterouter fronts a fleet of eliteserve workers with a
// fault-tolerant coordinator. It rendezvous-hashes each request (dataset
// id, path, stage subset, format) onto a stable worker order — so one
// replica owns each identity, its single-flight coalescing works
// fleet-wide, and a worker leaving never remaps identities between the
// survivors — and climbs a degradation ladder as failures accumulate:
// budgeted retries with equal-jitter exponential backoff onto the next
// worker in hash order, per-worker circuit breakers, health-probe ejection
// with probationary re-admission, and finally the workers' stored bodies
// served with a Warning header instead of a 502 when every replica is
// down.
//
// Endpoints (see docs/ARCHITECTURE.md "The fleet"):
//
//	GET  /healthz          router liveness + available-worker count
//	GET  /metrics          Prometheus text metrics (eliterouter_*)
//	GET  /fleet/workers    per-worker state (health, breaker, counters)
//	GET  /debug/traces     recent request span trees as JSON
//	(everything else)      proxied onto the fleet by identity
//
// Every proxied request gets a root span; retries, breaker trips and
// degraded serves are span events, and the traceparent header injected
// on each attempt makes the worker's serve and pipeline spans part of the
// same trace (query both /debug/traces with one trace id).
// -trace-out appends every finished span as a JSON line
// (cmd/traceview pretty-prints it); -log-format picks text or
// JSON structured logs; -slow-request logs the full span tree of
// requests over the threshold.
//
// Usage:
//
//	eliteserve -addr :9001 -gen demo=verified:10000:42 -cache /tmp/elites-cache &
//	eliteserve -addr :9002 -gen demo=verified:10000:42 -cache /tmp/elites-cache &
//	eliterouter -addr :8080 -worker 127.0.0.1:9001 -worker 127.0.0.1:9002 \
//	    -cache /tmp/elites-cache
//	curl localhost:8080/v1/datasets/demo/report?stages=summary
//
// -cache must be the workers' cache directory: the router answers a warm
// GET or users:batch POST from the body entry a worker stored there, with
// no hop, and serves
// the same entry verbatim when the fleet is unreachable. Any other
// directory holds no body, so every request is proxied and the degraded
// floor is gone. The -faults flag (or $ELITES_FAULTS)
// injects deterministic network faults — "net:127.0.0.1:9001=drop:times=3",
// latency, 5xx bursts — into probes and proxied attempts for chaos drills.
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"elites/internal/faults"
	"elites/internal/fleet"
	"elites/internal/obs"
)

// workerFlag collects repeatable -worker flags.
type workerFlag []string

func (l *workerFlag) String() string { return strings.Join(*l, ", ") }

func (l *workerFlag) Set(v string) error {
	*l = append(*l, v)
	return nil
}

func main() {
	var workers workerFlag
	var (
		addr          = flag.String("addr", ":8080", "listen address")
		cacheDir      = flag.String("cache", "", "the workers' result-cache directory; warm requests and degraded serving read their stored bodies there, so any other directory leaves both with nothing")
		probeInterval = flag.Duration("probe-interval", 500*time.Millisecond, "health-probe cadence")
		ejectAfter    = flag.Int("eject-after", 3, "consecutive failed probes before a worker is ejected")
		retries       = flag.Int("retries", 2, "extra attempts on other workers after a failed attempt")
		reqTimeout    = flag.Duration("request-timeout", 60*time.Second, "end-to-end budget for one routed request, across all attempts")
		faultSpec     = flag.String("faults", "", `inject deterministic network faults, e.g. "net:127.0.0.1:9001=drop:times=3" (testing; overrides $ELITES_FAULTS)`)
		faultSeed     = flag.Uint64("faults-seed", 1, "seed for probabilistic fault rules")
		seed          = flag.Uint64("seed", 42, "seed for backoff, Retry-After jitter and trace ids")
		logFormat     = flag.String("log-format", "text", "structured log format: text or json")
		traceOut      = flag.String("trace-out", "", "append every finished span as a JSON line to this file")
		slowReq       = flag.Duration("slow-request", 0, "log the full span tree of requests at least this slow (0 = off)")
	)
	flag.Var(&workers, "worker", "eliteserve base URL (repeatable; at least one required)")
	flag.Parse()

	if err := run(*addr, *cacheDir, *probeInterval, *ejectAfter, *retries,
		*reqTimeout, *faultSpec, *faultSeed, *seed,
		*logFormat, *traceOut, *slowReq, workers); err != nil {
		fmt.Fprintln(os.Stderr, "eliterouter:", err)
		os.Exit(1)
	}
}

func run(addr, cacheDir string, probeInterval time.Duration, ejectAfter, retries int,
	reqTimeout time.Duration, faultSpec string, faultSeed, seed uint64,
	logFormat, traceOut string, slowReq time.Duration, workers []string) error {
	logger, err := obs.NewLogger(logFormat, os.Stderr)
	if err != nil {
		return fmt.Errorf("-log-format: %w", err)
	}
	sink, closeSink, err := obs.OpenTraceOut(traceOut)
	if err != nil {
		return err
	}
	defer closeSink()
	cfg := fleet.Config{
		Workers:        workers,
		ProbeInterval:  probeInterval,
		EjectAfter:     ejectAfter,
		Retries:        retries,
		RequestTimeout: reqTimeout,
		CacheDir:       cacheDir,
		Seed:           seed,
		Tracer:         obs.NewTracer(obs.TracerConfig{Name: "eliterouter:" + addr, Seed: seed, Sink: sink}),
		Logger:         logger,
		SlowRequest:    slowReq,
	}
	if cfg.Faults, err = faults.FromFlag("eliterouter", faultSpec, faultSeed); err != nil {
		return err
	}
	router, err := fleet.New(cfg)
	if err != nil {
		return err
	}
	router.Start()
	defer router.Close()

	// Slow-loris protection; no WriteTimeout because proxied cold reports
	// can legitimately take minutes (the per-request -request-timeout
	// bounds them instead).
	hs := &http.Server{
		Addr:              addr,
		Handler:           router,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "eliterouter: fronting %d worker(s) on %s\n", len(workers), addr)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		return err
	case <-sig:
		fmt.Fprintln(os.Stderr, "eliterouter: shutting down")
		router.Close()
		return hs.Close()
	}
}
