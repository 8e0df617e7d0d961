package serve

import (
	"time"

	"elites/internal/core"
	"elites/internal/obs"
)

// metrics.go exposes the server's traffic through the shared
// obs.Registry: request counts by route and status and a request latency
// histogram (with trace-id exemplars in the OpenMetrics render), both
// kept by the obs.Front every route goes through; pipeline-run
// accounting (started, coalesced, shed, cancelled); and the
// stage-result-cache traffic accumulated from each run's Report.Cache —
// the hit ratio there is the number that tells an operator whether warm
// traffic is actually being served from cache. Every metric name and
// the classic text render are unchanged from the pre-registry emitter.

type metrics struct {
	reg   *obs.Registry
	front *obs.Front // every route's span, request series and log record

	runs          *obs.Counter // pipeline runs actually started
	coalesced     *obs.Counter // requests served by piggybacking on another's run
	shed          *obs.Counter // requests rejected 429 by admission
	cancelled     *obs.Counter // runs abandoned via context
	jobsQueued    *obs.Counter // 202 responses handed out
	bodyHits      *obs.Counter // requests served from a stored encoded body (either cache tier)
	degraded      *obs.Counter // degraded (partial-report) responses served
	drainRejected *obs.Counter // pipeline work refused 503 while draining
	shardHits     *obs.Counter // feature requests answered from precomputed shards
	cacheHits     *obs.Counter // stage-level, summed from Report.Cache
	cacheMisses   *obs.Counter
}

func newMetrics(now time.Time, cfg Config) *metrics {
	reg := obs.NewRegistry()
	m := &metrics{reg: reg}

	reg.GaugeFunc("eliteserve_uptime_seconds", "Time since the server started.", 3,
		func() float64 { return time.Since(now).Seconds() })
	m.front = obs.NewFront(reg, "eliteserve", cfg.Tracer, cfg.Logger, cfg.SlowRequest)

	m.runs = reg.Counter("eliteserve_runs_total", "Characterization pipeline runs started.")
	m.coalesced = reg.Counter("eliteserve_coalesced_requests_total", "Requests served by joining another request's in-flight run.")
	m.shed = reg.Counter("eliteserve_shed_requests_total", "Requests rejected with 429 by the admission queue.")
	m.cancelled = reg.Counter("eliteserve_cancelled_runs_total", "Runs cancelled because every waiter abandoned.")
	m.jobsQueued = reg.Counter("eliteserve_jobs_queued_total", "Async job (202) responses issued.")
	m.bodyHits = reg.Counter("eliteserve_body_cache_hits_total", "Requests served from a stored encoded body, memory or disk tier, no pipeline run.")
	m.degraded = reg.Counter("eliteserve_degraded_total", "Degraded (partial-report) responses served after stage failures.")
	m.drainRejected = reg.Counter("eliteserve_draining_rejected_total", "Pipeline work refused with 503 while the server was draining.")
	m.shardHits = reg.Counter("eliteserve_feature_shard_hits_total", "Per-user feature requests served from precomputed shards, no pipeline run.")
	m.cacheHits = reg.Counter("eliteserve_stage_cache_hits_total", "Pipeline stages hydrated from the result cache.")
	m.cacheMisses = reg.Counter("eliteserve_stage_cache_misses_total", "Cache-eligible pipeline stages that had to compute.")

	reg.GaugeFunc("eliteserve_stage_cache_hit_ratio", "Stage-result-cache hit ratio since start.", 4,
		func() float64 {
			hits, misses := m.cacheHits.Value(), m.cacheMisses.Value()
			if t := hits + misses; t > 0 {
				return float64(hits) / float64(t)
			}
			return 0
		})
	return m
}

func (m *metrics) runFinished(cr *core.CacheReport, cancelled bool) {
	if cancelled {
		m.cancelled.Inc()
	}
	if cr != nil {
		m.cacheHits.Add(uint64(len(cr.Hits)))
		m.cacheMisses.Add(uint64(len(cr.Misses)))
	}
}
