package fleet

import (
	"io"
	"strconv"
	"sync/atomic"
	"time"

	"elites/internal/obs"
)

// metrics.go is the router's exposition, rendered from the shared
// obs.Registry like internal/serve: per-worker availability and breaker
// gauges plus fleet-wide counters for every robustness mechanism —
// retries, failovers, ejections, degraded serves — and for the GETs
// answered from the workers' stored bodies, so an operator watching a
// chaos drill can see exactly which layer absorbed each fault. Per-worker
// gauge rows are rebuilt from a live workerInfo snapshot on each scrape.

type fleetMetrics struct {
	reg *obs.Registry

	workerUp    *obs.GaugeVec
	available   *obs.Gauge
	breakerOpen *obs.GaugeVec
	brTrips     atomic.Uint64 // synced from workerInfo on each scrape

	requests *obs.CounterVec
	latency  *obs.Histogram

	retries      *obs.Counter // sequential failover attempts after a failure
	failovers    *obs.Counter // responses ultimately served by a non-primary worker
	degraded     *obs.Counter // stored bodies served with a Warning header
	shed         *obs.Counter // 503s with no worker and no stored body
	bodyHits     *obs.Counter // warm GETs answered clean from a stored body, no hop
	probeFails   *obs.Counter // health probes that failed
	ejections    *obs.Counter // workers ejected (up/probation -> down)
	readmissions *obs.Counter // workers readmitted to probation
}

func newFleetMetrics(now time.Time) *fleetMetrics {
	reg := obs.NewRegistry()
	m := &fleetMetrics{reg: reg}

	reg.GaugeFunc("eliterouter_uptime_seconds", "Time since the router started.", 3,
		func() float64 { return time.Since(now).Seconds() })
	m.workerUp = reg.GaugeVec("eliterouter_worker_up",
		"Whether the health prober considers the worker servable (up or probation).",
		obs.GaugeShortest, "worker")
	m.available = reg.Gauge("eliterouter_workers_available", "Workers currently servable.", obs.GaugeShortest)
	m.breakerOpen = reg.GaugeVec("eliterouter_breaker_open",
		"Whether the worker's request circuit breaker is open.",
		obs.GaugeShortest, "worker")
	m.requests = reg.CounterVec("eliterouter_requests_total",
		"Routed requests by route class and status code.", "route", "code")
	m.latency = reg.Histogram("eliterouter_request_duration_seconds",
		"Routed request latency.", obs.DefaultLatencyBuckets)

	m.retries = reg.Counter("eliterouter_retries_total", "Failover attempts launched after a failed attempt.")
	m.failovers = reg.Counter("eliterouter_failovers_total", "Responses served by a worker other than the rendezvous primary.")
	reg.CounterFunc("eliterouter_breaker_trips_total", "Per-worker circuit breaker open transitions.",
		m.brTrips.Load)
	m.degraded = reg.Counter("eliterouter_degraded_total", "Stored bodies served with a Warning because every attempt failed.")
	m.shed = reg.Counter("eliterouter_shed_total", "Requests shed with 503 (no worker available, no cached body).")
	m.bodyHits = reg.Counter("eliterouter_body_hits_total", "GETs answered clean from a worker's stored body, with no hop.")
	m.probeFails = reg.Counter("eliterouter_probe_failures_total", "Health probes that failed.")
	m.ejections = reg.Counter("eliterouter_ejections_total", "Workers ejected by the health prober.")
	m.readmissions = reg.Counter("eliterouter_readmissions_total", "Workers readmitted to probation after a healthy probe.")
	return m
}

// observeRequest records one routed request; traceID, when non-empty,
// becomes the latency bucket's exemplar.
func (m *fleetMetrics) observeRequest(route string, code int, d time.Duration, traceID string) {
	m.requests.Inc(route, strconv.Itoa(code))
	m.latency.ObserveExemplar(d.Seconds(), traceID)
}

// sync rebuilds the per-worker gauges and the trip total from a live
// snapshot; called by write before rendering.
func (m *fleetMetrics) sync(infos []workerInfo) {
	m.workerUp.Reset()
	m.breakerOpen.Reset()
	available := 0
	var trips uint64
	for _, wi := range infos {
		up := 0.0
		if wi.State != "down" {
			up = 1
			available++
		}
		m.workerUp.Set(up, wi.Worker)
		open := 0.0
		if wi.BreakerOpen {
			open = 1
		}
		m.breakerOpen.Set(open, wi.Worker)
		trips += wi.brTrips
	}
	m.available.Set(float64(available))
	m.brTrips.Store(trips)
}

// write renders the exposition in the requested flavor; infos carries
// the per-worker state rows.
func (m *fleetMetrics) write(w io.Writer, infos []workerInfo, om bool) {
	m.sync(infos)
	m.reg.Write(w, om)
}
