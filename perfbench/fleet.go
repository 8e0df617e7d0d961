package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"

	"elites/internal/cache"
	"elites/internal/fleet"
	"elites/internal/obs"
	"elites/internal/serve"
)

// fleet.go builds the system under test — two serve.Server workers on
// httptest listeners behind a fleet.Router, sharing one cache dir — and
// drives it. The benchmark calls Router.ServeHTTP in-process, so client
// latency is the router hop plus the worker round trip and nothing else.

// op is one request the benchmark sends.
type op struct {
	method string
	target string
	body   []byte
}

func getOp(target string) op { return op{method: http.MethodGet, target: target} }

// key is the request identity the reference is memoized under.
func (o op) key() string { return o.method + " " + o.target + " " + string(o.body) }

func datasetPath(rest string) string { return "/v1/datasets/" + datasetID + rest }

// routeOf names the worker route o is served by.
func routeOf(o op) string {
	switch p := o.target; {
	case strings.Contains(p, "/report"):
		return "report"
	case strings.Contains(p, "/stages/"):
		return "stage"
	case strings.HasSuffix(p, "/features"):
		return "user_features"
	}
	return "users_batch"
}

// response is what the benchmark keeps of one answer.
type response struct {
	status  int
	warning bool // Warning or X-Elites-Degraded header present
	size    int
	sum     [32]byte
	dur     time.Duration // time inside Router.ServeHTTP
}

// fleetUnderTest is one running fleet.
type fleetUnderTest struct {
	dir     string
	router  *fleet.Router
	workers []*httptest.Server
	tracer  *obs.Tracer // nil when untraced
	cache   *cache.Cache
}

// workerTimer wraps a worker's ServeHTTP in a "bench.worker" span
// (traced fleets only) and re-injects that span as the traceparent, so
// the worker's own serve.<route> span nests under it.
type workerTimer struct {
	next   http.Handler
	tracer *obs.Tracer
}

func (h workerTimer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if h.tracer == nil || !strings.HasPrefix(r.URL.Path, "/v1/datasets/") {
		h.next.ServeHTTP(w, r)
		return
	}
	sp := h.tracer.StartFromHeader(r.Header, "bench.worker")
	obs.InjectHeader(r.Header, sp)
	h.next.ServeHTTP(w, r)
	sp.End()
}

// newFleet starts two workers and a router over cache dir dir. A non-nil
// tracer is shared by the router, both workers and the benchmark's own
// spans.
func (b *bench) newFleet(dir string, tracer *obs.Tracer) (*fleetUnderTest, error) {
	cc, err := cache.New(dir)
	if err != nil {
		return nil, err
	}
	f := &fleetUnderTest{dir: dir, tracer: tracer, cache: cc}
	var urls []string
	for i := 0; i < 2; i++ {
		s := serve.New(serve.Config{Options: serverOptions(b.cfg.seed, dir), Tracer: tracer})
		if err := s.RegisterDataset(datasetID, b.ds, b.activity, "perfbench"); err != nil {
			f.close()
			return nil, err
		}
		ts := httptest.NewServer(workerTimer{next: s, tracer: tracer})
		f.workers = append(f.workers, ts)
		urls = append(urls, ts.URL)
	}
	rt, err := fleet.New(fleet.Config{Workers: urls, CacheDir: dir, Seed: b.cfg.seed, Tracer: tracer})
	if err != nil {
		f.close()
		return nil, err
	}
	f.router = rt
	// One synchronous probe learns the dataset digest, so identity keys
	// match the workers' from the first request; then probe as deployed.
	rt.ProbeNow(context.Background())
	rt.Start()
	return f, nil
}

// close stops the router's prober and both workers.
func (f *fleetUnderTest) close() {
	if f.router != nil {
		f.router.Close()
	}
	for _, ts := range f.workers {
		ts.Close()
	}
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
}

// do sends o through the router and records the answer.
func (f *fleetUnderTest) do(o op) response {
	var body io.Reader
	if o.body != nil {
		body = bytes.NewReader(o.body)
	}
	req := httptest.NewRequest(o.method, o.target, body)
	if o.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	sp := f.tracer.Root("bench.client")
	obs.InjectHeader(req.Header, sp)
	rec := httptest.NewRecorder()
	start := time.Now()
	f.router.ServeHTTP(rec, req)
	dur := time.Since(start)
	sp.End()
	return response{
		status:  rec.Code,
		warning: rec.Header().Get("Warning") != "" || rec.Header().Get("X-Elites-Degraded") != "",
		size:    rec.Body.Len(),
		sum:     sha256.Sum256(rec.Body.Bytes()),
		dur:     dur,
	}
}

// direct sends o straight to worker i, bypassing the router (priming).
func (f *fleetUnderTest) direct(i int, o op) error {
	req, err := http.NewRequest(o.method, f.workers[i].URL+o.target, bytes.NewReader(o.body))
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s on worker %d: status %d", o.target, i, resp.StatusCode)
	}
	return nil
}

// --- counters -------------------------------------------------------------------

// counters are the cumulative figures the per-layer metrics difference:
// router and worker /metrics, the shared cache instance's Stats, the
// cache dir's size and the Go runtime's allocation and CPU accounting.
type counters struct {
	retries, hedges, failovers, shed   float64
	runs, coalesced, bodyHits, dataReq float64
	shardHits                          float64
	cacheHits, cacheMisses, ioErrors   float64
	dirBytes                           float64
	allocBytes, gcCPU, totalCPU        float64
	badExpo                            int
}

// servedRoutes are the worker routes the benchmark sends traffic to.
var servedRoutes = []string{"report", "stage", "user_features", "users_batch"}

// snapshot reads every counter now. Both /metrics endpoints are checked
// with obs.ValidateExposition; an invalid one is counted in badExpo.
func (f *fleetUnderTest) snapshot() (counters, error) {
	var c counters
	rec := httptest.NewRecorder()
	f.router.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	rm, bad := parseExposition(rec.Body.Bytes())
	c.badExpo += bad
	c.retries = rm.sum("eliterouter_retries_total")
	c.hedges = rm.sum("eliterouter_hedges_total")
	c.failovers = rm.sum("eliterouter_failovers_total")
	c.shed = rm.sum("eliterouter_shed_total")
	for _, ts := range f.workers {
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			return c, err
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return c, err
		}
		wm, bad := parseExposition(raw)
		c.badExpo += bad
		c.runs += wm.sum("eliteserve_runs_total")
		c.coalesced += wm.sum("eliteserve_coalesced_requests_total")
		c.bodyHits += wm.sum("eliteserve_body_cache_hits_total")
		c.shardHits += wm.sum("eliteserve_feature_shard_hits_total")
		for _, route := range servedRoutes {
			c.dataReq += wm.sum("eliteserve_requests_total", `route="`+route+`"`)
		}
	}
	st := f.cache.Stats()
	c.cacheHits, c.cacheMisses, c.ioErrors = float64(st.Hits), float64(st.Misses), float64(st.IOErrors)
	c.dirBytes = float64(dirSize(f.dir))
	rt := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(rt)
	c.allocBytes = float64(rt[0].Value.Uint64())
	c.gcCPU, c.totalCPU = rt[1].Value.Float64(), rt[2].Value.Float64()
	return c, nil
}

// sub returns c - o, field by field.
func (c counters) sub(o counters) counters {
	return counters{
		retries: c.retries - o.retries, hedges: c.hedges - o.hedges,
		failovers: c.failovers - o.failovers, shed: c.shed - o.shed,
		runs: c.runs - o.runs, coalesced: c.coalesced - o.coalesced,
		bodyHits: c.bodyHits - o.bodyHits, dataReq: c.dataReq - o.dataReq,
		shardHits: c.shardHits - o.shardHits,
		cacheHits: c.cacheHits - o.cacheHits, cacheMisses: c.cacheMisses - o.cacheMisses,
		ioErrors: c.ioErrors - o.ioErrors, dirBytes: c.dirBytes - o.dirBytes,
		allocBytes: c.allocBytes - o.allocBytes,
		gcCPU:      c.gcCPU - o.gcCPU, totalCPU: c.totalCPU - o.totalCPU,
		badExpo: c.badExpo - o.badExpo,
	}
}

// add accumulates a delta into c.
func (c *counters) add(d counters) {
	c.retries += d.retries
	c.hedges += d.hedges
	c.failovers += d.failovers
	c.shed += d.shed
	c.runs += d.runs
	c.coalesced += d.coalesced
	c.bodyHits += d.bodyHits
	c.dataReq += d.dataReq
	c.shardHits += d.shardHits
	c.cacheHits += d.cacheHits
	c.cacheMisses += d.cacheMisses
	c.ioErrors += d.ioErrors
	c.dirBytes += d.dirBytes
	c.allocBytes += d.allocBytes
	c.gcCPU += d.gcCPU
	c.totalCPU += d.totalCPU
	c.badExpo += d.badExpo
}

// exposition is a parsed /metrics body: series text -> value.
type exposition map[string]float64

// parseExposition validates b and parses its samples; bad is 1 when the
// exposition is invalid.
func parseExposition(b []byte) (exp exposition, bad int) {
	if err := obs.ValidateExposition(b); err != nil {
		bad = 1
	}
	exp = exposition{}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		series, rest := line, ""
		if i := strings.LastIndexByte(line, '}'); i >= 0 {
			series, rest = line[:i+1], line[i+1:]
		} else if i := strings.IndexByte(line, ' '); i >= 0 {
			series, rest = line[:i], line[i:]
		}
		fields := strings.Fields(rest)
		if len(fields) == 0 {
			continue
		}
		if v, err := strconv.ParseFloat(fields[0], 64); err == nil {
			exp[series] = v
		}
	}
	return exp, bad
}

// sum adds every series of family name whose labels contain all of want.
func (e exposition) sum(name string, want ...string) float64 {
	total := 0.0
	for series, v := range e {
		if series != name && !strings.HasPrefix(series, name+"{") {
			continue
		}
		ok := true
		for _, w := range want {
			ok = ok && strings.Contains(series, w)
		}
		if ok {
			total += v
		}
	}
	return total
}

// dirSize is the total size of the regular files under dir.
func dirSize(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if info, ierr := d.Info(); ierr == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}
