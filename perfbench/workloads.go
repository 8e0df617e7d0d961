package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"elites/internal/cache"
	"elites/internal/core"
	"elites/internal/features"
	"elites/internal/mathx"
	"elites/internal/obs"
)

// workloads.go holds the three workloads and the loops that drive them.
// Each reports the same end-to-end metrics — latency_p50_ms of its
// requests and cpu_ms_per_req, the process CPU time per request — plus
// the workload's own figures under the names README.md lists.

// sample is one measured request.
type sample struct {
	op   op
	resp response
	lat  float64 // ms, from send (closed loop) or due time (open loop)
	late float64 // ms the open-loop generator sent after the due time
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func latencies(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = s.lat
	}
	return out
}

// verify counts ss as attempted and fails every op that returned
// non-200, carried a Warning or degraded header, or whose body differs
// from the reference.
func (b *bench) verify(res *result, ss []sample) {
	for _, s := range ss {
		res.attempted++
		why := ""
		switch {
		case s.resp.status != 200:
			why = "status " + strconv.Itoa(s.resp.status)
		case s.resp.warning:
			why = "degraded response"
		default:
			want, err := b.ref.expect(s.op)
			if err != nil {
				why = err.Error()
			} else if want != s.resp.sum {
				why = "body differs from the reference"
			}
		}
		if why != "" {
			res.failed++
			if res.failed <= 5 {
				fmt.Fprintf(b.errOut, "perfbench: %s %s: %s\n", s.op.method, s.op.target, why)
			}
		}
	}
}

// opStats are the wall clock and process CPU time, in ms, of each op of a
// workload: a cold report, a rehydrate catalogue.
type opStats struct{ wall, cpu []float64 }

// timed runs fn as one op and records it.
func (o *opStats) timed(fn func() []sample) []sample {
	start, cpu := time.Now(), cpuSeconds()
	ss := fn()
	o.wall = append(o.wall, ms(time.Since(start)))
	o.cpu = append(o.cpu, (cpuSeconds()-cpu)*1000)
	return ss
}

// endToEnd is the reported end-to-end pair: the median op time and the
// median CPU time of an op.
func (o *opStats) endToEnd() []metric {
	return []metric{
		{"op_p50_ms", median(o.wall), "ms"},
		{"cpu_ms_per_op", median(o.cpu), "ms"},
	}
}

// openLoop sends ops at Poisson arrivals of the given rate for d, with at
// most inflight outstanding; a request that finds them all busy waits and
// is late. Latency counts from the due time.
func openLoop(f *fleetUnderTest, next func() op, arrivals *mathx.RNG, rate float64, d time.Duration, inflight int) []sample {
	sem := make(chan struct{}, inflight)
	var mu sync.Mutex
	var out []sample
	var wg sync.WaitGroup
	start := time.Now()
	at := 0.0
	for {
		at += arrivals.Exponential(rate)
		if at >= d.Seconds() {
			break
		}
		due := start.Add(time.Duration(at * float64(time.Second)))
		time.Sleep(time.Until(due))
		sem <- struct{}{}
		late := time.Since(due)
		o := next()
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := f.do(o)
			lat := time.Since(due)
			<-sem
			mu.Lock()
			out = append(out, sample{op: o, resp: r, lat: ms(lat), late: ms(late)})
			mu.Unlock()
		}()
	}
	wg.Wait()
	return out
}

// budget is the measurement time.
func (b *bench) budget() time.Duration {
	return time.Duration(b.cfg.seconds * float64(time.Second))
}

// layers fills res's per-layer metrics and span table from a traced run.
func (b *bench) layers(res *result, p *probe, overhead float64) error {
	spans, err := p.sink.spans()
	if err != nil {
		return err
	}
	res.badExpo += p.c.badExpo
	res.layer, res.spans = layerMetrics(p, spans, overhead)
	return nil
}

// iterations runs one fresh-fleet iteration after another until d has
// passed (at least one). Each iteration's fleet is measured through p
// when p is non-nil; the measured part is one op, recorded in ops.
func iterations(d time.Duration, p *probe, ops *opStats, iter func(measure func(*fleetUnderTest, func() []sample) ([]sample, error)) ([]sample, error)) ([]sample, error) {
	measure := func(f *fleetUnderTest, fn func() []sample) ([]sample, error) {
		op := func() []sample { return ops.timed(fn) }
		if p == nil {
			return op(), nil
		}
		return p.measure(f, op)
	}
	var out []sample
	start := time.Now()
	for len(out) == 0 || time.Since(start) < d {
		ss, err := iter(measure)
		if err != nil {
			return nil, err
		}
		out = append(out, ss...)
	}
	return out, nil
}

// closedRun measures a closed-loop workload made of fresh-fleet
// iterations: untraced for the whole budget, or, with -trace 1, half
// untraced (the overhead baseline) and half traced. It fills res.e2e.
func (b *bench) closedRun(res *result, run func(tracer *obs.Tracer, d time.Duration, p *probe, ops *opStats) ([]sample, error)) ([]sample, *opStats, error) {
	var plainOps opStats
	if !b.cfg.trace {
		ss, err := run(nil, b.budget(), nil, &plainOps)
		if err != nil {
			return nil, nil, err
		}
		b.verify(res, ss)
		res.e2e = plainOps.endToEnd()
		return ss, &plainOps, nil
	}
	plain, err := run(nil, b.budget()/2, nil, &plainOps)
	if err != nil {
		return nil, nil, err
	}
	p := &probe{sink: &memSink{}}
	var tracedOps opStats
	traced, err := run(newTracer(b.cfg.seed, p.sink), b.budget()/2, p, &tracedOps)
	if err != nil {
		return nil, nil, err
	}
	b.verify(res, plain)
	b.verify(res, traced)
	return nil, nil, b.layers(res, p, median(tracedOps.wall)/median(plainOps.wall)-1)
}

// --- cold-battery -----------------------------------------------------------------

// coldBattery: one client; every iteration builds a fresh fleet over an
// empty cache dir and sends one full report GET (features on).
func coldBattery(b *bench) (*result, error) {
	res := &result{}
	o := getOp(datasetPath("/report"))
	run := func(tracer *obs.Tracer, d time.Duration, p *probe, ops *opStats) ([]sample, error) {
		return iterations(d, p, ops, func(measure func(*fleetUnderTest, func() []sample) ([]sample, error)) ([]sample, error) {
			dir, err := os.MkdirTemp(b.dir, "cold-")
			if err != nil {
				return nil, err
			}
			defer os.RemoveAll(dir)
			defer cache.Release(dir)
			f, err := b.newFleet(dir, tracer)
			if err != nil {
				return nil, err
			}
			defer f.close()
			return measure(f, func() []sample {
				r := f.do(o)
				return []sample{{op: o, resp: r, lat: ms(r.dur)}}
			})
		})
	}
	ss, ops, err := b.closedRun(res, run)
	if err != nil || b.cfg.trace {
		return res, err
	}
	res.info = []metric{
		{"cold_report_s", median(ops.wall) / 1000, "s"},
		{"cold_report_max_s", percentile(ops.wall, 1) / 1000, "s"},
		{"cold_reports", float64(len(ss)), "count"},
	}
	return res, nil
}

// --- warm-mix -----------------------------------------------------------------------

// zipfS is the exponent of the rank popularity law feature traffic draws
// from.
const zipfS = 1.1

// warmReports are the report identities of warm-mix: full json and text,
// and stage subsets in both formats.
var warmReports = []string{
	"/report",
	"/report?format=text",
	"/report?stages=summary,degree",
	"/report?stages=reciprocity,distances&format=text",
	"/report?stages=centrality",
	"/report?stages=mutualcore,activity",
}

func featureOp(rank int) op { return getOp(datasetPath(fmt.Sprintf("/users/%d/features", rank))) }

func batchOp(ranks []int) op {
	parts := make([]string, len(ranks))
	for i, r := range ranks {
		parts[i] = strconv.Itoa(r)
	}
	return op{method: "POST", target: datasetPath("/users:batch"), body: []byte(`{"ranks":[` + strings.Join(parts, ",") + `]}`)}
}

// mix is warm-mix's request stream: 40% report GETs over warmReports,
// 40% feature GETs for Zipf-drawn ranks, 20% batches of 8 Zipf ranks.
type mix struct {
	rng  *mathx.RNG
	zipf *mathx.ZipfSampler
}

func (b *bench) newMix(label string) *mix {
	return &mix{
		rng:  mathx.NewRNG(b.cfg.seed).Derive("perfbench/mix/" + label),
		zipf: mathx.NewZipfSampler(len(b.byRank), zipfS),
	}
}

func (m *mix) next() op {
	u := m.rng.Float64()
	switch {
	case u < 0.4:
		return getOp(datasetPath(warmReports[m.rng.Intn(len(warmReports))]))
	case u < 0.8:
		return featureOp(m.zipf.Sample(m.rng))
	}
	ranks := make([]int, 8)
	for i := range ranks {
		ranks[i] = m.zipf.Sample(m.rng)
	}
	return batchOp(ranks)
}

// The warm-mix rate ladder. The rates are fixed, so a faster program is
// offered the same load. The low rung is near a quarter of the rate two
// closed-loop clients sustain on a 2-core Xeon with the cache dir on
// ext4; each further rung doubles the rate, up to maxRung rungs, while
// the previous one met the latency limit.
const (
	lowRPS  = 400
	maxRung = 4
	sloP99  = 10.0 // ms
)

// rungRPS is the offered rate of rung k.
func rungRPS(k int) float64 { return lowRPS * float64(int(1)<<k) }

// warmMix: after a priming pass, an open loop climbs the rate ladder with
// at most two requests in flight. The low and high (2×) rungs always run.
func warmMix(b *bench) (*result, error) {
	res := &result{}
	f, err := b.primedFleet(nil)
	if err != nil {
		return nil, err
	}
	defer func() { f.close() }()
	rung := func(f *fleetUnderTest, k int, share float64, p *probe) ([]sample, error) {
		label := "rung" + strconv.Itoa(k)
		fn := func() []sample {
			d := time.Duration(share * float64(b.budget()))
			arrivals := mathx.NewRNG(b.cfg.seed).Derive("perfbench/arrivals/" + label)
			return openLoop(f, b.newMix(label).next, arrivals, rungRPS(k), d, 2)
		}
		if p == nil {
			return fn(), nil
		}
		return p.measure(f, fn)
	}

	if b.cfg.trace {
		// An untraced low rung for the overhead baseline, then the low and
		// high rungs on a traced fleet primed the same way.
		plain, _ := rung(f, 0, 0.3, nil)
		b.verify(res, plain)
		f.close()
		p := &probe{sink: &memSink{}}
		if f, err = b.primedFleet(newTracer(b.cfg.seed, p.sink)); err != nil {
			return nil, err
		}
		low, err := rung(f, 0, 0.35, p)
		if err != nil {
			return nil, err
		}
		high, err := rung(f, 1, 0.35, p)
		if err != nil {
			return nil, err
		}
		b.verify(res, low)
		b.verify(res, high)
		return res, b.layers(res, p, median(latencies(low))/median(latencies(plain))-1)
	}

	cpu := cpuSeconds()
	low, _ := rung(f, 0, 0.4, nil)
	lowCPU := cpuSeconds() - cpu
	high, _ := rung(f, 1, 0.3, nil)
	b.verify(res, low)
	b.verify(res, high)
	maxRPS := 0.0
	var late []float64
	for k, ss := range [][]sample{low, high} {
		late = append(late, lateness(ss)...)
		if percentile(latencies(ss), 0.99) <= sloP99 {
			maxRPS = rungRPS(k)
		}
	}
	// Climb further while the last rung met the limit.
	for k := 2; k < maxRung && maxRPS == rungRPS(k-1); k++ {
		ss, _ := rung(f, k, 0.1, nil)
		b.verify(res, ss)
		if percentile(latencies(ss), 0.99) <= sloP99 {
			maxRPS = rungRPS(k)
		}
	}
	ll, hl := latencies(low), latencies(high)
	// An op here is one request; its CPU time is the rung's average.
	res.e2e = []metric{
		{"op_p50_ms", median(ll), "ms"},
		{"cpu_ms_per_op", lowCPU * 1000 / float64(max(len(low), 1)), "ms"},
	}
	res.info = []metric{
		{"warm_p50_ms", median(ll), "ms"},
		{"warm_p99_ms", percentile(ll, 0.99), "ms"},
		{"warm_high_p50_ms", median(hl), "ms"},
		{"warm_high_p99_ms", percentile(hl, 0.99), "ms"},
		{"warm_max_rps", maxRPS, "1/s"},
		{"warm_low_samples", float64(len(low)), "count"},
		{"warm_high_samples", float64(len(high)), "count"},
		{"gen_late_p99_ms", percentile(late, 0.99), "ms"},
	}
	for _, route := range servedRoutes {
		var l []float64
		for _, s := range low {
			if routeOf(s.op) == route {
				l = append(l, s.lat)
			}
		}
		if len(l) > 0 {
			res.info = append(res.info, metric{"warm_p50_ms." + route, median(l), "ms"})
		}
	}
	return res, nil
}

func lateness(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = s.late
	}
	return out
}

// primedFleet builds a fleet over the reference cache dir and primes it:
// every report identity through the router and on both workers (so a
// hedge lands warm too), then a short pass of the mix.
func (b *bench) primedFleet(tracer *obs.Tracer) (*fleetUnderTest, error) {
	f, err := b.newFleet(b.refDir, tracer)
	if err != nil {
		return nil, err
	}
	for _, t := range warmReports {
		o := getOp(datasetPath(t))
		if r := f.do(o); r.status != 200 {
			f.close()
			return nil, fmt.Errorf("priming %s: status %d", t, r.status)
		}
		for i := range f.workers {
			if err := f.direct(i, o); err != nil {
				f.close()
				return nil, fmt.Errorf("priming: %w", err)
			}
		}
	}
	m := b.newMix("prime")
	for i := 0; i < 200; i++ {
		f.do(m.next())
	}
	return f, nil
}

// --- rehydrate ----------------------------------------------------------------------

// catItem is one catalogue entry; a twin is sent as two identical
// concurrent requests.
type catItem struct {
	op   op
	twin bool
}

// catalogue is rehydrate's fixed request list: every stage (each with a
// concurrent twin), full json and text reports, one feature GET per
// feature shard, and one batch of those ranks.
func (b *bench) catalogue() []catItem {
	var items []catItem
	for _, s := range core.StageNames() {
		items = append(items, catItem{getOp(datasetPath("/stages/" + s)), true})
	}
	items = append(items, catItem{op: getOp(datasetPath("/report"))}, catItem{op: getOp(datasetPath("/report?format=text"))})
	ranks := b.shardRanks()
	for _, r := range ranks {
		items = append(items, catItem{op: featureOp(r)})
	}
	return append(items, catItem{op: batchOp(ranks)})
}

// shardRanks returns, for each feature shard, the best rank whose user
// falls in it.
func (b *bench) shardRanks() []int {
	n := len(b.byRank)
	ranks := make([]int, features.NumShards(n))
	for rank := n; rank >= 1; rank-- {
		ranks[int(b.byRank[rank-1])/features.ShardRows] = rank
	}
	return ranks
}

func runCatalogue(f *fleetUnderTest, items []catItem) []sample {
	var out []sample
	for _, it := range items {
		if !it.twin {
			r := f.do(it.op)
			out = append(out, sample{op: it.op, resp: r, lat: ms(r.dur)})
			continue
		}
		var twin response
		done := make(chan struct{})
		go func() {
			defer close(done)
			twin = f.do(it.op)
		}()
		r := f.do(it.op)
		<-done
		out = append(out, sample{op: it.op, resp: r, lat: ms(r.dur)}, sample{op: it.op, resp: twin, lat: ms(twin.dur)})
	}
	return out
}

// rehydrate: every iteration drops the memory tier of the cache dir the
// reference run primed, builds a fresh fleet over it and sends the
// catalogue.
func rehydrate(b *bench) (*result, error) {
	res := &result{}
	items := b.catalogue()
	cc, err := cache.New(b.refDir)
	if err != nil {
		return nil, err
	}
	run := func(tracer *obs.Tracer, d time.Duration, p *probe, ops *opStats) ([]sample, error) {
		return iterations(d, p, ops, func(measure func(*fleetUnderTest, func() []sample) ([]sample, error)) ([]sample, error) {
			cc.DropMemory()
			f, err := b.newFleet(b.refDir, tracer)
			if err != nil {
				return nil, err
			}
			defer f.close()
			return measure(f, func() []sample { return runCatalogue(f, items) })
		})
	}
	ss, ops, err := b.closedRun(res, run)
	if err != nil || b.cfg.trace {
		return res, err
	}
	lat := latencies(ss)
	res.info = []metric{
		{"rehydrate_s", median(ops.wall) / 1000, "s"},
		{"rehydrate_p50_ms", median(lat), "ms"},
		{"rehydrate_p95_ms", percentile(lat, 0.95), "ms"},
		{"rehydrate_iterations", float64(len(ops.wall)), "count"},
		{"rehydrate_requests", float64(len(ss)), "count"},
	}
	return res, nil
}
