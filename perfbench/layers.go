package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"

	"elites/internal/core"
	"elites/internal/obs"
)

// layers.go turns a traced run into the per-layer metrics: an in-memory
// span sink, span aggregation by name with self time, and the counters
// the fleet exposes, all normalized per client request.

// memSink is the tracer's Sink: while recording it keeps every finished
// span's JSON line in memory, so none is lost to the tracer's fixed-size
// ring. Spans that end outside a measured phase (fleet start-up,
// priming) are dropped.
type memSink struct {
	mu        sync.Mutex
	buf       bytes.Buffer
	recording bool
}

func (s *memSink) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.recording {
		return len(p), nil
	}
	return s.buf.Write(p)
}

func (s *memSink) record(on bool) {
	s.mu.Lock()
	s.recording = on
	s.mu.Unlock()
}

// spans decodes every recorded span.
func (s *memSink) spans() ([]obs.SpanRecord, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []obs.SpanRecord
	sc := bufio.NewScanner(bytes.NewReader(s.buf.Bytes()))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var rec obs.SpanRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, err
		}
		out = append(out, rec)
	}
	return out, sc.Err()
}

// newTracer returns a tracer recording into sink.
func newTracer(seed uint64, sink *memSink) *obs.Tracer {
	return obs.NewTracer(obs.TracerConfig{Name: "perfbench", Seed: seed, Sink: sink})
}

// probe accumulates what the per-layer metrics need over the traced
// phases of a run: counter deltas and client-side tallies.
type probe struct {
	sink     *memSink
	c        counters
	requests int
	lkgBytes float64 // body bytes of clean cacheable GETs
	late     []float64
}

// measure runs fn on f between two counter snapshots, recording its
// spans, and tallies its samples.
func (p *probe) measure(f *fleetUnderTest, fn func() []sample) ([]sample, error) {
	before, err := f.snapshot()
	if err != nil {
		return nil, err
	}
	p.sink.record(true)
	ss := fn()
	p.sink.record(false)
	after, err := f.snapshot()
	if err != nil {
		return nil, err
	}
	p.c.add(after.sub(before))
	for _, s := range ss {
		p.requests++
		p.late = append(p.late, s.late)
		if s.op.method == "GET" && s.resp.status == 200 && !s.resp.warning {
			p.lkgBytes += float64(s.resp.size)
		}
	}
	return ss, nil
}

// spanRow is one line of the span table: every span of one name.
type spanRow struct {
	name    string
	count   int
	totalMS float64
	p50MS   float64
	selfMS  float64
}

// spanIndex holds a traced run's spans with their parent/child links and
// per-span self time.
type spanIndex struct {
	spans    []obs.SpanRecord
	children map[string][]int // span id -> child indexes
	self     []float64        // per span, µs
}

func indexSpans(spans []obs.SpanRecord) *spanIndex {
	ix := &spanIndex{spans: spans, children: map[string][]int{}, self: make([]float64, len(spans))}
	for i, s := range spans {
		if s.Parent != "" {
			ix.children[s.Parent] = append(ix.children[s.Parent], i)
		}
	}
	for i, s := range spans {
		ix.self[i] = float64(s.DurUS) - ix.covered(s, ix.children[s.Span])
	}
	return ix
}

// covered is how many µs of parent's interval the spans at idx cover
// (their union, clipped to the parent).
func (ix *spanIndex) covered(parent obs.SpanRecord, idx []int) float64 {
	lo, hi := parent.StartUS, parent.StartUS+parent.DurUS
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, i := range idx {
		a, b := ix.spans[i].StartUS, ix.spans[i].StartUS+ix.spans[i].DurUS
		a, b = max(a, lo), min(b, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64
	end = lo
	for _, v := range ivs {
		if v.a > end {
			end = v.a
		}
		if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return float64(total)
}

// rows groups spans by name: count, total, p50 and summed self time.
func (ix *spanIndex) rows() []spanRow {
	durs := map[string][]float64{}
	self := map[string]float64{}
	for i, s := range ix.spans {
		durs[s.Name] = append(durs[s.Name], float64(s.DurUS)/1000)
		self[s.Name] += ix.self[i] / 1000
	}
	var rows []spanRow
	for name, ds := range durs {
		total := 0.0
		for _, d := range ds {
			total += d
		}
		rows = append(rows, spanRow{name, len(ds), total, median(ds), self[name]})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].name < rows[j].name })
	return rows
}

// durations returns the durations (µs) of spans named name that satisfy
// keep (nil keeps all).
func (ix *spanIndex) durations(name string, keep func(obs.SpanRecord) bool) []float64 {
	var out []float64
	for _, s := range ix.spans {
		if s.Name == name && (keep == nil || keep(s)) {
			out = append(out, float64(s.DurUS))
		}
	}
	return out
}

// hops returns, per client request, its latency minus the time its
// worker handlers ran (the union of its bench.worker spans), in µs.
func (ix *spanIndex) hops() []float64 {
	workers := map[string][]int{}
	for i, s := range ix.spans {
		if s.Name == "bench.worker" {
			workers[s.Trace] = append(workers[s.Trace], i)
		}
	}
	var out []float64
	for _, s := range ix.spans {
		if s.Name == "bench.client" {
			out = append(out, float64(s.DurUS)-ix.covered(s, workers[s.Trace]))
		}
	}
	return out
}

func printSpanTable(w io.Writer, rows []spanRow) {
	fmt.Fprintf(w, "# span table (traced run): %-24s %8s %12s %10s %12s\n", "name", "count", "total_ms", "p50_ms", "self_ms")
	for _, r := range rows {
		fmt.Fprintf(w, "span %-46s %8d %12.3f %10.3f %12.3f\n", r.name, r.count, r.totalMS, r.p50MS, r.selfMS)
	}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// layerMetrics derives every per-layer metric from the traced phases'
// spans and counters. Counts are per client request; durations are
// medians or means per span as named. overhead is the traced run's
// primary latency over the untraced run's, minus one.
func layerMetrics(p *probe, spans []obs.SpanRecord, overhead float64) ([]metric, []spanRow) {
	ix := indexSpans(spans)
	reqs := float64(max(p.requests, 1))
	c := p.c
	per := func(x float64) float64 { return x / reqs }
	ms := []metric{
		{"fleet.hop_p50_us", median(ix.hops()), "us"},
		{"fleet.attempts_per_req", ratio(float64(len(ix.durations("router.attempt", nil))), float64(len(ix.durations("router.request", nil)))), "ratio"},
		{"fleet.retries", per(c.retries), "count/req"},
		{"fleet.hedges", per(c.hedges), "count/req"},
		{"fleet.failovers", per(c.failovers), "count/req"},
		{"fleet.shed", per(c.shed), "count/req"},
		{"fleet.lkg_bytes_per_req", per(p.lkgBytes), "B/req"},
	}
	for _, route := range servedRoutes {
		ms = append(ms, metric{"serve.handler_p50_us." + route, median(ix.durations("serve."+route, nil)), "us"})
	}
	served := map[string]bool{}
	for _, route := range servedRoutes {
		served["serve."+route] = true
	}
	var serveSelf []float64
	pipelines := 0
	var busy, wall, gaps float64
	for i, s := range ix.spans {
		switch {
		case served[s.Name]:
			serveSelf = append(serveSelf, ix.self[i]/1000)
		case s.Name == "pipeline":
			pipelines++
			kids := ix.children[s.Span]
			for _, k := range kids {
				busy += float64(ix.spans[k].DurUS)
			}
			wall += float64(s.DurUS)
			gaps += float64(s.DurUS) - ix.covered(s, kids)
		}
	}
	// Runs without a pipeline span are the feature tier's own runs: they
	// run on a context the coalescer detached from the request's span.
	tier3 := max(c.runs-float64(pipelines), 0)
	ms = append(ms,
		metric{"serve.self_ms", mean(serveSelf), "ms"},
		metric{"serve.body_hit_ratio", ratio(c.bodyHits, c.dataReq), "ratio"},
		metric{"serve.runs", per(c.runs), "count/req"},
		metric{"serve.coalesced", per(c.coalesced), "count/req"},
		metric{"serve.coalesce_ratio", ratio(c.coalesced, c.runs+c.coalesced), "ratio"},
		metric{"serve.admit_wait_ms", mean(ix.durations("admit", nil)) / 1000, "ms"},
		metric{"features.shard_hits", per(c.shardHits), "count/req"},
		metric{"features.tier3_runs", per(tier3), "count/req"},
	)
	for _, stage := range core.StageNames() {
		for _, hit := range []bool{true, false} {
			name := "stage." + stage + ".ms.miss"
			if hit {
				name = "stage." + stage + ".ms.hit"
			}
			want := strconv.FormatBool(hit)
			d := ix.durations("stage."+stage, func(s obs.SpanRecord) bool { return s.Attrs["cache_hit"] == want })
			ms = append(ms, metric{name, mean(d) / 1000, "ms"})
		}
	}
	ms = append(ms,
		metric{"pipeline.busy_share", ratio(busy, wall*float64(runtime.GOMAXPROCS(0))), "ratio"},
		metric{"pipeline.gap_ms", ratio(gaps, float64(pipelines)) / 1000, "ms"},
		metric{"cache.hits", per(c.cacheHits), "count/req"},
		metric{"cache.misses", per(c.cacheMisses), "count/req"},
		metric{"cache.hit_ratio", ratio(c.cacheHits, c.cacheHits+c.cacheMisses), "ratio"},
		metric{"cache.io_errors", per(c.ioErrors), "count/req"},
		metric{"cache.disk_bytes_written", per(c.dirBytes), "B/req"},
		metric{"go.alloc_bytes_per_op", per(c.allocBytes), "B/req"},
		metric{"go.gc_cpu_share", ratio(c.gcCPU, c.totalCPU), "ratio"},
		metric{"obs.trace_overhead_share", overhead, "ratio"},
		metric{"gen.late_p99_ms", percentile(p.late, 0.99), "ms"},
	)
	return ms, ix.rows()
}

// peakRSSMB is the process's peak resident set size in MiB (getrusage
// reports ru_maxrss in KiB on Linux).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}
