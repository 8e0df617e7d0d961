package obs

// metrics.go is the unified metrics registry both /metrics endpoints
// render from. It replaced the two hand-rolled emitters that used to
// live in internal/serve and internal/fleet (which had drifted on label
// escaping), so bucket layout, escaping and value formatting are now
// defined in exactly one place. The classic text render is
// byte-compatible with the old emitters — every pre-existing metric
// name, label and value format is preserved so CI greps and
// scripts/fleetload.sh keep working — and an OpenMetrics-flavored
// render adds trace-id exemplars on histogram buckets for clients that
// ask for it via Accept.

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultLatencyBuckets are the request-latency histogram upper bounds
// in seconds, shared by the server and the router.
var DefaultLatencyBuckets = []float64{
	0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30,
}

// GaugeShortest formats a gauge with the shortest exact representation
// (0 renders "0", 1 renders "1").
const GaugeShortest = -1

// family is anything the registry can render.
type family interface {
	render(w io.Writer, om bool)
}

// Registry holds metric families and renders them in registration
// order. All families it hands out are safe for concurrent use.
type Registry struct {
	mu       sync.Mutex
	families []family
	names    map[string]bool
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{names: map[string]bool{}}
}

// add registers fam under name, panicking on duplicates — a duplicate
// registration is a programming error worth failing loudly on.
func (r *Registry) add(name string, fam family) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.names[name] {
		panic("obs: duplicate metric " + name)
	}
	r.names[name] = true
	r.families = append(r.families, fam)
}

// Write renders every family in registration order. The classic form
// (om=false) is Prometheus text exposition 0.0.4, byte-compatible with
// the emitters it replaced; om=true appends histogram exemplars and a
// trailing "# EOF" marker in the OpenMetrics style.
func (r *Registry) Write(w io.Writer, om bool) {
	r.mu.Lock()
	fams := make([]family, len(r.families))
	copy(fams, r.families)
	r.mu.Unlock()
	for _, f := range fams {
		f.render(w, om)
	}
	if om {
		io.WriteString(w, "# EOF\n")
	}
}

// openMetricsContentType is what an OM render is served as.
const openMetricsContentType = "application/openmetrics-text; version=1.0.0; charset=utf-8"

// classicContentType is the classic exposition content type.
const classicContentType = "text/plain; version=0.0.4; charset=utf-8"

// ServeHTTP answers GET /metrics in the flavor the request's Accept
// header negotiates: OpenMetrics (with exemplars) only when explicitly
// requested, classic 0.0.4 otherwise.
func (r *Registry) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	ct, om := classicContentType, false
	if strings.Contains(req.Header.Get("Accept"), "application/openmetrics-text") {
		ct, om = openMetricsContentType, true
	}
	w.Header().Set("Content-Type", ct)
	r.Write(w, om)
}

// escapeLabel escapes a label value per the exposition format:
// backslash, double-quote and newline.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, c := range v {
		switch c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(c)
		}
	}
	return b.String()
}

// header writes the HELP/TYPE preamble for one family.
func header(w io.Writer, name, help, typ string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// Counter is a monotonically increasing integer metric.
type Counter struct {
	name string
	help string
	v    atomic.Uint64
}

// Counter registers and returns a new counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{name: name, help: help}
	r.add(name, c)
	return c
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value reads the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

func (c *Counter) render(w io.Writer, om bool) {
	header(w, c.name, c.help, "counter")
	fmt.Fprintf(w, "%s %d\n", c.name, c.v.Load())
}

// counterFunc is a counter whose value is computed at scrape time.
type counterFunc struct {
	name string
	help string
	fn   func() uint64
}

// CounterFunc registers a counter read from fn at scrape time — for
// totals owned by another subsystem (e.g. breaker trips summed from
// per-worker state).
func (r *Registry) CounterFunc(name, help string, fn func() uint64) {
	r.add(name, &counterFunc{name: name, help: help, fn: fn})
}

func (c *counterFunc) render(w io.Writer, om bool) {
	header(w, c.name, c.help, "counter")
	fmt.Fprintf(w, "%s %d\n", c.name, c.fn())
}

// formatGauge renders a gauge value: prec >= 0 is fixed-decimal %.Nf
// (how the old emitters printed uptime and ratios), GaugeShortest is
// the shortest exact form.
func formatGauge(v float64, prec int) string {
	if prec >= 0 {
		return strconv.FormatFloat(v, 'f', prec, 64)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Gauge is a settable float metric.
type Gauge struct {
	name string
	help string
	prec int
	bits atomic.Uint64
}

// Gauge registers and returns a settable gauge; prec fixes the rendered
// decimal places (GaugeShortest for shortest-form).
func (r *Registry) Gauge(name, help string, prec int) *Gauge {
	g := &Gauge{name: name, help: help, prec: prec}
	r.add(name, g)
	return g
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value reads the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

func (g *Gauge) render(w io.Writer, om bool) {
	header(w, g.name, g.help, "gauge")
	fmt.Fprintf(w, "%s %s\n", g.name, formatGauge(g.Value(), g.prec))
}

// gaugeFunc is a gauge computed at scrape time.
type gaugeFunc struct {
	name string
	help string
	prec int
	fn   func() float64
}

// GaugeFunc registers a gauge read from fn at scrape time.
func (r *Registry) GaugeFunc(name, help string, prec int, fn func() float64) {
	r.add(name, &gaugeFunc{name: name, help: help, prec: prec, fn: fn})
}

func (g *gaugeFunc) render(w io.Writer, om bool) {
	header(w, g.name, g.help, "gauge")
	fmt.Fprintf(w, "%s %s\n", g.name, formatGauge(g.fn(), g.prec))
}

// exemplar is the last trace-id exemplar observed for one bucket.
type exemplar struct {
	traceID string
	value   float64
	atUnix  float64
}

// Histogram is a fixed-bucket histogram with optional trace-id
// exemplars. Buckets are upper bounds in seconds (or any unit).
type Histogram struct {
	name    string
	help    string
	buckets []float64

	mu        sync.Mutex
	counts    []uint64 // len(buckets)+1; last is +Inf
	sum       float64
	count     uint64
	exemplars []exemplar // parallel to counts; zero traceID = none
}

// Histogram registers and returns a histogram over the given upper
// bounds (which must be sorted ascending).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	if !sort.Float64sAreSorted(buckets) {
		panic("obs: histogram buckets not sorted: " + name)
	}
	h := &Histogram{
		name:      name,
		help:      help,
		buckets:   buckets,
		counts:    make([]uint64, len(buckets)+1),
		exemplars: make([]exemplar, len(buckets)+1),
	}
	r.add(name, h)
	return h
}

// Observe records one value.
func (h *Histogram) Observe(v float64) { h.ObserveExemplar(v, "") }

// ObserveExemplar records one value and, when traceID is non-empty,
// remembers it as the bucket's exemplar (rendered only in the
// OpenMetrics flavor).
func (h *Histogram) ObserveExemplar(v float64, traceID string) {
	i := sort.SearchFloat64s(h.buckets, v)
	h.mu.Lock()
	h.counts[i]++
	h.sum += v
	h.count++
	if traceID != "" {
		h.exemplars[i] = exemplar{traceID: traceID, value: v, atUnix: float64(time.Now().UnixMilli()) / 1000}
	}
	h.mu.Unlock()
}

func (h *Histogram) render(w io.Writer, om bool) {
	h.mu.Lock()
	counts := make([]uint64, len(h.counts))
	copy(counts, h.counts)
	sum, count := h.sum, h.count
	exemplars := make([]exemplar, len(h.exemplars))
	copy(exemplars, h.exemplars)
	h.mu.Unlock()

	header(w, h.name, h.help, "histogram")
	cum := uint64(0)
	line := func(le string, i int) {
		fmt.Fprintf(w, "%s_bucket{le=%q} %d", h.name, le, cum)
		if om && exemplars[i].traceID != "" {
			ex := exemplars[i]
			fmt.Fprintf(w, " # {trace_id=%q} %g %.3f", ex.traceID, ex.value, ex.atUnix)
		}
		io.WriteString(w, "\n")
	}
	for i, ub := range h.buckets {
		cum += counts[i]
		line(strconv.FormatFloat(ub, 'g', -1, 64), i)
	}
	cum += counts[len(h.buckets)]
	line("+Inf", len(h.buckets))
	fmt.Fprintf(w, "%s_sum %.6f\n", h.name, sum)
	fmt.Fprintf(w, "%s_count %d\n", h.name, count)
}

// CounterVec is a family of counters keyed by label values.
type CounterVec struct {
	name   string
	help   string
	labels []string

	mu     sync.Mutex
	series map[string]*vecCounter
}

type vecCounter struct {
	values []string
	v      atomic.Uint64
}

// CounterVec registers and returns a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	v := &CounterVec{name: name, help: help, labels: labels, series: map[string]*vecCounter{}}
	r.add(name, v)
	return v
}

// Inc adds one to the series with the given label values (created on
// first use). len(values) must equal the label count.
func (v *CounterVec) Inc(values ...string) {
	if len(values) != len(v.labels) {
		panic("obs: label cardinality mismatch on " + v.name)
	}
	key := strings.Join(values, "\x00")
	v.mu.Lock()
	s, ok := v.series[key]
	if !ok {
		s = &vecCounter{values: append([]string(nil), values...)}
		v.series[key] = s
	}
	v.mu.Unlock()
	s.v.Add(1)
}

func (v *CounterVec) render(w io.Writer, om bool) {
	v.mu.Lock()
	all := make([]*vecCounter, 0, len(v.series))
	for _, s := range v.series {
		all = append(all, s)
	}
	v.mu.Unlock()
	sort.Slice(all, func(i, j int) bool {
		for k := range all[i].values {
			if all[i].values[k] != all[j].values[k] {
				return all[i].values[k] < all[j].values[k]
			}
		}
		return false
	})
	header(w, v.name, v.help, "counter")
	for _, s := range all {
		fmt.Fprintf(w, "%s%s %d\n", v.name, renderLabels(v.labels, s.values), s.v.Load())
	}
}

// GaugeVec is a family of settable gauges keyed by label values. Unlike
// CounterVec it supports Reset, so scrape handlers can rebuild
// per-worker state (up/breaker flags) from a live snapshot.
type GaugeVec struct {
	name   string
	help   string
	labels []string
	prec   int

	mu    sync.Mutex
	order []string
	vals  map[string]vecGaugeEntry
}

type vecGaugeEntry struct {
	values []string
	v      float64
}

// GaugeVec registers and returns a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, prec int, labels ...string) *GaugeVec {
	v := &GaugeVec{name: name, help: help, labels: labels, prec: prec, vals: map[string]vecGaugeEntry{}}
	r.add(name, v)
	return v
}

// Set stores val for the series with the given label values; series
// render in first-Set order (matching the old per-worker line order).
func (v *GaugeVec) Set(val float64, values ...string) {
	if len(values) != len(v.labels) {
		panic("obs: label cardinality mismatch on " + v.name)
	}
	key := strings.Join(values, "\x00")
	v.mu.Lock()
	if _, ok := v.vals[key]; !ok {
		v.order = append(v.order, key)
	}
	v.vals[key] = vecGaugeEntry{values: append([]string(nil), values...), v: val}
	v.mu.Unlock()
}

// Reset drops every series.
func (v *GaugeVec) Reset() {
	v.mu.Lock()
	v.order = v.order[:0]
	v.vals = map[string]vecGaugeEntry{}
	v.mu.Unlock()
}

func (v *GaugeVec) render(w io.Writer, om bool) {
	v.mu.Lock()
	entries := make([]vecGaugeEntry, 0, len(v.order))
	for _, key := range v.order {
		entries = append(entries, v.vals[key])
	}
	v.mu.Unlock()
	header(w, v.name, v.help, "gauge")
	for _, e := range entries {
		fmt.Fprintf(w, "%s%s %s\n", v.name, renderLabels(v.labels, e.values), formatGauge(e.v, v.prec))
	}
}

// renderLabels renders {k1="v1",k2="v2"} with exposition escaping.
func renderLabels(labels, values []string) string {
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}
