package obs

// front.go is the one instrumented request path both HTTP surfaces
// share: eliteserve wraps each of its routes in Front.Serve and
// eliterouter each proxied request, so the span, the request series,
// the latency exemplar and the request log record are defined once.

import (
	"log/slog"
	"net/http"
	"strconv"
	"time"
)

// Front instruments the requests of one HTTP surface: a span per
// request (continuing any inbound traceparent), the
// <prefix>_requests_total{route,code} counter, the
// <prefix>_request_duration_seconds histogram with trace-id exemplars,
// one "request" log record, and a span-tree dump of slow requests.
type Front struct {
	tracer   *Tracer
	logger   *slog.Logger
	slow     time.Duration
	requests *CounterVec
	latency  *Histogram
}

// NewFront registers prefix's request counter and latency histogram in
// reg. tracer and logger may be nil; slow > 0, with both set, logs the
// span tree of every request at least that slow.
func NewFront(reg *Registry, prefix string, tracer *Tracer, logger *slog.Logger, slow time.Duration) *Front {
	return &Front{
		tracer: tracer, logger: logger, slow: slow,
		requests: reg.CounterVec(prefix+"_requests_total",
			"HTTP requests by route and status code.", "route", "code"),
		latency: reg.Histogram(prefix+"_request_duration_seconds",
			"HTTP request latency.", DefaultLatencyBuckets),
	}
}

// statusRecorder captures the first status code a handler writes.
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

// Serve runs h as one request of route, a stable label (never a raw
// path, which would explode series cardinality), under a span named
// spanName that h finds in the request's context. A request h answered
// with nothing is counted as 499: the client went away mid-request.
func (f *Front) Serve(w http.ResponseWriter, r *http.Request, spanName, route string, h http.HandlerFunc) {
	start := time.Now()
	rec := &statusRecorder{ResponseWriter: w}
	sp := f.tracer.StartFromHeader(r.Header, spanName)
	if sp != nil {
		sp.SetAttr("route", route)
		sp.SetAttr("method", r.Method)
		sp.SetAttr("path", r.URL.Path)
		r = r.WithContext(ContextWithSpan(r.Context(), sp))
	}
	h(rec, r)
	code := rec.status
	if code == 0 {
		code = 499
	}
	dur := time.Since(start)
	traceID := ""
	if sp != nil {
		traceID = sp.TraceID().String()
		sp.SetAttrInt("status", code)
		sp.End()
	}
	f.requests.Inc(route, strconv.Itoa(code))
	f.latency.ObserveExemplar(dur.Seconds(), traceID)
	if f.logger == nil {
		return
	}
	l := WithSpan(f.logger, sp)
	l.Info("request",
		"route", route, "method", r.Method, "path", r.URL.Path,
		"status", code, "dur_ms", float64(dur.Microseconds())/1000)
	if f.slow > 0 && dur >= f.slow && sp != nil {
		l.Warn("slow request",
			"threshold", f.slow.String(),
			"span_tree", "\n"+RenderTree(f.tracer.TraceSpans(traceID)))
	}
}
