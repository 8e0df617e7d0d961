// Package obs is the zero-dependency observability layer shared by the
// router, the server and the CLI: request-scoped tracing with W3C
// traceparent propagation (trace.go, export.go), a Prometheus-text
// metrics registry both /metrics endpoints render from (metrics.go,
// expo.go), and log/slog-based structured logging with trace ids
// attached (log.go).
//
// The span model is deliberately small — trace id, span id, parent,
// start/duration, string attributes, timestamped events, and links to
// other traces (how a coalesced joiner points at the leader's run).
// Spans are created by a Tracer, carried through call trees in a
// context.Context, and recorded on End into a fixed-size ring buffer
// (served as JSON at /debug/traces) plus an optional JSONL sink.
//
// Ids come from a mathx.RNG stream derived from (seed, tracer name), the
// same Derive discipline every other stochastic component uses, so tests
// get deterministic trace ids from deterministic seeds. Every method is
// nil-receiver safe: a nil *Tracer starts nil *Spans and a nil *Span
// swallows attribute/event/End calls, so instrumented code paths need no
// "is tracing on" guards and a tracer-less Server runs with zero
// overhead beyond the nil checks.
package obs

import (
	"context"
	"encoding/hex"
	"io"
	"net/http"
	"sync"
	"time"

	"elites/internal/mathx"
)

// TraceID is the 128-bit W3C trace id.
type TraceID [16]byte

// SpanID is the 64-bit W3C span (parent) id.
type SpanID [8]byte

// IsZero reports whether the id is the invalid all-zero id.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// IsZero reports whether the id is the invalid all-zero id.
func (s SpanID) IsZero() bool { return s == SpanID{} }

// String renders the id as 32 lowercase hex digits.
func (t TraceID) String() string { return hex.EncodeToString(t[:]) }

// String renders the id as 16 lowercase hex digits.
func (s SpanID) String() string { return hex.EncodeToString(s[:]) }

// Attr is one key=value attribute on a span or event.
type Attr struct {
	Key   string `json:"k"`
	Value string `json:"v"`
}

// Event is one timestamped occurrence inside a span: a retry, an
// injected fault firing, a breaker opening.
type Event struct {
	Name  string
	Time  time.Time
	Attrs []Attr
}

// Span is one timed operation in a trace. Create spans through a Tracer
// (Root, Continue, Child) and finish them with End; a finished span is
// recorded into the tracer's ring buffer and sink. All methods are safe on
// a nil receiver and safe for concurrent use.
type Span struct {
	tracer *Tracer
	trace  TraceID
	id     SpanID
	parent SpanID
	name   string
	start  time.Time

	mu     sync.Mutex
	attrs  []Attr
	events []Event
	links  []TraceID
	ended  bool
}

// TraceID returns the span's trace id (zero for a nil span).
func (s *Span) TraceID() TraceID {
	if s == nil {
		return TraceID{}
	}
	return s.trace
}

// SpanID returns the span's own id (zero for a nil span).
func (s *Span) SpanID() SpanID {
	if s == nil {
		return SpanID{}
	}
	return s.id
}

// Name returns the span's operation name ("" for a nil span).
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// SetAttr sets a string attribute; the last write per key wins at export.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, Attr{key, value})
	s.mu.Unlock()
}

// SetAttrBool sets a boolean attribute ("true"/"false").
func (s *Span) SetAttrBool(key string, v bool) {
	if v {
		s.SetAttr(key, "true")
	} else {
		s.SetAttr(key, "false")
	}
}

// SetAttrInt sets an integer attribute.
func (s *Span) SetAttrInt(key string, v int) {
	s.SetAttr(key, itoa(v))
}

// AddEvent records an event at time.Now(); kv is alternating key, value.
func (s *Span) AddEvent(name string, kv ...string) {
	s.AddEventAt(name, time.Now(), kv...)
}

// AddEventAt records an event at an explicit time — how spans
// synthesized after the fact (the per-stage pipeline spans) place their
// retry and fault events inside the stage window.
func (s *Span) AddEventAt(name string, at time.Time, kv ...string) {
	if s == nil {
		return
	}
	ev := Event{Name: name, Time: at}
	for i := 0; i+1 < len(kv); i += 2 {
		ev.Attrs = append(ev.Attrs, Attr{kv[i], kv[i+1]})
	}
	s.mu.Lock()
	s.events = append(s.events, ev)
	s.mu.Unlock()
}

// AddLink records a pointer to another trace — a coalesced joiner links
// to the leader run's trace this way.
func (s *Span) AddLink(t TraceID) {
	if s == nil || t.IsZero() {
		return
	}
	s.mu.Lock()
	s.links = append(s.links, t)
	s.mu.Unlock()
}

// Child starts a child span under s, beginning now.
func (s *Span) Child(name string) *Span { return s.ChildAt(name, time.Now()) }

// ChildAt starts a child span with an explicit start time (for spans
// reconstructed from timings after the work already ran).
func (s *Span) ChildAt(name string, start time.Time) *Span {
	if s == nil || s.tracer == nil {
		return nil
	}
	return s.tracer.start(name, s.trace, s.id, start)
}

// End finishes the span now and records it.
func (s *Span) End() { s.EndAt(time.Now()) }

// EndAt finishes the span at an explicit end time and records it.
// Double-End is a no-op.
func (s *Span) EndAt(end time.Time) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	rec := s.recordLocked(end)
	s.mu.Unlock()
	if s.tracer != nil {
		s.tracer.record(rec)
	}
}

// recordLocked snapshots the span as an exportable record; s.mu held.
func (s *Span) recordLocked(end time.Time) SpanRecord {
	rec := SpanRecord{
		Trace:   s.trace.String(),
		Span:    s.id.String(),
		Name:    s.name,
		StartUS: s.start.UnixMicro(),
		DurUS:   end.Sub(s.start).Microseconds(),
	}
	if !s.parent.IsZero() {
		rec.Parent = s.parent.String()
	}
	if len(s.attrs) > 0 {
		rec.Attrs = make(map[string]string, len(s.attrs))
		for _, a := range s.attrs {
			rec.Attrs[a.Key] = a.Value
		}
	}
	for _, ev := range s.events {
		er := EventRecord{Name: ev.Name, AtUS: ev.Time.UnixMicro()}
		if len(ev.Attrs) > 0 {
			er.Attrs = make(map[string]string, len(ev.Attrs))
			for _, a := range ev.Attrs {
				er.Attrs[a.Key] = a.Value
			}
		}
		rec.Events = append(rec.Events, er)
	}
	for _, l := range s.links {
		rec.Links = append(rec.Links, l.String())
	}
	return rec
}

// TracerConfig configures a Tracer.
type TracerConfig struct {
	// Name distinguishes this tracer's id stream from other processes
	// started with the same seed (e.g. "eliteserve:127.0.0.1:9001") and
	// is attached to every span as the "service" attribute when set.
	Name string
	// Seed feeds the id stream via mathx.NewRNG(Seed).Derive, so ids are
	// deterministic per (seed, name) — the same discipline every other
	// stochastic component uses.
	Seed uint64
	// Sink, when non-nil, receives every finished span as one JSON line
	// (the -trace-out format cmd/traceview pretty-prints).
	Sink io.Writer
}

// Tracer creates spans and collects finished ones. Safe for concurrent
// use; a nil *Tracer is a valid no-op tracer.
type Tracer struct {
	name string

	mu   sync.Mutex
	rng  *mathx.RNG
	ring []SpanRecord
	next int
	full bool

	sinkMu sync.Mutex
	sink   io.Writer
}

// ringSize bounds the finished-span ring buffer.
const ringSize = 4096

// NewTracer builds a Tracer from cfg.
func NewTracer(cfg TracerConfig) *Tracer { return newTracer(cfg, ringSize) }

// newTracer is NewTracer keeping the newest size finished spans.
func newTracer(cfg TracerConfig, size int) *Tracer {
	return &Tracer{
		name: cfg.Name,
		rng:  mathx.NewRNG(cfg.Seed).Derive("obs/ids/" + cfg.Name),
		ring: make([]SpanRecord, size),
		sink: cfg.Sink,
	}
}

// newTraceID draws a fresh trace id.
func (t *Tracer) newTraceID() TraceID {
	var id TraceID
	t.mu.Lock()
	for id.IsZero() {
		putUint64(id[0:8], t.rng.Uint64())
		putUint64(id[8:16], t.rng.Uint64())
	}
	t.mu.Unlock()
	return id
}

// newSpanID draws a fresh span id; the caller holds no tracer locks.
func (t *Tracer) newSpanID() SpanID {
	var id SpanID
	t.mu.Lock()
	for id.IsZero() {
		putUint64(id[:], t.rng.Uint64())
	}
	t.mu.Unlock()
	return id
}

func putUint64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (56 - 8*i))
	}
}

// start builds a live span; trace may be zero (a fresh trace is drawn).
func (t *Tracer) start(name string, trace TraceID, parent SpanID, at time.Time) *Span {
	if t == nil {
		return nil
	}
	if trace.IsZero() {
		trace = t.newTraceID()
	}
	sp := &Span{tracer: t, trace: trace, id: t.newSpanID(), parent: parent, name: name, start: at}
	if t.name != "" {
		sp.attrs = append(sp.attrs, Attr{"service", t.name})
	}
	return sp
}

// Root starts a new trace with a root span named name.
func (t *Tracer) Root(name string) *Span {
	if t == nil {
		return nil
	}
	return t.start(name, TraceID{}, SpanID{}, time.Now())
}

// Continue starts a span continuing a remote trace (from a traceparent
// header): same trace id, parented under the remote span.
func (t *Tracer) Continue(name string, trace TraceID, parent SpanID) *Span {
	if t == nil {
		return nil
	}
	return t.start(name, trace, parent, time.Now())
}

// StartFromHeader continues the trace in h's traceparent header, or
// starts a new root when the header is absent or malformed.
func (t *Tracer) StartFromHeader(h http.Header, name string) *Span {
	if t == nil {
		return nil
	}
	if trace, parent, ok := ParseTraceparent(h.Get("traceparent")); ok {
		return t.Continue(name, trace, parent)
	}
	return t.Root(name)
}

// spanKey is the context key for the current span.
type spanKey struct{}

// ContextWithSpan returns ctx carrying sp as the current span.
func ContextWithSpan(ctx context.Context, sp *Span) context.Context {
	if sp == nil {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, sp)
}

// SpanFromContext returns the current span, or nil.
func SpanFromContext(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	sp, _ := ctx.Value(spanKey{}).(*Span)
	return sp
}

// ParseTraceID decodes a 32-hex-digit trace id; ok is false for
// malformed or all-zero input.
func ParseTraceID(s string) (TraceID, bool) {
	var id TraceID
	if len(s) != 32 {
		return TraceID{}, false
	}
	if _, err := hex.Decode(id[:], []byte(s)); err != nil || id.IsZero() {
		return TraceID{}, false
	}
	return id, true
}

// TraceIDFromContext returns the current span's trace id as hex, or "".
func TraceIDFromContext(ctx context.Context) string {
	if sp := SpanFromContext(ctx); sp != nil {
		return sp.TraceID().String()
	}
	return ""
}

// itoa is strconv.Itoa without the import weight in this hot path.
func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var b [20]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		b[i] = '-'
	}
	return string(b[i:])
}
