package obs

// export.go is the read side of the tracer: W3C traceparent encode /
// decode, the finished-span ring buffer behind GET /debug/traces, the
// JSONL sink behind -trace-out, and RenderTree, the indented duration
// tree used by slow-request flight-recorder dumps and cmd/traceview.

import (
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// SpanRecord is one finished span, as exported over /debug/traces and
// the JSONL sink. Times are microseconds: StartUS since the Unix epoch,
// DurUS a duration.
type SpanRecord struct {
	Trace   string            `json:"trace"`
	Span    string            `json:"span"`
	Parent  string            `json:"parent,omitempty"`
	Name    string            `json:"name"`
	StartUS int64             `json:"start_us"`
	DurUS   int64             `json:"dur_us"`
	Attrs   map[string]string `json:"attrs,omitempty"`
	Events  []EventRecord     `json:"events,omitempty"`
	Links   []string          `json:"links,omitempty"`
}

// EventRecord is one span event in export form.
type EventRecord struct {
	Name  string            `json:"name"`
	AtUS  int64             `json:"at_us"`
	Attrs map[string]string `json:"attrs,omitempty"`
}

// Traceparent renders the span as a W3C traceparent header value
// (version 00, sampled flag set), or "" for a nil span.
func (s *Span) Traceparent() string {
	if s == nil {
		return ""
	}
	return "00-" + s.trace.String() + "-" + s.id.String() + "-01"
}

// ParseTraceparent decodes a W3C Trace Context traceparent header value:
// a lower-case hex version, the 32-hex trace id, the 16-hex parent span
// id and hex flags, '-'-separated. The reserved version ff is rejected,
// version 00 has exactly those four fields, and a later version may
// append more, which are ignored. Upper-case hex and all-zero ids are
// rejected per the spec.
func ParseTraceparent(v string) (trace TraceID, parent SpanID, ok bool) {
	parts := strings.Split(strings.TrimSpace(v), "-")
	if len(parts) < 4 || len(parts[0]) != 2 || len(parts[1]) != 32 || len(parts[2]) != 16 || len(parts[3]) != 2 {
		return TraceID{}, SpanID{}, false
	}
	var version, flags [1]byte
	if !decodeLowerHex(version[:], parts[0]) || version[0] == 0xff ||
		version[0] == 0 && len(parts) != 4 ||
		!decodeLowerHex(flags[:], parts[3]) ||
		!decodeLowerHex(trace[:], parts[1]) ||
		!decodeLowerHex(parent[:], parts[2]) ||
		trace.IsZero() || parent.IsZero() {
		return TraceID{}, SpanID{}, false
	}
	return trace, parent, true
}

// decodeLowerHex decodes s into dst, accepting only the lower-case hex
// digits W3C Trace Context allows.
func decodeLowerHex(dst []byte, s string) bool {
	_, err := hex.Decode(dst, []byte(s))
	return err == nil && !strings.ContainsAny(s, "ABCDEF")
}

// OpenTraceOut opens the file a command's -trace-out flag names, for
// appending, as a TracerConfig.Sink. An empty path opens nothing and
// returns a nil sink; closeSink is never nil.
func OpenTraceOut(path string) (sink io.Writer, closeSink func() error, err error) {
	if path == "" {
		return nil, func() error { return nil }, nil
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("-trace-out: %w", err)
	}
	return f, f.Close, nil
}

// InjectHeader sets h's traceparent header from sp; no-op for nil sp.
func InjectHeader(h http.Header, sp *Span) {
	if sp == nil {
		return
	}
	h.Set("traceparent", sp.Traceparent())
}

// record appends a finished span to the ring and the sink.
func (t *Tracer) record(rec SpanRecord) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.ring[t.next] = rec
	t.next++
	if t.next == len(t.ring) {
		t.next = 0
		t.full = true
	}
	t.mu.Unlock()

	if t.sink != nil {
		line, err := json.Marshal(rec)
		if err == nil {
			t.sinkMu.Lock()
			t.sink.Write(append(line, '\n'))
			t.sinkMu.Unlock()
		}
	}
}

// Spans returns the buffered finished spans, oldest first.
func (t *Tracer) Spans() []SpanRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []SpanRecord
	if t.full {
		out = append(out, t.ring[t.next:]...)
	}
	out = append(out, t.ring[:t.next]...)
	return out
}

// TraceSpans returns the buffered spans of one trace, oldest first.
func (t *Tracer) TraceSpans(trace string) []SpanRecord {
	var out []SpanRecord
	for _, rec := range t.Spans() {
		if rec.Trace == trace {
			out = append(out, rec)
		}
	}
	return out
}

// traceGroup is one trace in the /debug/traces response.
type traceGroup struct {
	Trace string       `json:"trace"`
	Spans []SpanRecord `json:"spans"`
}

// ServeTraces handles GET /debug/traces: the buffered spans grouped by
// trace id, ordered oldest trace first. Query parameters: trace=<id>
// keeps only that trace; min_ms=<n> keeps traces whose longest span is
// at least n milliseconds.
func (t *Tracer) ServeTraces(w http.ResponseWriter, r *http.Request) {
	if t == nil {
		http.Error(w, "tracing disabled", http.StatusNotFound)
		return
	}
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	wantTrace := r.URL.Query().Get("trace")
	minMS := 0.0
	if v := r.URL.Query().Get("min_ms"); v != "" {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil || f < 0 {
			http.Error(w, "bad min_ms", http.StatusBadRequest)
			return
		}
		minMS = f
	}

	groups := map[string]*traceGroup{}
	var order []string
	for _, rec := range t.Spans() {
		if wantTrace != "" && rec.Trace != wantTrace {
			continue
		}
		g, ok := groups[rec.Trace]
		if !ok {
			g = &traceGroup{Trace: rec.Trace}
			groups[rec.Trace] = g
			order = append(order, rec.Trace)
		}
		g.Spans = append(g.Spans, rec)
	}

	out := make([]traceGroup, 0, len(order))
	for _, id := range order {
		g := groups[id]
		if minMS > 0 {
			longest := int64(0)
			for _, rec := range g.Spans {
				if rec.DurUS > longest {
					longest = rec.DurUS
				}
			}
			if float64(longest)/1000.0 < minMS {
				continue
			}
		}
		out = append(out, *g)
	}

	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(struct {
		Traces []traceGroup `json:"traces"`
	}{Traces: out})
}

// RenderTree formats one trace's spans as an indented duration tree —
// the shape slow-request dumps log and cmd/traceview prints:
//
//	router.request 12.4ms
//	  router.attempt 3.1ms worker=127.0.0.1:9001
//	  serve.report 8.9ms
//	    pipeline 8.2ms
//	      stage.degree 0.4ms cache_hit=true
//
// Orphan spans (parent not in the slice, e.g. evicted from the ring)
// render at the top level. Siblings sort by start time.
func RenderTree(spans []SpanRecord) string {
	byID := make(map[string]int, len(spans))
	for i, rec := range spans {
		byID[rec.Span] = i
	}
	children := make(map[string][]int)
	var roots []int
	for i, rec := range spans {
		if rec.Parent != "" {
			if _, ok := byID[rec.Parent]; ok {
				children[rec.Parent] = append(children[rec.Parent], i)
				continue
			}
		}
		roots = append(roots, i)
	}
	byStart := func(idx []int) {
		sort.SliceStable(idx, func(a, b int) bool { return spans[idx[a]].StartUS < spans[idx[b]].StartUS })
	}
	byStart(roots)
	for _, c := range children {
		byStart(c)
	}

	var b strings.Builder
	var walk func(i, depth int)
	walk = func(i, depth int) {
		rec := spans[i]
		b.WriteString(strings.Repeat("  ", depth))
		fmt.Fprintf(&b, "%s %s", rec.Name, time.Duration(rec.DurUS)*time.Microsecond)
		keys := make([]string, 0, len(rec.Attrs))
		for k := range rec.Attrs {
			if k == "service" {
				continue
			}
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&b, " %s=%s", k, rec.Attrs[k])
		}
		for _, ev := range rec.Events {
			fmt.Fprintf(&b, " [%s]", ev.Name)
		}
		b.WriteByte('\n')
		for _, c := range children[rec.Span] {
			walk(c, depth+1)
		}
	}
	for _, r := range roots {
		walk(r, 0)
	}
	return b.String()
}
