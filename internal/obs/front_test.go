package obs

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// front_test.go pins the request path both HTTP surfaces share: the
// status and 499 rule of the request series, traceparent continuation,
// the latency exemplar, the one request log record and the slow-request
// span-tree dump.

// frontRequest drives req through f with handler h and returns every
// record f's JSON logger has written to logs so far.
func frontRequest(t *testing.T, f *Front, logs *bytes.Buffer, req *http.Request, h http.HandlerFunc) []map[string]any {
	t.Helper()
	f.Serve(httptest.NewRecorder(), req, "test.request", "things", h)
	var recs []map[string]any
	for _, line := range strings.Split(strings.TrimSpace(logs.String()), "\n") {
		if line == "" {
			continue
		}
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("log line %q: %v", line, err)
		}
		recs = append(recs, m)
	}
	return recs
}

// TestFrontCountsSilentHandlerAs499: a handler that writes nothing (the
// client went away) is counted, traced and logged as 499; one that
// writes is counted under its status.
func TestFrontCountsSilentHandlerAs499(t *testing.T) {
	reg := NewRegistry()
	tr := NewTracer(TracerConfig{Name: "front", Seed: 1})
	var logs bytes.Buffer
	f := NewFront(reg, "test", tr, slog.New(slog.NewJSONHandler(&logs, nil)), 0)

	recs := frontRequest(t, f, &logs, httptest.NewRequest(http.MethodGet, "/things/1", nil),
		func(http.ResponseWriter, *http.Request) {})
	frontRequest(t, f, &logs, httptest.NewRequest(http.MethodGet, "/things/2", nil),
		func(w http.ResponseWriter, _ *http.Request) { w.Write([]byte("ok")) })

	var b strings.Builder
	reg.Write(&b, false)
	for _, want := range []string{
		`test_requests_total{route="things",code="499"} 1`,
		`test_requests_total{route="things",code="200"} 1`,
		"test_request_duration_seconds_count 2",
	} {
		if !strings.Contains(b.String(), want) {
			t.Fatalf("exposition missing %q:\n%s", want, b.String())
		}
	}
	if len(recs) != 1 || recs[0]["status"] != float64(499) {
		t.Fatalf("silent request logged %v, want one record with status 499", recs)
	}
	spans := tr.Spans()
	if len(spans) != 2 || spans[0].Attrs["status"] != "499" || spans[1].Attrs["status"] != "200" {
		t.Fatalf("spans %+v, want status 499 then 200", spans)
	}
}

// TestFrontContinuesTraceparent: an inbound traceparent is continued —
// the request span, which the handler finds in its context, takes the
// caller's trace id and parent — and that trace id is the latency
// bucket's exemplar.
func TestFrontContinuesTraceparent(t *testing.T) {
	reg := NewRegistry()
	tr := NewTracer(TracerConfig{Name: "front", Seed: 2})
	f := NewFront(reg, "test", tr, nil, 0)

	caller := NewTracer(TracerConfig{Name: "caller", Seed: 3}).Root("caller.request")
	req := httptest.NewRequest(http.MethodPost, "/things", nil)
	InjectHeader(req.Header, caller)
	var inner *Span
	f.Serve(httptest.NewRecorder(), req, "test.request", "things", func(w http.ResponseWriter, r *http.Request) {
		inner = SpanFromContext(r.Context())
		w.WriteHeader(http.StatusAccepted)
	})

	spans := tr.Spans()
	if len(spans) != 1 || inner == nil {
		t.Fatalf("got %d spans, handler span %v; want one, in the context", len(spans), inner)
	}
	sp := spans[0]
	if sp.Trace != caller.TraceID().String() || sp.Parent != caller.SpanID().String() {
		t.Fatalf("span trace %s parent %s, want the caller's %s / %s", sp.Trace, sp.Parent, caller.TraceID(), caller.SpanID())
	}
	if sp.Name != "test.request" || sp.Span != inner.SpanID().String() {
		t.Fatalf("span %q %s, want test.request %s", sp.Name, sp.Span, inner.SpanID())
	}
	for k, want := range map[string]string{"route": "things", "method": "POST", "path": "/things", "status": "202"} {
		if sp.Attrs[k] != want {
			t.Fatalf("span attr %s = %q, want %q", k, sp.Attrs[k], want)
		}
	}
	exemplars := 0
	for _, ex := range f.latency.exemplars {
		if ex.traceID != "" {
			exemplars++
			if ex.traceID != sp.Trace {
				t.Fatalf("exemplar trace %s, want the span's %s", ex.traceID, sp.Trace)
			}
		}
	}
	if exemplars != 1 {
		t.Fatalf("%d exemplars, want 1", exemplars)
	}
}

// TestFrontLogsOneRequestRecord: each request writes exactly one
// "request" record carrying its route, status, duration and trace id.
func TestFrontLogsOneRequestRecord(t *testing.T) {
	tr := NewTracer(TracerConfig{Name: "front", Seed: 4})
	var logs bytes.Buffer
	f := NewFront(NewRegistry(), "test", tr, slog.New(slog.NewJSONHandler(&logs, nil)), 0)

	recs := frontRequest(t, f, &logs, httptest.NewRequest(http.MethodGet, "/things/7", nil),
		func(w http.ResponseWriter, _ *http.Request) { w.WriteHeader(http.StatusNotFound) })
	if len(recs) != 1 {
		t.Fatalf("got %d log records, want 1: %v", len(recs), recs)
	}
	rec := recs[0]
	if rec["msg"] != "request" || rec["route"] != "things" || rec["status"] != float64(404) ||
		rec["method"] != "GET" || rec["path"] != "/things/7" {
		t.Fatalf("request record %v", rec)
	}
	if _, ok := rec["dur_ms"].(float64); !ok {
		t.Fatalf("request record has no numeric dur_ms: %v", rec)
	}
	if spans := tr.Spans(); len(spans) != 1 || rec["trace"] != spans[0].Trace || rec["span"] != spans[0].Span {
		t.Fatalf("record trace %v span %v, want the request span's", rec["trace"], rec["span"])
	}
}

// TestFrontSlowRequestDump: the span tree is logged only with a logger
// and a tracer, a threshold set, and a request at least that slow.
func TestFrontSlowRequestDump(t *testing.T) {
	for _, tc := range []struct {
		name   string
		traced bool
		slow   time.Duration
		dump   bool
	}{
		{"slow", true, time.Nanosecond, true},
		{"fast", true, time.Hour, false},
		{"threshold off", true, 0, false},
		{"untraced", false, time.Nanosecond, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var tr *Tracer
			if tc.traced {
				tr = NewTracer(TracerConfig{Name: "front", Seed: 5})
			}
			var logs bytes.Buffer
			f := NewFront(NewRegistry(), "test", tr, slog.New(slog.NewJSONHandler(&logs, nil)), tc.slow)
			recs := frontRequest(t, f, &logs, httptest.NewRequest(http.MethodGet, "/things", nil),
				func(w http.ResponseWriter, r *http.Request) {
					SpanFromContext(r.Context()).Child("test.inner").End()
					time.Sleep(time.Millisecond)
					w.Write(nil)
				})
			var trees []string
			for _, rec := range recs {
				if tree, ok := rec["span_tree"].(string); ok {
					trees = append(trees, tree)
				}
			}
			if !tc.dump {
				if len(trees) != 0 || len(recs) != 1 {
					t.Fatalf("want only the request record, got %v", recs)
				}
				return
			}
			if len(recs) != 2 || len(trees) != 1 || recs[1]["msg"] != "slow request" {
				t.Fatalf("want a request record and one slow-request dump, got %v", recs)
			}
			if !strings.Contains(trees[0], "test.request") || !strings.Contains(trees[0], "  test.inner") {
				t.Fatalf("span tree lacks the request and its child:\n%s", trees[0])
			}
		})
	}

	// Without a logger nothing is logged, and the request is still served.
	tr := NewTracer(TracerConfig{Name: "front", Seed: 6})
	rec := httptest.NewRecorder()
	NewFront(NewRegistry(), "test", tr, nil, time.Nanosecond).Serve(rec, httptest.NewRequest(http.MethodGet, "/things", nil),
		"test.request", "things", func(w http.ResponseWriter, _ *http.Request) { w.Write([]byte("ok")) })
	if rec.Body.String() != "ok" {
		t.Fatalf("unlogged request body %q", rec.Body.String())
	}
}
