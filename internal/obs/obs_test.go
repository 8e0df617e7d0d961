package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestDeterministicIDs: trace and span ids are a pure function of
// (seed, tracer name) — the same Derive discipline as every other
// stochastic component — so tests can pin them.
func TestDeterministicIDs(t *testing.T) {
	a := NewTracer(TracerConfig{Name: "svc", Seed: 7})
	b := NewTracer(TracerConfig{Name: "svc", Seed: 7})
	sa, sb := a.Root("op"), b.Root("op")
	if sa.TraceID() != sb.TraceID() || sa.SpanID() != sb.SpanID() {
		t.Fatalf("same (seed,name) drew different ids: %s/%s vs %s/%s",
			sa.TraceID(), sa.SpanID(), sb.TraceID(), sb.SpanID())
	}
	c := NewTracer(TracerConfig{Name: "other", Seed: 7})
	if sc := c.Root("op"); sc.TraceID() == sa.TraceID() {
		t.Fatalf("different tracer names drew the same trace id %s", sc.TraceID())
	}
	d := NewTracer(TracerConfig{Name: "svc", Seed: 8})
	if sd := d.Root("op"); sd.TraceID() == sa.TraceID() {
		t.Fatalf("different seeds drew the same trace id %s", sd.TraceID())
	}
}

// TestTraceparentRoundTrip: a span's header value parses back to its own
// trace and span ids, and malformed/all-zero headers are rejected.
func TestTraceparentRoundTrip(t *testing.T) {
	tr := NewTracer(TracerConfig{Name: "svc", Seed: 1})
	sp := tr.Root("op")
	trace, parent, ok := ParseTraceparent(sp.Traceparent())
	if !ok || trace != sp.TraceID() || parent != sp.SpanID() {
		t.Fatalf("round trip failed: %q -> %s %s %v", sp.Traceparent(), trace, parent, ok)
	}
	for v, wantOK := range map[string]bool{
		"":              false,
		"00-abc-def-01": false,
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01":        false, // zero trace id
		"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01":        false, // zero parent id
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7":           false, // missing flags
		"zz-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01":        false, // non-hex version
		"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01":        false, // reserved version
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-zz":        false, // non-hex flags
		"0A-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01":        false, // upper-case version
		"00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01":        false, // upper-case trace id
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00F067AA0BA902B7-01":        false, // upper-case parent id
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-0A":        false, // upper-case flags
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-future": false, // version 00 has four fields
		"01-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01":        true,  // a later version
		"01-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-future": true,  // may add fields
	} {
		if _, _, ok := ParseTraceparent(v); ok != wantOK {
			t.Errorf("ParseTraceparent(%q) ok=%v, want %v", v, ok, wantOK)
		}
	}
	h := http.Header{}
	h.Set("traceparent", sp.Traceparent())
	cont := tr.StartFromHeader(h, "child")
	if cont.TraceID() != sp.TraceID() {
		t.Fatalf("StartFromHeader did not continue the trace: %s vs %s", cont.TraceID(), sp.TraceID())
	}
	fresh := tr.StartFromHeader(http.Header{}, "root")
	if fresh.TraceID() == sp.TraceID() || fresh.TraceID().IsZero() {
		t.Fatalf("StartFromHeader without header should start a fresh trace, got %s", fresh.TraceID())
	}
}

// TestNilSafety: every method on a nil tracer / nil span is a no-op, so
// instrumented code paths need no tracing-enabled guards.
func TestNilSafety(t *testing.T) {
	var tr *Tracer
	sp := tr.Root("op")
	if sp != nil {
		t.Fatalf("nil tracer Root = %v, want nil", sp)
	}
	sp.SetAttr("k", "v")
	sp.SetAttrBool("b", true)
	sp.SetAttrInt("i", 3)
	sp.AddEvent("e", "k", "v")
	sp.AddLink(TraceID{1})
	if c := sp.Child("c"); c != nil {
		t.Fatalf("nil span Child = %v, want nil", c)
	}
	sp.End()
	sp.End() // double End also fine
	if got := sp.Traceparent(); got != "" {
		t.Fatalf("nil span Traceparent = %q", got)
	}
	if tr.Spans() != nil {
		t.Fatal("nil tracer Spans != nil")
	}
	InjectHeader(http.Header{}, nil)
	ctx := ContextWithSpan(t.Context(), nil)
	if SpanFromContext(ctx) != nil {
		t.Fatal("nil span stored in context")
	}
	if TraceIDFromContext(ctx) != "" {
		t.Fatal("trace id from empty context")
	}
	rec := httptest.NewRecorder()
	tr.ServeTraces(rec, httptest.NewRequest(http.MethodGet, "/debug/traces", nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("nil tracer ServeTraces = %d, want 404", rec.Code)
	}
}

// TestRingWrap: the ring keeps the newest size spans, oldest first.
func TestRingWrap(t *testing.T) {
	tr := newTracer(TracerConfig{Name: "svc", Seed: 1}, 4)
	for i := 0; i < 6; i++ {
		sp := tr.Root("op" + itoa(i))
		sp.End()
	}
	got := tr.Spans()
	if len(got) != 4 {
		t.Fatalf("ring holds %d spans, want 4", len(got))
	}
	for i, rec := range got {
		if want := "op" + itoa(i+2); rec.Name != want {
			t.Fatalf("span %d = %s, want %s (oldest first)", i, rec.Name, want)
		}
	}
}

// TestSinkJSONL: every finished span becomes one JSON line in the sink.
func TestSinkJSONL(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(TracerConfig{Name: "svc", Seed: 1, Sink: &buf})
	root := tr.Root("parent")
	child := root.Child("kid")
	child.SetAttr("k", "v")
	child.End()
	root.End()
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("sink got %d lines, want 2:\n%s", len(lines), buf.String())
	}
	var recs [2]SpanRecord
	for i, ln := range lines {
		if err := json.Unmarshal([]byte(ln), &recs[i]); err != nil {
			t.Fatalf("line %d not JSON: %v", i, err)
		}
	}
	if recs[0].Name != "kid" || recs[1].Name != "parent" {
		t.Fatalf("sink order %s,%s; want kid,parent (End order)", recs[0].Name, recs[1].Name)
	}
	if recs[0].Parent != recs[1].Span || recs[0].Trace != recs[1].Trace {
		t.Fatal("child record does not reference parent span/trace")
	}
	if recs[0].Attrs["k"] != "v" || recs[0].Attrs["service"] != "svc" {
		t.Fatalf("child attrs = %v", recs[0].Attrs)
	}
}

// TestOpenTraceOut: an empty -trace-out opens nothing; a path is opened
// for appending, so spans from a second run follow the first's.
func TestOpenTraceOut(t *testing.T) {
	sink, closeSink, err := OpenTraceOut("")
	if sink != nil || err != nil || closeSink() != nil {
		t.Fatalf("empty path: sink %v err %v", sink, err)
	}
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	for _, line := range []string{"a\n", "b\n"} {
		sink, closeSink, err := OpenTraceOut(path)
		if err != nil {
			t.Fatal(err)
		}
		io.WriteString(sink, line)
		if err := closeSink(); err != nil {
			t.Fatal(err)
		}
	}
	if b, err := os.ReadFile(path); err != nil || string(b) != "a\nb\n" {
		t.Fatalf("sink file %q, %v; want both runs appended", b, err)
	}
	if _, _, err := OpenTraceOut(filepath.Join(path, "x")); err == nil || !strings.HasPrefix(err.Error(), "-trace-out: ") {
		t.Fatalf("bad path error %v, want it to name -trace-out", err)
	}
}

// TestServeTraces: grouping by trace, the trace= and min_ms= filters,
// and method enforcement.
func TestServeTraces(t *testing.T) {
	tr := NewTracer(TracerConfig{Name: "svc", Seed: 1})
	fast := tr.Root("fast")
	fast.EndAt(fast.start.Add(2 * time.Millisecond))
	slow := tr.Root("slow")
	slow.EndAt(slow.start.Add(80 * time.Millisecond))

	serve := func(target string) (int, struct {
		Traces []struct {
			Trace string       `json:"trace"`
			Spans []SpanRecord `json:"spans"`
		} `json:"traces"`
	}) {
		rec := httptest.NewRecorder()
		tr.ServeTraces(rec, httptest.NewRequest(http.MethodGet, target, nil))
		var out struct {
			Traces []struct {
				Trace string       `json:"trace"`
				Spans []SpanRecord `json:"spans"`
			} `json:"traces"`
		}
		if rec.Code == http.StatusOK {
			if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
				t.Fatalf("bad JSON from %s: %v", target, err)
			}
		}
		return rec.Code, out
	}

	code, all := serve("/debug/traces")
	if code != http.StatusOK || len(all.Traces) != 2 {
		t.Fatalf("all traces: code=%d n=%d, want 200/2", code, len(all.Traces))
	}
	_, one := serve("/debug/traces?trace=" + slow.TraceID().String())
	if len(one.Traces) != 1 || one.Traces[0].Trace != slow.TraceID().String() {
		t.Fatalf("trace filter returned %+v", one.Traces)
	}
	_, slowOnly := serve("/debug/traces?min_ms=50")
	if len(slowOnly.Traces) != 1 || slowOnly.Traces[0].Spans[0].Name != "slow" {
		t.Fatalf("min_ms filter returned %+v", slowOnly.Traces)
	}
	if code, _ := serve("/debug/traces?min_ms=-1"); code != http.StatusBadRequest {
		t.Fatalf("negative min_ms = %d, want 400", code)
	}
	rec := httptest.NewRecorder()
	tr.ServeTraces(rec, httptest.NewRequest(http.MethodPost, "/debug/traces", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST = %d, want 405", rec.Code)
	}
}

// TestRenderTree: parent/child indentation, sibling start-time order,
// attrs sorted with service elided, events bracketed, orphans at top.
func TestRenderTree(t *testing.T) {
	tr := NewTracer(TracerConfig{Seed: 1}) // no name: no service attr
	root := tr.Root("router.request")
	second := root.ChildAt("b-later", root.start.Add(2*time.Millisecond))
	first := root.ChildAt("a-earlier", root.start.Add(1*time.Millisecond))
	first.SetAttr("worker", "w1")
	first.SetAttrBool("hedge", true)
	first.AddEvent("retry")
	first.EndAt(first.start.Add(time.Millisecond))
	second.EndAt(second.start.Add(time.Millisecond))
	root.EndAt(root.start.Add(5 * time.Millisecond))

	got := RenderTree(tr.TraceSpans(root.TraceID().String()))
	want := "router.request 5ms\n" +
		"  a-earlier 1ms hedge=true worker=w1 [retry]\n" +
		"  b-later 1ms\n"
	if got != want {
		t.Fatalf("RenderTree:\n%s\nwant:\n%s", got, want)
	}

	// An orphan (parent span outside the slice) renders at top level.
	orphan := []SpanRecord{{Span: "s1", Parent: "gone", Name: "lost", DurUS: 1000}}
	if got := RenderTree(orphan); got != "lost 1ms\n" {
		t.Fatalf("orphan render = %q", got)
	}
}

// TestContextHelpers: ContextWithSpan installs a span that SpanFromContext
// and TraceIDFromContext read back; an empty context carries none.
func TestContextHelpers(t *testing.T) {
	if SpanFromContext(t.Context()) != nil || TraceIDFromContext(t.Context()) != "" {
		t.Fatal("empty context should carry no span")
	}
	tr := NewTracer(TracerConfig{Name: "svc", Seed: 1})
	root := tr.Root("root")
	ctx := ContextWithSpan(t.Context(), root)
	if SpanFromContext(ctx) != root {
		t.Fatal("root span not installed in context")
	}
	child := root.Child("child")
	ctx2 := ContextWithSpan(ctx, child)
	if SpanFromContext(ctx2) != child {
		t.Fatal("child not installed in context")
	}
	if got := TraceIDFromContext(ctx2); got != root.TraceID().String() {
		t.Fatalf("TraceIDFromContext = %q", got)
	}
}

// TestCoalesceLinkFields: links and events survive export.
func TestCoalesceLinkFields(t *testing.T) {
	tr := NewTracer(TracerConfig{Name: "svc", Seed: 1})
	leader := tr.Root("leader")
	joiner := tr.Root("joiner")
	joiner.AddLink(leader.TraceID())
	joiner.AddEvent("coalesced", "leader_trace", leader.TraceID().String())
	joiner.End()
	leader.End()
	recs := tr.TraceSpans(joiner.TraceID().String())
	if len(recs) != 1 {
		t.Fatalf("joiner trace has %d spans", len(recs))
	}
	if len(recs[0].Links) != 1 || recs[0].Links[0] != leader.TraceID().String() {
		t.Fatalf("links = %v", recs[0].Links)
	}
	if len(recs[0].Events) != 1 || recs[0].Events[0].Attrs["leader_trace"] != leader.TraceID().String() {
		t.Fatalf("events = %+v", recs[0].Events)
	}
}
