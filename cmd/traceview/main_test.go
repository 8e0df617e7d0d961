package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"elites/internal/obs"
)

// traceFile writes recs as a -trace-out file: one JSON object per line.
func traceFile(t *testing.T, recs []obs.SpanRecord) string {
	t.Helper()
	var buf bytes.Buffer
	for _, rec := range recs {
		line, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(append(line, '\n'))
	}
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRenderMatchesRenderTree: each trace prints as obs.RenderTree renders
// it, traces in first-seen order, and an attribute holding escaped quotes
// (a stage error formatted with %q) survives intact.
func TestRenderMatchesRenderTree(t *testing.T) {
	const a, b = "0af7651916cd43dd8448eb211c80319c", "4bf92f3577b34da6a3ce929d0e0e4736"
	recs := []obs.SpanRecord{
		{Trace: b, Span: "b1", Name: "analyze", StartUS: 10, DurUS: 900},
		{Trace: a, Span: "a2", Parent: "a1", Name: "serve.report", StartUS: 20, DurUS: 300,
			Attrs: map[string]string{"error": `stage "bios": injected`}},
		{Trace: a, Span: "a1", Name: "router.request", StartUS: 5, DurUS: 1500,
			Attrs:  map[string]string{"status": "200", "service": "router"},
			Events: []obs.EventRecord{{Name: "retry"}}},
		{Trace: b, Span: "b2", Parent: "b1", Name: "stage.degree", StartUS: 12, DurUS: 400,
			Attrs: map[string]string{"cache_hit": "true"}},
	}
	path := traceFile(t, recs)

	var out bytes.Buffer
	if err := run(&out, nil, []string{path}, ""); err != nil {
		t.Fatal(err)
	}
	want := "trace " + b + "\n" + obs.RenderTree([]obs.SpanRecord{recs[0], recs[3]}) +
		"trace " + a + "\n" + obs.RenderTree([]obs.SpanRecord{recs[1], recs[2]})
	if out.String() != want {
		t.Fatalf("got:\n%s\nwant:\n%s", out.String(), want)
	}
	if !strings.Contains(out.String(), `error=stage "bios": injected`) {
		t.Fatalf("escaped-quote attribute mangled:\n%s", out.String())
	}

	out.Reset()
	if err := run(&out, nil, []string{path}, a); err != nil {
		t.Fatal(err)
	}
	if got := out.String(); strings.Contains(got, b) || !strings.HasPrefix(got, "trace "+a+"\nrouter.request ") {
		t.Fatalf("-trace %s printed:\n%s", a, got)
	}
	if err := run(&out, nil, []string{path}, "ffff"); err == nil {
		t.Fatal("an unknown -trace id printed nothing without an error")
	}
}

// TestReadsStdinAndRejectsGarbage: with no file the records come from
// stdin, and a line that is not a span record is an error.
func TestReadsStdinAndRejectsGarbage(t *testing.T) {
	var out bytes.Buffer
	in := strings.NewReader(`{"trace":"t","span":"s","name":"analyze","dur_us":1500}` + "\n")
	if err := run(&out, in, nil, ""); err != nil {
		t.Fatal(err)
	}
	if got, want := out.String(), "trace t\nanalyze 1.5ms\n"; got != want {
		t.Fatalf("stdin: got %q, want %q", got, want)
	}
	if err := run(&out, strings.NewReader("not json\n"), nil, ""); err == nil {
		t.Fatal("a malformed line was accepted")
	}
}
