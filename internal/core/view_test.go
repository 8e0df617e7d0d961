package core

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/url"
	"strings"
	"sync/atomic"
	"testing"
)

func TestJSONFloatMarshal(t *testing.T) {
	cases := []struct {
		in   float64
		want string
	}{
		{1.5, "1.5"},
		{0, "0"},
		{math.NaN(), "null"},
		{math.Inf(1), "null"},
		{math.Inf(-1), "null"},
		{2.74, "2.74"},
	}
	for _, c := range cases {
		got, err := json.Marshal(JSONFloat(c.in))
		if err != nil {
			t.Fatalf("marshal %v: %v", c.in, err)
		}
		if string(got) != c.want {
			t.Errorf("marshal %v = %s, want %s", c.in, got, c.want)
		}
	}
}

// TestReportViewMarshalsAndIsDeterministic runs the fast battery, projects
// the report, and asserts the view marshals (despite the NaN GoFP from
// skipped bootstraps), round-trips as JSON, marshals to identical bytes
// twice, and carries the sections the run produced.
func TestReportViewMarshalsAndIsDeterministic(t *testing.T) {
	p, ds := testPlatform(t)
	activity := p.ActivitySeries(p.EnglishNodes())
	opts := fastOptions()
	opts.SkipBootstrap = true // forces GoFP = NaN through the view
	rep, err := NewCharacterizer(opts).Run(ds, activity)
	if err != nil {
		t.Fatal(err)
	}
	v := NewReportView(rep)
	b1, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("view must marshal even with NaN fields: %v", err)
	}
	b2, err := json.Marshal(NewReportView(rep))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatal("view marshaling is not deterministic")
	}
	var decoded map[string]any
	if err := json.Unmarshal(b1, &decoded); err != nil {
		t.Fatalf("view JSON does not parse: %v", err)
	}
	for _, section := range []string{"summary", "basic", "degree", "reciprocity",
		"distances", "bios", "histograms", "centrality", "mutual_core", "activity"} {
		if _, ok := decoded[section]; !ok {
			t.Errorf("section %q missing from view JSON", section)
		}
	}
	// The NaN GoFP must surface as null, not as a marshal failure.
	deg := decoded["degree"].(map[string]any)
	if v, ok := deg["gof_p"]; !ok || v != nil {
		t.Fatalf("degree.gof_p = %v, want null", v)
	}
	if deg["alpha"] == nil {
		t.Fatal("degree.alpha should be a number")
	}
}

// TestStageViewFragments asserts each stage maps to the matching subtree of
// the full view and unknown stages error.
func TestStageViewFragments(t *testing.T) {
	p, ds := testPlatform(t)
	activity := p.ActivitySeries(p.EnglishNodes())
	rep, err := NewCharacterizer(fastOptions()).Run(ds, activity)
	if err != nil {
		t.Fatal(err)
	}
	for _, stage := range StageNames() {
		frag, err := StageView(rep, stage)
		if err != nil {
			t.Fatalf("StageView(%s): %v", stage, err)
		}
		if _, err := json.Marshal(frag); err != nil {
			t.Fatalf("stage %s fragment does not marshal: %v", stage, err)
		}
	}
	sv, err := StageView(rep, StageSummary)
	if err != nil {
		t.Fatal(err)
	}
	if sv.(*SummaryView).Nodes != rep.Summary.Nodes {
		t.Fatal("summary fragment does not match the report")
	}
	if _, err := StageView(rep, "nope"); err == nil {
		t.Fatal("unknown stage should error")
	}
}

// TestRunContextCancellation cancels mid-run via the stage observer: the
// run must return an error matching context.Canceled alongside the partial
// report built from whatever stages completed before the cancel.
func TestRunContextCancellation(t *testing.T) {
	p, ds := testPlatform(t)
	activity := p.ActivitySeries(p.EnglishNodes())
	ctx, cancel := context.WithCancel(context.Background())
	var observed int32
	opts := fastOptions()
	opts.Parallelism = 1
	opts.StageObserver = func(StageTiming) {
		if atomic.AddInt32(&observed, 1) == 1 {
			cancel() // abandon the battery after the first completed stage
		}
	}
	rep, err := NewCharacterizer(opts).RunContext(ctx, ds, activity)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if rep == nil {
		t.Fatal("cancelled run should still return the partial report")
	}
	// Stage-granular cancellation: strictly fewer stages executed than the
	// full battery (13 stages on this dataset).
	if n := atomic.LoadInt32(&observed); n >= 13 {
		t.Fatalf("observed %d stages after cancellation, want fewer than the full battery", n)
	}
}

// TestRunContextPreCancelled: an already-cancelled context runs nothing.
func TestRunContextPreCancelled(t *testing.T) {
	p, ds := testPlatform(t)
	activity := p.ActivitySeries(p.EnglishNodes())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var observed int32
	opts := fastOptions()
	opts.StageObserver = func(StageTiming) { atomic.AddInt32(&observed, 1) }
	if _, err := NewCharacterizer(opts).RunContext(ctx, ds, activity); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if atomic.LoadInt32(&observed) != 0 {
		t.Fatal("no stage should execute under a pre-cancelled context")
	}
}

// TestValueSectionPresenceFollowsTimings: on timed reports the value-typed
// sections (summary, basic, reciprocity) are present exactly when their
// stage ran — a legitimately zero reciprocity still serves as 0 — and on
// untimed reports the zero-value heuristic applies.
func TestValueSectionPresenceFollowsTimings(t *testing.T) {
	timed := &Report{
		Reciprocity: 0,
		Timings:     []StageTiming{{Name: StageReciprocity}},
	}
	v := NewReportView(timed)
	if v.Reciprocity == nil || *v.Reciprocity != 0 {
		t.Fatalf("timed zero reciprocity should serve as 0, got %v", v.Reciprocity)
	}
	if v.Summary != nil || v.Basic != nil {
		t.Fatal("sections whose stages did not run must stay absent")
	}
	untimed := &Report{Reciprocity: 0}
	if v := NewReportView(untimed); v.Reciprocity != nil {
		t.Fatal("untimed zero reciprocity is indistinguishable from not-run and must be omitted")
	}
}

// TestViewStages: components' servable view needs the summary stage.
func TestViewStages(t *testing.T) {
	got := ViewStages(StageComponents)
	if len(got) != 2 || got[0] != StageComponents || got[1] != StageSummary {
		t.Fatalf("ViewStages(components) = %v", got)
	}
	if got := ViewStages(StageDegree); len(got) != 1 || got[0] != StageDegree {
		t.Fatalf("ViewStages(degree) = %v", got)
	}
}

// TestBodyEntryNames pins the body entry names: a directory primed by an
// earlier build stays warm only while every name is unchanged. Every
// spelling of one request names one entry, the view version and the
// identity each name another, and the content type follows the format.
func TestBodyEntryNames(t *testing.T) {
	const identity = "00000000000000ff-0000000000000001"
	report := func(query string) (Body, error) {
		q, err := url.ParseQuery(query)
		if err != nil {
			t.Fatal(err)
		}
		return ReportBody(identity, q)
	}
	stage := func(s string) (Body, error) { return StageBody(identity, "demo", s) }
	user := func(rank string) (Body, error) { return UserFeaturesBody(identity, rank) }
	for _, c := range []struct {
		req          string
		b            func(string) (Body, error)
		arg          string
		entry, ctype string
	}{
		{"report", report, "", "body-v1-1f71373678bd3333", "application/json"},
		{"report", report, "format=json", "body-v1-1f71373678bd3333", "application/json"},
		{"report", report, "stages=degree,summary", "body-v1-95789eba3cd8eeb4", "application/json"},
		{"report", report, "stages=summary,+degree,summary", "body-v1-95789eba3cd8eeb4", "application/json"},
		{"report", report, "format=text", "body-v1-e72efc3c1a1514ae", "text/plain; charset=utf-8"},
		{"stage", stage, "components", "body-v1-858547fd1efca881", "application/json"},
		{"user features", user, "7", "body-v1-e04534b2cfcd0364", "application/json"},
		{"user features", user, "007", "body-v1-e04534b2cfcd0364", "application/json"},
	} {
		b, err := c.b(c.arg)
		if err != nil || b.Entry != c.entry || b.ContentType != c.ctype {
			t.Errorf("%s %q: entry %s (%s, err %v), want %s (%s)", c.req, c.arg, b.Entry, b.ContentType, err, c.entry, c.ctype)
		}
	}
	if b := NewBody(identity, []string{StageFeatures}, "users-batch:1,2,3"); b.Entry != "body-v1-029d34bb2bdd48ff" {
		t.Errorf("users:batch entry %s, want body-v1-029d34bb2bdd48ff", b.Entry)
	}

	json, _ := report("")
	if next := bodyEntry(ViewVersion+1, json.Key); next == json.Entry || !strings.HasPrefix(next, "body-v2-") {
		t.Errorf("view version %d names %s, version %d %s", ViewVersion+1, next, ViewVersion, json.Entry)
	}
	if other, _ := ReportBody("00000000000000ff-0000000000000002", nil); other.Entry == json.Entry {
		t.Error("the result digest does not separate body entries")
	}
	recip, _ := stage("reciprocity")
	if recip.Stage != "reciprocity" || strings.Join(recip.Stages, ",") != "reciprocity" {
		t.Errorf("stage body: stage %q, stages %v", recip.Stage, recip.Stages)
	}
	if alias, _ := StageBody(identity, "alias", "reciprocity"); alias.Entry == recip.Entry {
		t.Error("a stage body does not name its dataset id")
	}
	if b, _ := user("7"); b.Rank != 7 {
		t.Errorf("user features body: rank %d, want 7", b.Rank)
	}
	for _, bad := range []struct {
		b        func(string) (Body, error)
		arg, msg string
	}{
		{report, "stages=nope", `unknown stage "nope"`},
		{report, "format=xml", `unknown format "xml"`},
		{stage, "summary,degree", `unknown stage "summary,degree"`},
		{stage, "nope", `unknown stage "nope"`},
		{user, "0", `rank must be a positive integer, got "0"`},
		{user, "x", `rank must be a positive integer, got "x"`},
	} {
		if _, err := bad.b(bad.arg); err == nil || !strings.Contains(err.Error(), bad.msg) {
			t.Errorf("%q: error %v, want one containing %q", bad.arg, err, bad.msg)
		}
	}
}
