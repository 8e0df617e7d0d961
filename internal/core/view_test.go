package core

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"maps"
	"math"
	"net/url"
	"slices"
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

// TestSingleStageSections runs every stage as a single-stage selection and
// checks the text and the JSON hold exactly the sections of the stages that
// ran, dependencies included, each byte-equal to the full report's. The
// §IV-B text section holds both fits, so a run with one of them is compared
// against the full report rendered with only the sections that run has.
func TestSingleStageSections(t *testing.T) {
	p, ds := testPlatform(t)
	activity := p.ActivitySeries(p.EnglishNodes())
	run := func(stages []string) *Report {
		opts := fastOptions()
		opts.Features, opts.Stages = true, stages
		rep, err := NewCharacterizer(opts).Run(ds, activity)
		if err != nil {
			t.Fatalf("stages %v: %v", stages, err)
		}
		return rep
	}
	full := run(nil)
	var fullJSON map[string]json.RawMessage
	if err := json.Unmarshal(marshalView(t, full), &fullJSON); err != nil {
		t.Fatal(err)
	}
	// sectionsOf copies from src what each stage writes; components writes
	// only the counts summary reads.
	sectionsOf := map[string]func(dst, src *Report){
		StageComponents:  func(dst, src *Report) {},
		StageSummary:     func(dst, src *Report) { dst.Summary = src.Summary },
		StageBasic:       func(dst, src *Report) { dst.Basic = src.Basic },
		StageDegree:      func(dst, src *Report) { dst.Degree, dst.DegreeSeries = src.Degree, src.DegreeSeries },
		StageEigen:       func(dst, src *Report) { dst.Eigen = src.Eigen },
		StageReciprocity: func(dst, src *Report) { dst.Reciprocity = src.Reciprocity },
		StageDistances:   func(dst, src *Report) { dst.Distances = src.Distances },
		StageBios:        func(dst, src *Report) { dst.Bios = src.Bios },
		StageHistograms:  func(dst, src *Report) { dst.MetricHists = src.MetricHists },
		StageCentrality:  func(dst, src *Report) { dst.Centrality = src.Centrality },
		StageCategories:  func(dst, src *Report) { dst.Categories = src.Categories },
		StageMutualCore:  func(dst, src *Report) { dst.MutualCore = src.MutualCore },
		StageActivity:    func(dst, src *Report) { dst.Activity = src.Activity },
		StageFeatures:    func(dst, src *Report) { dst.Features = src.Features },
	}
	const powerLaws = "Figure 2 / §IV-B: power-law inference (Clauset–Shalizi–Newman MLE)"
	for _, tc := range []struct {
		stage  string
		ran    []string // the stage and its dependencies
		key    string   // its JSON section; "" for none
		titles []string // its text sections
	}{
		{StageComponents, []string{StageComponents}, "", nil},
		{StageSummary, []string{StageComponents, StageSummary}, "summary", []string{"Dataset (paper §III)"}},
		{StageBasic, []string{StageComponents, StageBasic}, "basic", []string{"Basic analysis (paper §IV-A)"}},
		{StageDegree, []string{StageDegree}, "degree", []string{powerLaws}},
		{StageEigen, []string{StageEigen}, "eigen", []string{powerLaws}},
		{StageReciprocity, []string{StageReciprocity}, "reciprocity", []string{"Reciprocity (paper §IV-C)"}},
		{StageDistances, []string{StageDistances}, "distances", []string{"Figure 3 / §IV-D: degrees of separation"}},
		{StageBios, []string{StageBios}, "bios", []string{"Tables I & II / Figure 4: verified user bios (§IV-E)"}},
		{StageHistograms, []string{StageHistograms}, "histograms", []string{"Figure 1: distributions of friends, followers, list memberships, statuses"}},
		{StageCentrality, []string{StageCentrality}, "centrality", []string{"Figure 5: influence correlations with GAM splines (§IV-F)"}},
		{StageCategories, []string{StageCategories}, "categories", []string{"User categorization (archetype mix, audience, topical affinity)"}},
		{StageMutualCore, []string{StageMutualCore}, "mutual_core", []string{"§IV-C conjecture validation: core vs periphery reciprocity"}},
		{StageActivity, []string{StageActivity}, "activity", []string{"Activity analysis (paper §V)"}},
		{StageFeatures, []string{StageFeatures}, "features", nil},
	} {
		t.Run(tc.stage, func(t *testing.T) {
			rep := run([]string{tc.stage})
			masked := &Report{}
			for _, name := range tc.ran {
				sectionsOf[name](masked, full)
			}
			txt := renderString(t, rep)
			if want := renderString(t, masked); txt != want {
				t.Fatalf("text:\n%s\nwant:\n%s", txt, want)
			}
			if got := sectionTitles(txt); !slices.Equal(got, tc.titles) {
				t.Fatalf("text sections %q, want %q", got, tc.titles)
			}
			var got map[string]json.RawMessage
			if err := json.Unmarshal(marshalView(t, rep), &got); err != nil {
				t.Fatal(err)
			}
			keys := slices.Sorted(maps.Keys(got))
			if !slices.Equal(keys, strings.Fields(tc.key)) || !bytes.Equal(got[tc.key], fullJSON[tc.key]) {
				t.Fatalf("JSON sections %s, want only %q as in the full report", keys, tc.key)
			}
		})
	}
	// A genuine zero reciprocity is a result: it serves as 0 and renders.
	zero := 0.0
	v := NewReportView(&Report{Reciprocity: &zero})
	if v.Reciprocity == nil || *v.Reciprocity != 0 || v.Summary != nil || v.Basic != nil {
		t.Fatalf("zero reciprocity view: %+v", v)
	}
	if txt := renderString(t, &Report{Reciprocity: &zero}); !strings.Contains(txt, "reciprocity: 0.0%") {
		t.Fatalf("zero reciprocity text: %q", txt)
	}
}

func marshalView(t *testing.T, rep *Report) []byte {
	t.Helper()
	b, err := json.Marshal(NewReportView(rep))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// sectionTitles lists the section titles of a rendered report in order: a
// title is the line above a line of '=' as long as it.
func sectionTitles(text string) []string {
	var titles []string
	lines := strings.Split(text, "\n")
	for i := 1; i < len(lines); i++ {
		if lines[i] != "" && strings.Trim(lines[i], "=") == "" && len(lines[i]) == len(lines[i-1]) {
			titles = append(titles, lines[i-1])
		}
	}
	return titles
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
	batch := func(data string) (Body, error) {
		b, _, err := UsersBatchBody(identity, []byte(data))
		return b, err
	}
	for _, c := range []struct {
		req          string
		b            func(string) (Body, error)
		arg          string
		entry, ctype string
	}{
		{"report", report, "", "body-v2-1f71373678bd3333", "application/json"},
		{"report", report, "format=json", "body-v2-1f71373678bd3333", "application/json"},
		{"report", report, "stages=degree,summary", "body-v2-95789eba3cd8eeb4", "application/json"},
		{"report", report, "stages=summary,+degree,summary", "body-v2-95789eba3cd8eeb4", "application/json"},
		{"report", report, "format=text", "body-v2-e72efc3c1a1514ae", "text/plain; charset=utf-8"},
		{"stage", stage, "components", "body-v2-858547fd1efca881", "application/json"},
		{"user features", user, "7", "body-v2-e04534b2cfcd0364", "application/json"},
		{"user features", user, "007", "body-v2-e04534b2cfcd0364", "application/json"},
		{"users:batch", batch, `{"ranks":[1,2,3]}`, "body-v2-029d34bb2bdd48ff", "application/json"},
		{"users:batch", batch, " {\"Ranks\": [1, 2,\n3], \"other\": true}\n", "body-v2-029d34bb2bdd48ff", "application/json"},
	} {
		b, err := c.b(c.arg)
		if err != nil || b.Entry != c.entry || b.ContentType != c.ctype {
			t.Errorf("%s %q: entry %s (%s, err %v), want %s (%s)", c.req, c.arg, b.Entry, b.ContentType, err, c.entry, c.ctype)
		}
	}
	if b := NewBody(identity, []string{StageFeatures}, "users-batch:1,2,3"); b.Entry != "body-v2-029d34bb2bdd48ff" {
		t.Errorf("users:batch entry %s, want body-v1-029d34bb2bdd48ff", b.Entry)
	}

	json, _ := report("")
	if next := bodyEntry(ViewVersion+1, json.Key); next == json.Entry || !strings.HasPrefix(next, "body-v3-") {
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
	if _, ranks, _ := UsersBatchBody(identity, []byte(`{"ranks":[3,1,2]}`)); !slices.Equal(ranks, []int{3, 1, 2}) {
		t.Errorf("users:batch ranks %v, want [3 1 2] in request order", ranks)
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
		{batch, ``, "bad request body: EOF"},
		{batch, `not json`, "bad request body: invalid character"},
		{batch, `{"ranks":[1.5]}`, "bad request body: json: cannot unmarshal number 1.5"},
		{batch, `{"ranks":[1]}garbage`, "trailing data after the JSON object"},
		{batch, `{"ranks":[1]}{}`, "trailing data after the JSON object"},
		{batch, `{}`, "ranks must be a non-empty array"},
		{batch, `{"ranks":[]}`, "ranks must be a non-empty array"},
		{batch, `{"ranks":[` + strings.Repeat("1,", maxBatchRanks) + `1]}`, "too many ranks (1025 > 1024)"},
		{batch, `{"ranks":[1]}` + strings.Repeat(" ", MaxBatchBody), "bad request body: over 1048576 bytes"},
	} {
		if _, err := bad.b(bad.arg); err == nil || !strings.Contains(err.Error(), bad.msg) {
			t.Errorf("%q: error %v, want one containing %q", bad.arg, err, bad.msg)
		}
	}
}

// FuzzUsersBatchBody feeds UsersBatchBody arbitrary users:batch request
// bodies, as any client can send. The invariants: it never panics; what it
// accepts is at most MaxBatchBody bytes and names 1..maxBatchRanks ranks;
// and the ranks it returns, re-encoded, name the same key, so every
// spelling of one rank list shares one stored body. Seeds live in
// testdata/fuzz/FuzzUsersBatchBody.
func FuzzUsersBatchBody(f *testing.F) {
	const identity = "00000000000000ff-0000000000000001"
	f.Fuzz(func(t *testing.T, data []byte) {
		b, ranks, err := UsersBatchBody(identity, data)
		if err != nil {
			return
		}
		if len(data) > MaxBatchBody || len(ranks) < 1 || len(ranks) > maxBatchRanks {
			t.Fatalf("accepted %d bytes naming %d ranks", len(data), len(ranks))
		}
		again, err := json.Marshal(batchRequest{Ranks: ranks})
		if err != nil {
			t.Fatal(err)
		}
		b2, ranks2, err := UsersBatchBody(identity, again)
		if err != nil || b2.Key != b.Key || b2.Entry != b.Entry || !slices.Equal(ranks2, ranks) {
			t.Fatalf("%q: re-encoded as %s, names %q (err %v), want %q", data, again, b2.Key, err, b.Key)
		}
	})
}
