package core

import (
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"elites/internal/gen"
	"elites/internal/graph"
	"elites/internal/twitter"
)

// testDataset builds a small platform dataset once per test binary.
var (
	cachedPlatform *twitter.Platform
	cachedDataset  *twitter.Dataset
)

func testPlatform(t *testing.T) (*twitter.Platform, *twitter.Dataset) {
	t.Helper()
	if cachedPlatform == nil {
		p, err := twitter.NewPlatform(twitter.DefaultPlatformConfig(3000))
		if err != nil {
			t.Fatal(err)
		}
		cachedPlatform = p
		ds, err := twitter.DatasetFromPlatform(p)
		if err != nil {
			t.Fatal(err)
		}
		cachedDataset = ds
	}
	return cachedPlatform, cachedDataset
}

func fastOptions() Options {
	return Options{
		DistanceSources:    60,
		BetweennessSources: 40,
		EigenK:             40,
		BootstrapReps:      20,
		Seed:               3,
	}
}

func TestRunFullPipeline(t *testing.T) {
	p, ds := testPlatform(t)
	activity := p.ActivitySeries(p.EnglishNodes())
	rep, err := NewCharacterizer(fastOptions()).Run(ds, activity)
	if err != nil {
		t.Fatal(err)
	}
	// §III summary.
	if rep.Summary.Nodes != ds.Graph.NumNodes() || rep.Summary.Edges != ds.Graph.NumEdges() {
		t.Fatal("summary counts wrong")
	}
	if rep.Summary.GiantSCCShare < 0.9 {
		t.Fatalf("giant SCC share = %v", rep.Summary.GiantSCCShare)
	}
	// §IV-A.
	if rep.Basic.Clustering <= 0 || rep.Basic.Clustering > 1 {
		t.Fatalf("clustering = %v", rep.Basic.Clustering)
	}
	if rep.Basic.AttractingComponents <= 0 {
		t.Fatal("no attracting components")
	}
	// §IV-B.
	if rep.Degree == nil || rep.Degree.Fit == nil {
		t.Fatal("degree fit missing")
	}
	if rep.Degree.Fit.Alpha < 2.5 || rep.Degree.Fit.Alpha > 4 {
		t.Fatalf("degree alpha = %v", rep.Degree.Fit.Alpha)
	}
	if rep.Eigen == nil || rep.Eigen.Fit == nil {
		t.Fatal("eigen fit missing")
	}
	if len(rep.Degree.Vuong) != 3 {
		t.Fatalf("degree Vuong comparisons = %d", len(rep.Degree.Vuong))
	}
	// §IV-C.
	if r := *rep.Reciprocity; r < 0.25 || r > 0.45 {
		t.Fatalf("reciprocity = %v", r)
	}
	// §IV-D.
	if rep.Distances.Mean() < 1.5 || rep.Distances.Mean() > 4 {
		t.Fatalf("mean distance = %v", rep.Distances.Mean())
	}
	// §IV-E.
	if rep.Bios == nil || len(rep.Bios.TopBigrams) == 0 || len(rep.Bios.TopTrigrams) == 0 {
		t.Fatal("bios missing")
	}
	if rep.Bios.TopBigrams[0].Phrase() != "Official Twitter" {
		t.Fatalf("top bigram = %v", rep.Bios.TopBigrams[0].Phrase())
	}
	// Figure 1.
	if len(rep.MetricHists) != 4 {
		t.Fatalf("metric histograms = %d", len(rep.MetricHists))
	}
	// Figure 5: six panels, all positively correlated.
	if len(rep.Centrality) != 6 {
		t.Fatalf("centrality panels = %d, want 6", len(rep.Centrality))
	}
	for _, p := range rep.Centrality {
		if p.Pearson <= 0 {
			t.Errorf("panel %q: pearson = %v, want positive", p.Label, p.Pearson)
		}
	}
	// §V.
	if rep.Activity == nil || rep.Activity.ADF == nil {
		t.Fatal("activity analysis missing")
	}
	if !rep.Activity.ADF.Stationary() {
		t.Fatalf("activity not stationary: %v", rep.Activity.ADF.Statistic)
	}
	if rep.Activity.LjungBoxMaxP > 1e-6 {
		t.Fatalf("Ljung–Box max p = %v", rep.Activity.LjungBoxMaxP)
	}
	if rep.Activity.SundayWeekday >= 1 {
		t.Fatalf("Sunday ratio = %v, want < 1", rep.Activity.SundayWeekday)
	}
}

func TestRunErrors(t *testing.T) {
	c := NewCharacterizer(Options{})
	if _, err := c.Run(nil, nil); err != ErrNoData {
		t.Fatal("nil dataset should error")
	}
	if _, err := c.Run(&twitter.Dataset{}, nil); err != ErrNoData {
		t.Fatal("empty dataset should error")
	}
}

func TestSkipFlags(t *testing.T) {
	_, ds := testPlatform(t)
	opts := fastOptions()
	opts.SkipEigen = true
	opts.SkipBetweenness = true
	opts.SkipBootstrap = true
	rep, err := NewCharacterizer(opts).Run(ds, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Eigen != nil {
		t.Fatal("eigen should be skipped")
	}
	// Without betweenness, only 4 panels survive.
	if len(rep.Centrality) != 4 {
		t.Fatalf("panels = %d, want 4 without betweenness", len(rep.Centrality))
	}
	if rep.Activity != nil {
		t.Fatal("activity should be nil without a series")
	}
	if !math.IsNaN(rep.Degree.GoFP) {
		t.Fatal("bootstrap should be skipped")
	}
}

func TestRenderContainsSections(t *testing.T) {
	p, ds := testPlatform(t)
	activity := p.ActivitySeries(p.EnglishNodes())
	opts := fastOptions()
	opts.SkipBootstrap = true
	rep, err := NewCharacterizer(opts).Run(ds, activity)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	rep.Render(&sb)
	out := sb.String()
	for _, want := range []string{
		"Dataset (paper §III)",
		"Basic analysis (paper §IV-A)",
		"Figure 1",
		"Figure 2",
		"Reciprocity",
		"Figure 3",
		"Table I",
		"Table II",
		"Figure 4",
		"Figure 5",
		"User categorization",
		"§IV-C conjecture validation",
		"Activity analysis (paper §V)",
		"Figure 6",
		"Official Twitter",
		"Ljung–Box",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

// fingerprintReport runs the fingerprint stages over a bare graph.
func fingerprintReport(t *testing.T, g *graph.Digraph, stages []string) *Report {
	t.Helper()
	rep, err := NewCharacterizer(Options{
		Stages: stages, SkipBootstrap: true, DistanceSources: 150, Seed: 5,
	}).Run(&twitter.Dataset{Graph: g}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestFingerprintContrast(t *testing.T) {
	v, err := gen.Verified(5000, 3)
	if err != nil {
		t.Fatal(err)
	}
	tw, err := gen.Twitter(5000, 4)
	if err != nil {
		t.Fatal(err)
	}
	fpV := FingerprintOf(fingerprintReport(t, v.Graph, FingerprintStages()))
	fpT := FingerprintOf(fingerprintReport(t, tw.Graph, FingerprintStages()))
	sv := fpV.VerifiedLikeness()
	st := fpT.VerifiedLikeness()
	t.Logf("verified-likeness: verified %.3f, generic %.3f", sv, st)
	if sv <= st {
		t.Fatalf("verified-likeness must separate: verified %v vs generic %v", sv, st)
	}
	if sv < 0.7 {
		t.Fatalf("verified graph scores only %v", sv)
	}
	// The paper's own fingerprint must score ~1.
	if s := PaperVerifiedFingerprint().VerifiedLikeness(); s < 0.99 {
		t.Fatalf("paper fingerprint scores %v", s)
	}
	var sb strings.Builder
	CompareFingerprints(&sb, [2]string{"verified", "generic"}, [2]Fingerprint{fpV, fpT})
	if !strings.Contains(sb.String(), "reciprocity") || !strings.Contains(sb.String(), "verified-likeness") {
		t.Fatal("comparison table incomplete")
	}
}

// TestFingerprintOfEdgeCases: an empty graph is not verified-like, and a
// section whose stage did not run reads as missing, not as zero.
func TestFingerprintOfEdgeCases(t *testing.T) {
	empty := FingerprintOf(fingerprintReport(t, gen.ErdosRenyi(0, 0, 1), FingerprintStages()))
	if s := empty.VerifiedLikeness(); s >= 0.6 {
		t.Fatalf("empty graph scores %v", s)
	}
	v, err := gen.Verified(2000, 3)
	if err != nil {
		t.Fatal(err)
	}
	fp := FingerprintOf(fingerprintReport(t, v.Graph, []string{StageSummary, StageReciprocity}))
	if !math.IsNaN(fp.PowerLawAlpha) || !math.IsNaN(fp.PowerLawGoF) || !math.IsNaN(fp.MeanDistance) {
		t.Fatalf("sections that did not run read as %v, %v, %v; want NaN",
			fp.PowerLawAlpha, fp.PowerLawGoF, fp.MeanDistance)
	}
	if !math.IsNaN(fp.Clustering) || !math.IsNaN(fp.Assortativity) || !math.IsNaN(fp.AttractingRate) {
		t.Fatalf("basic did not run, yet reads as %+v", fp)
	}
	if fp.Reciprocity == 0 || fp.GiantSCCShare == 0 {
		t.Fatalf("sections that ran read as zero: %+v", fp)
	}
	// A run without reciprocity reads NaN there, and that band is no hit.
	noRecip := slices.DeleteFunc(FingerprintStages(), func(s string) bool { return s == StageReciprocity })
	fp = FingerprintOf(fingerprintReport(t, v.Graph, noRecip))
	if !math.IsNaN(fp.Reciprocity) || math.IsNaN(fp.Clustering) || math.IsNaN(fp.IsolatedShare) {
		t.Fatalf("run without reciprocity reads as %+v", fp)
	}
	for _, b := range fp.Bands() {
		if b.Name == "reciprocity" && b.Score() != 0 {
			t.Fatalf("missing reciprocity scores %v", b.Score())
		}
	}
}

// TestParallelDeterminism is the acceptance check for the concurrent
// pipeline: the rendered report must be byte-identical between a sequential
// run and a maximally concurrent one, because every stochastic stage draws
// from its own seed-derived RNG stream.
func TestParallelDeterminism(t *testing.T) {
	p, ds := testPlatform(t)
	activity := p.ActivitySeries(p.EnglishNodes())
	render := func(parallelism int) string {
		opts := fastOptions()
		opts.Parallelism = parallelism
		rep, err := NewCharacterizer(opts).Run(ds, activity)
		if err != nil {
			t.Fatalf("parallelism %d: %v", parallelism, err)
		}
		var sb strings.Builder
		rep.Render(&sb)
		return sb.String()
	}
	seq := render(1)
	for _, par := range []int{2, 8} {
		if got := render(par); got != seq {
			t.Fatalf("report at parallelism %d differs from sequential run", par)
		}
	}
}

// TestParallelDeterminismHeavyStages pins the acceptance criterion for the
// intra-stage parallelism: with betweenness and the CSN bootstraps enabled —
// the two stages that shard their own hot loops and hand Options.Parallelism
// through as their worker budget — the rendered report must still be
// byte-identical between Parallelism 1 and 8.
func TestParallelDeterminismHeavyStages(t *testing.T) {
	_, ds := testPlatform(t)
	render := func(parallelism int) string {
		opts := Options{
			DistanceSources:    40,
			BetweennessSources: 24,
			BootstrapReps:      10,
			Seed:               5,
			SkipEigen:          true, // keep the test fast; eigen has no sharded loop
			Stages:             []string{StageDegree, StageCentrality},
			Parallelism:        parallelism,
		}
		rep, err := NewCharacterizer(opts).Run(ds, nil)
		if err != nil {
			t.Fatalf("parallelism %d: %v", parallelism, err)
		}
		if rep.Degree == nil || math.IsNaN(rep.Degree.GoFP) {
			t.Fatalf("parallelism %d: bootstrap did not run", parallelism)
		}
		if len(rep.Centrality) == 0 {
			t.Fatalf("parallelism %d: betweenness panels missing", parallelism)
		}
		var sb strings.Builder
		rep.Render(&sb)
		return sb.String()
	}
	seq := render(1)
	if got := render(8); got != seq {
		t.Fatal("heavy-stage report at parallelism 8 differs from sequential run")
	}
}

func TestStageSubsetOption(t *testing.T) {
	_, ds := testPlatform(t)
	opts := fastOptions()
	opts.SkipBootstrap = true
	opts.Stages = []string{StageSummary, StageReciprocity}
	rep, err := NewCharacterizer(opts).Run(ds, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Requested stages (and the summary's components dependency) ran...
	if rep.Summary.Nodes != ds.Graph.NumNodes() {
		t.Fatal("summary stage did not run")
	}
	if rep.Reciprocity == nil || *rep.Reciprocity <= 0 {
		t.Fatal("reciprocity stage did not run")
	}
	// ...and unrequested ones did not.
	if rep.Degree != nil || rep.Distances != nil || rep.Bios != nil || rep.Centrality != nil {
		t.Fatal("unrequested stages ran")
	}
	// Unknown names error.
	opts.Stages = []string{"nonsense"}
	if _, err := NewCharacterizer(opts).Run(ds, nil); err == nil {
		t.Fatal("unknown stage name must error")
	}
	// Valid names that cannot apply to this run (no activity series) error
	// rather than returning an empty report.
	opts.Stages = []string{StageActivity}
	if _, err := NewCharacterizer(opts).Run(ds, nil); err == nil {
		t.Fatal("inapplicable-only stage selection must error")
	}
}

func TestTimingsOption(t *testing.T) {
	_, ds := testPlatform(t)
	opts := fastOptions()
	opts.SkipBootstrap = true
	opts.SkipEigen = true
	opts.Timings = true
	begin := time.Now()
	rep, err := NewCharacterizer(opts).Run(ds, nil)
	end := time.Now()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Timings) == 0 {
		t.Fatal("timings requested but empty")
	}
	seen := map[string]bool{}
	for _, tm := range rep.Timings {
		seen[tm.Name] = true
		if tm.Duration < 0 {
			t.Fatalf("negative duration for %s", tm.Name)
		}
		// Start is the same record the stage span is built from: every
		// executed stage has one, and it places the stage inside the run.
		if tm.Start.IsZero() {
			t.Fatalf("executed stage %s has no start", tm.Name)
		}
		if tm.Start.Before(begin) || tm.Start.Add(tm.Duration).After(end) {
			t.Fatalf("stage %s [%v, +%v] falls outside the run [%v, %v]",
				tm.Name, tm.Start, tm.Duration, begin, end)
		}
	}
	for _, want := range []string{StageComponents, StageSummary, StageDegree, StageReciprocity} {
		if !seen[want] {
			t.Errorf("missing timing for stage %q", want)
		}
	}
	if seen[StageEigen] || seen[StageActivity] {
		t.Error("skipped stages must not report timings")
	}
	// Without the option the field stays empty, and the rendered report is
	// identical either way — timings never leak into the render.
	opts.Timings = false
	rep2, err := NewCharacterizer(opts).Run(ds, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Timings != nil {
		t.Fatal("timings recorded without the option")
	}
	var with, without strings.Builder
	rep.Render(&with)
	rep2.Render(&without)
	if with.String() != without.String() {
		t.Fatal("enabling timings changed the rendered report")
	}
}
