package core

import (
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"elites/internal/cache"
	"elites/internal/centrality"
	"elites/internal/features"
	"elites/internal/graph"
	"elites/internal/mathx"
)

// featuresOptions enables the opt-in feature stage next to the cheap
// battery configuration.
func featuresOptions(dir string) Options {
	o := cacheOptions(dir)
	o.Stages = []string{StageFeatures}
	return o
}

func matricesBitIdentical(t *testing.T, want, got *features.Matrix, label string) {
	t.Helper()
	if got == nil || want == nil {
		t.Fatalf("%s: nil matrix (want=%v got=%v)", label, want != nil, got != nil)
	}
	if want.N != got.N || want.CoreK != got.CoreK || want.Degeneracy != got.Degeneracy ||
		want.TailCount != got.TailCount || want.ClassCounts != got.ClassCounts ||
		math.Float64bits(want.TailXmin) != math.Float64bits(got.TailXmin) {
		t.Fatalf("%s: scalar mismatch", label)
	}
	for i := range want.Data {
		if math.Float64bits(want.Data[i]) != math.Float64bits(got.Data[i]) {
			t.Fatalf("%s: Data[%d] differs", label, i)
		}
	}
	for i := range want.Probs {
		if math.Float64bits(want.Probs[i]) != math.Float64bits(got.Probs[i]) {
			t.Fatalf("%s: Probs[%d] differs", label, i)
		}
	}
	for i := range want.Class {
		if want.Class[i] != got.Class[i] {
			t.Fatalf("%s: Class[%d] differs", label, i)
		}
	}
}

func TestFeatureStageColdWarmBitIdentical(t *testing.T) {
	p, ds := testPlatform(t)
	activity := p.ActivitySeries(p.EnglishNodes())
	dir := t.TempDir()
	opts := featuresOptions(dir)

	cold, err := NewCharacterizer(opts).Run(ds, activity)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cold.Cache.Misses, []string{StageFeatures}) || len(cold.Cache.Hits) != 0 {
		t.Fatalf("cold traffic: %+v", cold.Cache)
	}
	warm, err := NewCharacterizer(opts).Run(ds, activity)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(warm.Cache.Hits, []string{StageFeatures}) || len(warm.Cache.Misses) != 0 {
		t.Fatalf("warm traffic: %+v", warm.Cache)
	}
	matricesBitIdentical(t, cold.Features, warm.Features, "warm hydration")
}

func TestFeatureStageCorruptShardRecomputes(t *testing.T) {
	p, ds := testPlatform(t)
	activity := p.ActivitySeries(p.EnglishNodes())
	dir := t.TempDir()
	opts := featuresOptions(dir)

	cold, err := NewCharacterizer(opts).Run(ds, activity)
	if err != nil {
		t.Fatal(err)
	}

	// Truncate one shard entry on disk; the checksum mismatch must turn the
	// whole stage into a miss (full recompute), never an error or a
	// partially-hydrated matrix.
	shards, _ := filepath.Glob(filepath.Join(dir, "features.shard0000-*.bin"))
	if len(shards) != 1 {
		t.Fatalf("want one shard-0 entry, found %v", shards)
	}
	data, err := os.ReadFile(shards[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(shards[0], data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	cc, err := cache.New(dir)
	if err != nil {
		t.Fatal(err)
	}
	cc.DropMemory()

	warm, err := NewCharacterizer(opts).Run(ds, activity)
	if err != nil {
		t.Fatalf("corrupt shard broke the run: %v", err)
	}
	if !contains(warm.Cache.Misses, StageFeatures) {
		t.Fatalf("corrupt shard should force a recompute: %+v", warm.Cache)
	}
	matricesBitIdentical(t, cold.Features, warm.Features, "recompute after corruption")
}

func TestFeatureStageOptIn(t *testing.T) {
	p, ds := testPlatform(t)
	activity := p.ActivitySeries(p.EnglishNodes())
	dir := t.TempDir()

	// The default battery neither runs nor caches the feature stage.
	rep, err := NewCharacterizer(cacheOptions(dir)).Run(ds, activity)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Features != nil {
		t.Fatal("feature matrix computed without opting in")
	}
	if contains(rep.Cache.Hits, StageFeatures) || contains(rep.Cache.Misses, StageFeatures) {
		t.Fatalf("feature stage in default cache traffic: %+v", rep.Cache)
	}

	// Options.Features is the flag-shaped opt-in: the stage joins the full
	// battery instead of replacing it.
	opts := cacheOptions(t.TempDir())
	opts.Features = true
	opts.Parallelism = 1 // observer below appends without locking
	var observed []string
	opts.StageObserver = func(tm StageTiming) { observed = append(observed, tm.Name) }
	full, err := NewCharacterizer(opts).Run(ds, activity)
	if err != nil {
		t.Fatal(err)
	}
	if full.Features == nil || full.Summary.Nodes != ds.Graph.NumNodes() {
		t.Fatal("Features=true should add the stage to the full battery")
	}
	if !contains(full.Cache.Misses, StageFeatures) {
		t.Fatalf("feature stage missing from cache traffic: %+v", full.Cache)
	}
	if !contains(observed, StageFeatures) {
		t.Fatalf("feature stage invisible to StageObserver: %v", observed)
	}
}

// TestSharedQuantitiesAcrossStages runs every stage that reads the per-run
// shared set concurrently (Parallelism 4, so under -race they hit the memo
// at once) and checks that the report gives one answer per question: the
// matrix equals the standalone computation, and its betweenness column is
// the percentile of the centrality stage's own sample.
func TestSharedQuantitiesAcrossStages(t *testing.T) {
	p, ds := testPlatform(t)
	activity := p.ActivitySeries(p.EnglishNodes())
	opts := fastOptions()
	opts.Parallelism = 4
	opts.Stages = []string{StageDegree, StageCentrality, StageCategories, StageMutualCore, StageFeatures}
	rep, err := NewCharacterizer(opts).Run(ds, activity)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Degree == nil || len(rep.Centrality) == 0 || rep.Categories == nil || rep.MutualCore == nil {
		t.Fatal("a shared-set stage produced nothing")
	}
	fopts := features.Options{BetweennessSources: opts.BetweennessSources, Seed: opts.Seed, Parallelism: 1}
	want, err := features.Compute(ds, nil, fopts)
	if err != nil {
		t.Fatal(err)
	}
	matricesBitIdentical(t, want, rep.Features, "battery vs standalone")

	g := ds.Graph
	n := g.NumNodes()
	bc := centrality.ApproxBetweennessWorkers(g, opts.BetweennessSources,
		mathx.NewRNG(opts.Seed).Derive(StageCentrality), 1)
	for u := 0; u < n; u++ {
		less, ties := 0, 0
		for v := 0; v < n; v++ {
			switch {
			case bc[v] < bc[u]:
				less++
			case bc[v] == bc[u]:
				ties++
			}
		}
		pct := (float64(less) + 0.5*float64(ties-1)) / float64(n-1)
		if got := rep.Features.Row(u)[features.FeatBetweennessPct]; math.Float64bits(got) != math.Float64bits(pct) {
			t.Fatalf("node %d: betweenness_pct %v, want %v from the centrality sample", u, got, pct)
		}
	}
	if rep.Features.Degeneracy != rep.MutualCore.Degeneracy || rep.Features.CoreK != rep.MutualCore.CoreK {
		t.Fatalf("cores disagree: features (%d, %d), mutualcore (%d, %d)", rep.Features.Degeneracy,
			rep.Features.CoreK, rep.MutualCore.Degeneracy, rep.MutualCore.CoreK)
	}
	if math.Float64bits(rep.Features.TailXmin) != math.Float64bits(rep.Degree.Fit.Xmin) {
		t.Fatalf("tail xmin %v, degree fit xmin %v", rep.Features.TailXmin, rep.Degree.Fit.Xmin)
	}
}

// TestFeatureStageSharesClusteringWithBasic runs basic and features in one
// pass over one features.Shared: the report's mean clustering must carry
// the bits of a fresh graph.LocalClusteringAll pass, and the matrix's clustering column
// must be the per-node vector that mean averages.
func TestFeatureStageSharesClusteringWithBasic(t *testing.T) {
	p, ds := testPlatform(t)
	opts := fastOptions()
	opts.Stages = []string{StageBasic, StageFeatures}
	rep, err := NewCharacterizer(opts).Run(ds, p.ActivitySeries(p.EnglishNodes()))
	if err != nil {
		t.Fatal(err)
	}
	g := ds.Graph
	if got, want := rep.Basic.Clustering, graph.MeanClustering(graph.LocalClusteringAll(g, 0)); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("basic clustering %v, fresh mean clustering %v", got, want)
	}
	if rep.Features == nil {
		t.Fatal("feature stage did not run")
	}
	for u, c := range graph.LocalClusteringAll(g, 1) {
		if got := rep.Features.Row(u)[features.FeatClustering]; math.Float64bits(got) != math.Float64bits(c) {
			t.Fatalf("node %d: clustering column %v, LocalClusteringAll %v", u, got, c)
		}
	}
}
