package core

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"elites/internal/cache"
	"elites/internal/faults"
	"elites/internal/gen"
	"elites/internal/store"
	"elites/internal/twitter"
)

// cacheOptions keeps the heavy stages cheap but real (bootstraps,
// betweenness and distances all run) so hit/miss behaviour is exercised on
// every cached stage.
func cacheOptions(dir string) Options {
	o := fastOptions()
	o.CacheDir = dir
	return o
}

func renderString(t *testing.T, rep *Report) string {
	t.Helper()
	var buf bytes.Buffer
	rep.Render(&buf)
	return buf.String()
}

// cachedStageNames is what a full run should report as cache traffic, in
// stage declaration order: every stage but the opt-in features.
// seedKeyedStageNames is the subset whose options digest includes Seed (the
// others are deterministic over the dataset, so a seed change still hits
// them).
var (
	cachedStageNames = []string{StageComponents, StageSummary, StageBasic, StageDegree, StageEigen,
		StageReciprocity, StageDistances, StageBios, StageHistograms, StageCentrality,
		StageCategories, StageMutualCore, StageActivity}
	seedKeyedStageNames = []string{StageDegree, StageEigen, StageDistances, StageCentrality}
)

func TestWarmRunByteIdenticalAndSkipsHeavyStages(t *testing.T) {
	p, ds := testPlatform(t)
	activity := p.ActivitySeries(p.EnglishNodes())
	dir := t.TempDir()

	cold, err := NewCharacterizer(cacheOptions(dir)).Run(ds, activity)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Cache == nil {
		t.Fatal("cache report missing on cold run")
	}
	if len(cold.Cache.Hits) != 0 || !reflect.DeepEqual(cold.Cache.Misses, cachedStageNames) {
		t.Fatalf("cold run cache traffic: hits=%v misses=%v", cold.Cache.Hits, cold.Cache.Misses)
	}

	warm, err := NewCharacterizer(cacheOptions(dir)).Run(ds, activity)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(warm.Cache.Hits, cachedStageNames) || len(warm.Cache.Misses) != 0 {
		t.Fatalf("warm run cache traffic: hits=%v misses=%v", warm.Cache.Hits, warm.Cache.Misses)
	}
	if coldOut, warmOut := renderString(t, cold), renderString(t, warm); coldOut != warmOut {
		t.Fatal("warm-cache report is not byte-identical to the cold run")
	}
	// The hydrated analyses must be structurally identical too, not just
	// identically rendered.
	if cold.Summary != warm.Summary {
		t.Fatal("summary diverges after cache round trip")
	}
	if cold.Reciprocity != warm.Reciprocity {
		t.Fatal("reciprocity diverges after cache round trip")
	}
	if !reflect.DeepEqual(cold.MetricHists, warm.MetricHists) {
		t.Fatal("metric histograms diverge after cache round trip")
	}
	if !reflect.DeepEqual(cold.Distances, warm.Distances) {
		t.Fatal("distances diverge after cache round trip")
	}
	if !reflect.DeepEqual(cold.Centrality, warm.Centrality) {
		t.Fatal("centrality diverges after cache round trip")
	}
	if !reflect.DeepEqual(cold.DegreeSeries, warm.DegreeSeries) {
		t.Fatal("degree series diverges after cache round trip")
	}
	if cold.Degree.GoFP != warm.Degree.GoFP || cold.Degree.Fit.Alpha != warm.Degree.Fit.Alpha {
		t.Fatal("degree analysis diverges after cache round trip")
	}
	if !reflect.DeepEqual(cold.Basic, warm.Basic) {
		t.Fatal("basic analysis diverges after cache round trip")
	}
	if !reflect.DeepEqual(cold.MutualCore, warm.MutualCore) {
		t.Fatal("mutual-core analysis diverges after cache round trip")
	}
	if !reflect.DeepEqual(cold.Bios, warm.Bios) {
		t.Fatal("bio analysis diverges after cache round trip")
	}
	if !reflect.DeepEqual(cold.Categories, warm.Categories) {
		t.Fatal("category analysis diverges after cache round trip")
	}
	if !reflect.DeepEqual(cold.Activity, warm.Activity) || warm.Activity.Series != activity {
		t.Fatal("activity analysis diverges after cache round trip")
	}
	// JSON views, not just the text render, must match byte for byte.
	coldJSON, err := json.Marshal(NewReportView(cold))
	if err != nil {
		t.Fatal(err)
	}
	warmJSON, err := json.Marshal(NewReportView(warm))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(coldJSON, warmJSON) {
		t.Fatal("warm-cache JSON view is not byte-identical to the cold run")
	}
}

func TestCacheTimingsMarkHits(t *testing.T) {
	p, ds := testPlatform(t)
	activity := p.ActivitySeries(p.EnglishNodes())
	dir := t.TempDir()
	opts := cacheOptions(dir)
	opts.Timings = true

	if _, err := NewCharacterizer(opts).Run(ds, activity); err != nil {
		t.Fatal(err)
	}
	warm, err := NewCharacterizer(opts).Run(ds, activity)
	if err != nil {
		t.Fatal(err)
	}
	timed := map[string]bool{}
	for _, tm := range warm.Timings {
		if !tm.CacheHit {
			t.Errorf("stage %s not marked as a cache hit in timings", tm.Name)
		}
		timed[tm.Name] = true
	}
	for _, name := range cachedStageNames {
		if !timed[name] {
			t.Errorf("stage %s missing from the warm run's timings", name)
		}
	}
}

// TestBasicMissBehindComponentsHit deletes basic's entry alone. components
// still hits, so no run fills the SCC labels basic reads: basic must
// compute them itself and match the cold analysis, attracting components
// included, while components, summary and the rest stay hits.
func TestBasicMissBehindComponentsHit(t *testing.T) {
	p, ds := testPlatform(t)
	activity := p.ActivitySeries(p.EnglishNodes())
	dir := t.TempDir()
	cold, err := NewCharacterizer(cacheOptions(dir)).Run(ds, activity)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Basic.AttractingComponents == 0 || len(cold.Basic.AttractingCores) == 0 {
		t.Fatalf("cold basic analysis has no attracting components: %+v", cold.Basic)
	}
	dropMemoryTier(t, dir)
	paths, err := filepath.Glob(filepath.Join(dir, StageBasic+"-*.bin"))
	if err != nil || len(paths) != 1 {
		t.Fatalf("basic entries = %v (err %v)", paths, err)
	}
	if err := os.Remove(paths[0]); err != nil {
		t.Fatal(err)
	}
	rep, err := NewCharacterizer(cacheOptions(dir)).Run(ds, activity)
	if err != nil {
		t.Fatal(err)
	}
	wantHits := slices.DeleteFunc(slices.Clone(cachedStageNames), func(s string) bool { return s == StageBasic })
	if !reflect.DeepEqual(rep.Cache.Misses, []string{StageBasic}) || !reflect.DeepEqual(rep.Cache.Hits, wantHits) {
		t.Fatalf("traffic: hits=%v misses=%v, want only basic to miss", rep.Cache.Hits, rep.Cache.Misses)
	}
	if !reflect.DeepEqual(rep.Basic, cold.Basic) {
		t.Fatalf("re-run basic %+v, cold %+v", rep.Basic, cold.Basic)
	}
	if renderString(t, rep) != renderString(t, cold) {
		t.Fatal("report with a recomputed basic diverges from the cold run")
	}
}

// TestRunDigestedSharesRunContextCacheIdentity pins the two entry points to
// one cache identity: RunContext hashes the dataset itself, RunDigested is
// handed store.DatasetDigest by its caller, and a directory primed through
// either one is hit on every cached stage (feature shards included) by the
// other, from disk, with byte-identical rendered reports.
func TestRunDigestedSharesRunContextCacheIdentity(t *testing.T) {
	p, ds := testPlatform(t)
	activity := p.ActivitySeries(p.EnglishNodes())
	digest := store.DatasetDigest(ds, activity)
	ctx := context.Background()
	viaContext := func(c *Characterizer) (*Report, error) { return c.RunContext(ctx, ds, activity) }
	viaDigest := func(c *Characterizer) (*Report, error) { return c.RunDigested(ctx, ds, activity, digest) }
	want := append(slices.Clone(cachedStageNames), StageFeatures)

	for _, tc := range []struct {
		name          string
		prime, reread func(*Characterizer) (*Report, error)
	}{
		{"RunContext then RunDigested", viaContext, viaDigest},
		{"RunDigested then RunContext", viaDigest, viaContext},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := cacheOptions(t.TempDir())
			opts.Features = true
			cold, err := tc.prime(NewCharacterizer(opts))
			if err != nil {
				t.Fatal(err)
			}
			if len(cold.Cache.Hits) != 0 || !reflect.DeepEqual(cold.Cache.Misses, want) {
				t.Fatalf("priming run: hits=%v misses=%v", cold.Cache.Hits, cold.Cache.Misses)
			}
			dropMemoryTier(t, opts.CacheDir)
			warm, err := tc.reread(NewCharacterizer(opts))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(warm.Cache.Hits, want) || len(warm.Cache.Misses) != 0 {
				t.Fatalf("other entry point: hits=%v misses=%v, want every cached stage hit",
					warm.Cache.Hits, warm.Cache.Misses)
			}
			if renderString(t, cold) != renderString(t, warm) {
				t.Fatal("reports rendered through the two entry points differ")
			}
		})
	}
}

func TestChangedOptionsMiss(t *testing.T) {
	p, ds := testPlatform(t)
	activity := p.ActivitySeries(p.EnglishNodes())
	dir := t.TempDir()

	if _, err := NewCharacterizer(cacheOptions(dir)).Run(ds, activity); err != nil {
		t.Fatal(err)
	}

	// Each perturbation must miss exactly the stages whose output it can
	// change, and still hit the others.
	cases := []struct {
		name       string
		mutate     func(o *Options)
		wantMisses []string
	}{
		{"seed", func(o *Options) { o.Seed = 4 }, seedKeyedStageNames},
		{"distance sources", func(o *Options) { o.DistanceSources = 61 }, []string{StageDistances}},
		{"betweenness sources", func(o *Options) { o.BetweennessSources = 41 }, []string{StageCentrality}},
		{"bootstrap reps", func(o *Options) { o.BootstrapReps = 21 }, []string{StageDegree, StageEigen}},
		{"eigen k", func(o *Options) { o.EigenK = 41 }, []string{StageEigen}},
		{"skip bootstrap", func(o *Options) { o.SkipBootstrap = true }, []string{StageDegree, StageEigen}},
		{"parallelism (never keyed)", func(o *Options) { o.Parallelism = 3 }, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := cacheOptions(dir)
			tc.mutate(&opts)
			rep, err := NewCharacterizer(opts).Run(ds, activity)
			if err != nil {
				t.Fatal(err)
			}
			var misses []string
			if rep.Cache != nil {
				misses = rep.Cache.Misses
			}
			if !reflect.DeepEqual(misses, tc.wantMisses) {
				t.Fatalf("misses = %v, want %v (hits %v)", misses, tc.wantMisses, rep.Cache.Hits)
			}
		})
	}
}

func TestChangedDatasetMisses(t *testing.T) {
	dir := t.TempDir()
	mk := func(n int) *twitter.Dataset {
		res, err := gen.Verified(n, 1)
		if err != nil {
			t.Fatal(err)
		}
		return &twitter.Dataset{Graph: res.Graph}
	}
	opts := cacheOptions(dir)
	opts.SkipEigen = true
	if _, err := NewCharacterizer(opts).Run(mk(500), nil); err != nil {
		t.Fatal(err)
	}
	rep, err := NewCharacterizer(opts).Run(mk(501), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Cache.Hits) != 0 {
		t.Fatalf("different dataset produced cache hits: %v", rep.Cache.Hits)
	}
	// Same dataset again: hits.
	rep2, err := NewCharacterizer(opts).Run(mk(500), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep2.Cache.Misses) != 0 {
		t.Fatalf("identical regenerated dataset missed: %v", rep2.Cache.Misses)
	}
}

func TestCorruptedCacheFilesRecomputeSilently(t *testing.T) {
	p, ds := testPlatform(t)
	activity := p.ActivitySeries(p.EnglishNodes())
	dir := t.TempDir()

	cold, err := NewCharacterizer(cacheOptions(dir)).Run(ds, activity)
	if err != nil {
		t.Fatal(err)
	}
	// Instances are shared per directory, so drop the memory tier to force
	// the next run through the (about to be corrupted) disk entries — as a
	// fresh process would read them.
	dropMemoryTier(t, dir)
	entries, err := filepath.Glob(filepath.Join(dir, "*.bin"))
	if err != nil || len(entries) != len(cachedStageNames) {
		t.Fatalf("cache dir entries = %v (err %v)", entries, err)
	}
	for i, path := range entries {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		switch i % 3 {
		case 0: // truncate
			raw = raw[:len(raw)/3]
		case 1: // flip a payload byte
			raw[len(raw)/2] ^= 0x40
		case 2: // empty
			raw = nil
		}
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	rep, err := NewCharacterizer(cacheOptions(dir)).Run(ds, activity)
	if err != nil {
		t.Fatalf("corrupted cache must recompute, not error: %v", err)
	}
	if len(rep.Cache.Hits) != 0 {
		t.Fatalf("corrupted entries served as hits: %v", rep.Cache.Hits)
	}
	if got, want := renderString(t, rep), renderString(t, cold); got != want {
		t.Fatal("recomputed report diverges from cold run")
	}
	// And the rewritten entries serve the next run.
	rep2, err := NewCharacterizer(cacheOptions(dir)).Run(ds, activity)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep2.Cache.Misses) != 0 {
		t.Fatalf("repaired cache still missing: %v", rep2.Cache.Misses)
	}
}

// dropMemoryTier empties the shared in-memory tier for dir, simulating a
// fresh process that only has the disk tier.
func dropMemoryTier(t *testing.T, dir string) {
	t.Helper()
	cc, err := cache.New(dir)
	if err != nil {
		t.Fatal(err)
	}
	cc.DropMemory()
}

// TestCacheOffWithoutDir: without a CacheDir there is no cache and no
// cache report.
func TestCacheOffWithoutDir(t *testing.T) {
	p, ds := testPlatform(t)
	activity := p.ActivitySeries(p.EnglishNodes())
	rep, err := NewCharacterizer(fastOptions()).Run(ds, activity)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Cache != nil {
		t.Fatal("cache report without CacheDir")
	}
}

func TestCacheWithStageSubset(t *testing.T) {
	p, ds := testPlatform(t)
	activity := p.ActivitySeries(p.EnglishNodes())
	dir := t.TempDir()

	opts := cacheOptions(dir)
	opts.Stages = []string{StageDistances}
	cold, err := NewCharacterizer(opts).Run(ds, activity)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cold.Cache.Misses, []string{StageDistances}) || len(cold.Cache.Hits) != 0 {
		t.Fatalf("subset cold traffic: %+v", cold.Cache)
	}
	warm, err := NewCharacterizer(opts).Run(ds, activity)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(warm.Cache.Hits, []string{StageDistances}) || len(warm.Cache.Misses) != 0 {
		t.Fatalf("subset warm traffic: %+v", warm.Cache)
	}
	// The full run then hits distances but misses the others.
	full, err := NewCharacterizer(cacheOptions(dir)).Run(ds, activity)
	if err != nil {
		t.Fatal(err)
	}
	if !contains(full.Cache.Hits, StageDistances) {
		t.Fatalf("full run should reuse the subset's distances: %+v", full.Cache)
	}
	if !contains(full.Cache.Misses, StageCentrality) {
		t.Fatalf("full run should still compute centrality: %+v", full.Cache)
	}
}

func contains(xs []string, want string) bool {
	for _, x := range xs {
		if x == want {
			return true
		}
	}
	return false
}

func TestCacheKeysAreStageScoped(t *testing.T) {
	// Every cached stage on one dataset produces its own distinct file —
	// no key collisions between stages sharing a dataset digest.
	p, ds := testPlatform(t)
	activity := p.ActivitySeries(p.EnglishNodes())
	dir := t.TempDir()
	if _, err := NewCharacterizer(cacheOptions(dir)).Run(ds, activity); err != nil {
		t.Fatal(err)
	}
	entries, _ := filepath.Glob(filepath.Join(dir, "*.bin"))
	seen := map[string]bool{}
	for _, e := range entries {
		base := filepath.Base(e)
		stage := base[:strings.IndexByte(base, '-')]
		if seen[stage] {
			t.Fatalf("two files for stage %s", stage)
		}
		seen[stage] = true
	}
	for _, name := range cachedStageNames {
		if !seen[name] {
			t.Errorf("no cache file for stage %s (have %v)", name, entries)
		}
	}
}

// hydratedStageNames are the report tables and §V verdicts: stages whose
// options digest no option moves.
var hydratedStageNames = []string{StageBios, StageCategories, StageActivity}

// optionFlip changes one Options field and names the cached stages whose
// options digest that field enters. The field is declared to have no effect
// on the output of every other stage.
type optionFlip struct {
	flip  func(o *Options)
	moves []string
}

// noEffectFields are the Options fields declared to change no result: they
// enter no stage key and leave ResultDigest unchanged. Every other field
// shapes a result and must move ResultDigest.
var noEffectFields = []string{"Parallelism", "Stages", "Timings", "CacheDir",
	"CacheMemBytes", "StageObserver", "StageRetries", "Faults"}

// optionFlips classifies every core.Options field. Booleans and the stage
// selection toggle, so a flip moves any baseline.
func optionFlips(t *testing.T) map[string]optionFlip {
	seeded := []string{StageDegree, StageEigen, StageDistances, StageCentrality, StageFeatures}
	return map[string]optionFlip{
		"DistanceSources":    {func(o *Options) { o.DistanceSources = 30 }, []string{StageDistances}},
		"BetweennessSources": {func(o *Options) { o.BetweennessSources += 8 }, []string{StageCentrality, StageFeatures}},
		"EigenK":             {func(o *Options) { o.EigenK = 10 }, []string{StageEigen}},
		"BootstrapReps":      {func(o *Options) { o.BootstrapReps = 5 }, []string{StageDegree, StageEigen}},
		"Seed":               {func(o *Options) { o.Seed++ }, seeded},
		"SkipEigen":          {func(o *Options) { o.SkipEigen = !o.SkipEigen }, nil},
		"SkipBetweenness":    {func(o *Options) { o.SkipBetweenness = !o.SkipBetweenness }, []string{StageCentrality}},
		"SkipBootstrap":      {func(o *Options) { o.SkipBootstrap = !o.SkipBootstrap }, []string{StageDegree, StageEigen}},
		"Parallelism":        {func(o *Options) { o.Parallelism = 1 }, nil},
		"Stages": {func(o *Options) {
			if o.Stages == nil {
				o.Stages = []string{StageFeatures}
			} else {
				o.Stages = nil
			}
		}, nil},
		"Timings":       {func(o *Options) { o.Timings = true }, nil},
		"CacheDir":      {func(o *Options) { o.CacheDir = t.TempDir() }, nil},
		"CacheMemBytes": {func(o *Options) { o.CacheMemBytes = 1 << 20 }, nil},
		"StageObserver": {func(o *Options) { o.StageObserver = func(StageTiming) {} }, nil},
		"Features":      {func(o *Options) { o.Features = !o.Features }, nil},
		"StageRetries":  {func(o *Options) { o.StageRetries = 1 }, nil},
		"Faults":        {func(o *Options) { o.Faults = faults.New(1) }, nil},
	}
}

// stagePayloads renders each cached stage's output from a report through
// its own codec, so two outputs compare bit for bit (NaN included).
// components has no report field of its own: its counts are the summary's.
var stagePayloads = map[string]func(r *Report, e *cache.Encoder){
	StageComponents: func(r *Report, e *cache.Encoder) {
		encodeComponentsTo(e, componentCounts{r.Summary.NumSCCs, r.Summary.GiantSCCSize, r.Summary.NumWCCs})
	},
	StageSummary:     func(r *Report, e *cache.Encoder) { encodeSummaryTo(e, r.Summary) },
	StageBasic:       func(r *Report, e *cache.Encoder) { encodeBasicTo(e, r.Basic) },
	StageDegree:      func(r *Report, e *cache.Encoder) { encodeDegreeTo(e, r.DegreeSeries, r.Degree) },
	StageEigen:       func(r *Report, e *cache.Encoder) { encodePowerLawTo(e, r.Eigen) },
	StageReciprocity: func(r *Report, e *cache.Encoder) { e.Float64(r.Reciprocity) },
	StageDistances:   func(r *Report, e *cache.Encoder) { encodeDistancesTo(e, r.Distances) },
	StageBios:        func(r *Report, e *cache.Encoder) { encodeBiosTo(e, r.Bios) },
	StageHistograms:  func(r *Report, e *cache.Encoder) { encodeHistogramsTo(e, r.MetricHists) },
	StageCentrality:  func(r *Report, e *cache.Encoder) { encodeCentralityTo(e, r.Centrality) },
	StageCategories:  func(r *Report, e *cache.Encoder) { encodeCategoriesTo(e, r.Categories) },
	StageMutualCore:  func(r *Report, e *cache.Encoder) { encodeMutualCoreTo(e, r.MutualCore) },
	StageActivity:    func(r *Report, e *cache.Encoder) { encodeActivityTo(e, r.Activity) },
}

func stagePayload(r *Report, stage string) []byte {
	var e cache.Encoder
	stagePayloads[stage](r, &e)
	return e.Bytes()
}

// graphStageNames are the cached default stages outside
// hydratedStageNames: the graph kernels and the dataset summaries.
var graphStageNames = slices.DeleteFunc(slices.Clone(cachedStageNames),
	func(s string) bool { return contains(hydratedStageNames, s) })

// identityGolden pins the cache identity: every stage key, feature shard
// key and response identity is built from these digests, so a change that
// moves one orphans every cache entry and stored response body written
// before it. A refactor must leave every value unchanged. A change that
// bumps a codec or deliberately changes a key may update a value, and
// says why in CHANGES.md.
var identityGolden = struct {
	result map[string]uint64 // ResultDigest by options
	stage  map[string]uint64 // stageDigest of each default stage, Options{}
	shard  uint64            // FeatureStore(nil, 1, Options{}).Options
}{
	result: map[string]uint64{
		"zero":  0x730a14382f3e6aa1, // Options{}
		"serve": 0x77a6a8fe3dc35dc6, // eliteserve's and eliteanalyze's defaults: Seed 42
	},
	stage: map[string]uint64{
		StageComponents:  0xcbf29ce484222325, // no option words: the empty hash
		StageSummary:     0xcbf29ce484222325,
		StageBasic:       0xcbf29ce484222325,
		StageDegree:      0xa36597015bee13d6,
		StageEigen:       0xca98366b31baba5f,
		StageReciprocity: 0xcbf29ce484222325,
		StageDistances:   0xfe5add3257f79d5e,
		StageBios:        0x52141c8e431cb04e,
		StageHistograms:  0xcbf29ce484222325,
		StageCentrality:  0x8ee25f1051c4125f,
		StageCategories:  0xcbf29ce484222325,
		StageMutualCore:  0xcbf29ce484222325,
		StageActivity:    0xcbf29ce484222325,
	},
	shard: 0x7a2a8f7a75286778,
}

func TestIdentityGolden(t *testing.T) {
	for name, o := range map[string]Options{"zero": {}, "serve": {Seed: 42}} {
		if got, want := ResultDigest(o), identityGolden.result[name]; got != want {
			t.Errorf("ResultDigest(%s) = %#016x, pinned %#016x", name, got, want)
		}
	}
	o := Options{}.withDefaults()
	for _, name := range cachedStageNames {
		if got, want := o.stageDigest(name), identityGolden.stage[name]; got != want {
			t.Errorf("stageDigest(%s) = %#016x, pinned %#016x", name, got, want)
		}
	}
	if got, want := FeatureStore(nil, 1, Options{}).Options, identityGolden.shard; got != want {
		t.Errorf("feature shard key = %#016x, pinned %#016x", got, want)
	}
}

// TestStageCacheKeysCoverOptions, TestHydratedStageCacheKeysCoverOptions
// and TestFeatureStageCacheKeyCoversOptions run the optionFlips table over
// the 14 cached stages, split three ways, each from a baseline that runs
// its stages.

// TestResultDigestCoversOptions runs the optionFlips table over
// ResultDigest from the defaults spelled out, where every stage but the
// opt-in features runs: each result-shaping flip moves the digest and each
// no-effect field leaves it. The zero Options share the defaults' digest,
// so -seed 1 and the default seed key one body, and the feature shard keys
// apply the same defaults.
func TestResultDigestCoversOptions(t *testing.T) {
	base := Options{}.withDefaults()
	want := ResultDigest(base)
	if got := ResultDigest(Options{}); got != want {
		t.Fatalf("ResultDigest(Options{}) = %x, defaults spelled out give %x", got, want)
	}
	if ResultDigest(Options{Seed: 1}) != want {
		t.Fatal("Seed 1 and the default seed have different digests")
	}
	flips := optionFlips(t)
	for name, f := range flips {
		o := base
		f.flip(&o)
		moved := ResultDigest(o) != want
		if shapes := !contains(noEffectFields, name); moved != shapes {
			t.Errorf("%s: ResultDigest moved=%v, want %v", name, moved, shapes)
		}
	}

	shardKey := func(o Options) uint64 { return FeatureStore(nil, 1, o).Options }
	if shardKey(Options{}) != shardKey(base) {
		t.Fatal("feature shard keys: the zero Options and the defaults differ")
	}
	if shardKey(Options{Seed: 2}) == shardKey(Options{}) ||
		shardKey(Options{BetweennessSources: 64}) == shardKey(Options{}) {
		t.Fatal("feature shard keys ignore Seed or BetweennessSources")
	}
	if shardKey(Options{Parallelism: 8}) != shardKey(Options{}) {
		t.Fatal("Parallelism entered the feature shard keys")
	}
}

func TestStageCacheKeysCoverOptions(t *testing.T) {
	// The baseline runs every default stage at Parallelism 4, so stages
	// sharing features.Shared overlap.
	checkStageKeysCoverOptions(t, func(o *Options) { o.Parallelism = 4 }, graphStageNames)
}

func TestHydratedStageCacheKeysCoverOptions(t *testing.T) {
	checkStageKeysCoverOptions(t, func(o *Options) {
		o.SkipEigen = true
		o.Stages = hydratedStageNames
	}, hydratedStageNames)
}

func TestFeatureStageCacheKeyCoversOptions(t *testing.T) {
	// The features stage reads vectors it shares with other stages: the
	// baseline keeps betweenness and categories running beside it, so
	// SkipBetweenness, Stages or Parallelism leaking into the matrix fails.
	checkStageKeysCoverOptions(t, func(o *Options) {
		o.SkipEigen = true
		o.Parallelism = 4
		o.Features = true
	}, []string{StageFeatures})
}

// checkStageKeysCoverOptions primes a cache with the baseline options
// (bootstraps skipped, then edited by setup), then flips each core.Options
// field in turn. Of the checked stages, one the flip claims to move must
// miss; every other one that runs must hit, and the flipped options, run
// without a cache, must compute the primed output bit for bit. A flip that
// moves a stage key must move ResultDigest too, and a no-effect field must
// leave it. An option that shapes a stage but is left out of its digest
// fails here, and so does a new option or cached stage until optionFlips
// classifies it.
func checkStageKeysCoverOptions(t *testing.T, setup func(*Options), checked []string) {
	t.Helper()
	// A platform smaller than testPlatform's: each flip runs two batteries.
	p, err := twitter.NewPlatform(twitter.DefaultPlatformConfig(800))
	if err != nil {
		t.Fatal(err)
	}
	ds, err := twitter.DatasetFromPlatform(p)
	if err != nil {
		t.Fatal(err)
	}
	activity := p.ActivitySeries(p.EnglishNodes())
	dir := t.TempDir()
	// SkipBootstrap's flip turns the bootstraps on.
	base := cacheOptions(dir)
	base.SkipBootstrap = true
	setup(&base)
	primed, err := NewCharacterizer(base).Run(ds, activity)
	if err != nil {
		t.Fatal(err)
	}
	if len(primed.Cache.Hits) != 0 {
		t.Fatalf("priming run hit %v", primed.Cache.Hits)
	}
	for _, st := range checked {
		if !contains(primed.Cache.Misses, st) {
			t.Fatalf("priming run did not compute %s: misses=%v", st, primed.Cache.Misses)
		}
	}
	for _, st := range cachedStageNames {
		if stagePayloads[st] == nil {
			t.Fatalf("stage %s has no payload in stagePayloads", st)
		}
	}

	flips := optionFlips(t)
	rt := reflect.TypeOf(Options{})
	if len(flips) != rt.NumField() {
		t.Fatalf("optionFlips has %d entries for %d Options fields", len(flips), rt.NumField())
	}
	for i := 0; i < rt.NumField(); i++ {
		name := rt.Field(i).Name
		f, ok := flips[name]
		if !ok {
			t.Fatalf("Options.%s is not classified: add it to optionFlips", name)
		}
		o := base
		f.flip(&o)
		rep, err := NewCharacterizer(o).Run(ds, activity)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		digestMoved := ResultDigest(o) != ResultDigest(base)
		if digestMoved && contains(noEffectFields, name) {
			t.Errorf("%s is declared to have no effect but moves ResultDigest", name)
		}
		if rep.Cache != nil && rep.Cache.Dir == dir {
			for _, st := range checked {
				hit, miss := contains(rep.Cache.Hits, st), contains(rep.Cache.Misses, st)
				if !hit && !miss {
					continue // the flip deselected the stage
				}
				if want := contains(f.moves, st); miss != want {
					t.Errorf("%s: %s missed=%v, want %v", name, st, miss, want)
				}
				if miss && !digestMoved {
					t.Errorf("%s moves the %s key but not ResultDigest", name, st)
				}
			}
		}
		// Without the cache, every checked stage the flip does not move
		// must compute the primed output.
		o.CacheDir = ""
		o.Timings = true
		fresh, err := NewCharacterizer(o).Run(ds, activity)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, tm := range fresh.Timings {
			if !contains(checked, tm.Name) || contains(f.moves, tm.Name) {
				continue
			}
			if tm.Name == StageFeatures {
				matricesBitIdentical(t, primed.Features, fresh.Features, "flipped "+name)
				continue
			}
			if !bytes.Equal(stagePayload(fresh, tm.Name), stagePayload(primed, tm.Name)) {
				t.Errorf("%s: %s key held but the fresh output differs", name, tm.Name)
			}
		}
	}
}

// TestUndecodableEntriesRecomputeSilently stores well-framed entries whose
// payloads the stage decoders reject (truncated, one trailing byte, an
// impossible length) for every cached default stage. Each must read as a
// miss and a silent recompute to the cold bytes, and the recomputed entry
// must serve the next run. One trailing byte is what a forgotten codec
// version bump looks like: the payload decodes in full and only the final
// length check rejects it, so a decoder that stored its value before that
// check would leave it in the report for the recompute to add to.
func TestUndecodableEntriesRecomputeSilently(t *testing.T) {
	p, ds := testPlatform(t)
	activity := p.ActivitySeries(p.EnglishNodes())
	dir := t.TempDir()
	opts := cacheOptions(dir)
	cold, err := NewCharacterizer(opts).Run(ds, activity)
	if err != nil {
		t.Fatal(err)
	}
	cc, err := cache.New(dir)
	if err != nil {
		t.Fatal(err)
	}
	mangles := map[string]func([]byte) []byte{
		"truncated": func(b []byte) []byte { return b[:len(b)/2] },
		"trailing":  func(b []byte) []byte { return append(append([]byte{}, b...), 0) },
		// A present flag, then 2^62 as the first length or float bits:
		// no decoder can satisfy it from the bytes that follow.
		"huge length": func([]byte) []byte { return []byte{1, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x40} },
	}
	for how, mangle := range mangles {
		t.Run(how, func(t *testing.T) {
			for _, st := range cachedStageNames {
				paths, err := filepath.Glob(filepath.Join(dir, st+"-*.bin"))
				if err != nil || len(paths) != 1 {
					t.Fatalf("%s entries = %v (err %v)", st, paths, err)
				}
				key := strings.TrimSuffix(filepath.Base(paths[0]), ".bin")
				good, ok := cc.Get(key)
				if !ok {
					t.Fatalf("%s entry unreadable", st)
				}
				cc.Put(key, mangle(append([]byte{}, good...)))
			}
			rep, err := NewCharacterizer(opts).Run(ds, activity)
			if err != nil {
				t.Fatalf("undecodable entries must recompute, not error: %v", err)
			}
			if len(rep.Cache.Hits) != 0 || !reflect.DeepEqual(rep.Cache.Misses, cachedStageNames) {
				t.Fatalf("traffic over undecodable entries: %+v", rep.Cache)
			}
			if renderString(t, rep) != renderString(t, cold) {
				t.Fatal("recomputed report diverges from the cold run")
			}
			rep, err = NewCharacterizer(opts).Run(ds, activity)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(rep.Cache.Hits, cachedStageNames) {
				t.Fatalf("repaired entries did not serve: %+v", rep.Cache)
			}
		})
	}
}
