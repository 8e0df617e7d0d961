// The root benchmarks vary what perfbench holds fixed: the stage-graph
// scheduler, the sharded kernels and the feature pass across worker
// budgets, and ablations of sampling sizes and algorithm choices. They
// run on the canonical synthetic instance (20,000 verified users, seed
// 42). The paper's numbers are checked, not printed here: TestPaperClaims
// (claims_test.go) asserts each finding against the report of the same
// instance. End-to-end and per-stage latency are measured by perfbench
// (see README, "Performance").
//
// Run everything:
//
//	go test -run '^$' -bench=. -benchmem .
package elites

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"

	"elites/internal/centrality"
	"elites/internal/core"
	"elites/internal/features"
	"elites/internal/gen"
	"elites/internal/graph"
	"elites/internal/mathx"
	"elites/internal/powerlaw"
	"elites/internal/spectral"
	"elites/internal/stats"
	"elites/internal/timeseries"
	"elites/internal/twitter"
)

// benchN is the canonical instance size.
const benchN = 20000

var (
	fixOnce     sync.Once
	fixDataset  *twitter.Dataset
	fixActivity *timeseries.DailySeries
)

// fixtures builds the canonical instance once per test binary.
func fixtures(tb testing.TB) (*twitter.Dataset, *timeseries.DailySeries) {
	tb.Helper()
	fixOnce.Do(func() {
		p, err := twitter.NewPlatform(twitter.DefaultPlatformConfig(benchN))
		if err != nil {
			panic(err)
		}
		ds, err := twitter.DatasetFromPlatform(p)
		if err != nil {
			panic(err)
		}
		fixDataset = ds
		fixActivity = p.ActivitySeries(p.EnglishNodes())
	})
	return fixDataset, fixActivity
}

// --- Full pipeline ----------------------------------------------------------------------------------

// BenchmarkFullCharacterizationParallel contrasts the stage-graph scheduler
// across parallelism levels on the same workload: p=1 runs one stage at a
// time (stage-internal sharding still uses all cores), p=max bounds wall
// clock by the critical path. Reports are bit-identical at every level
// (per-stage derived RNG streams), so this measures pure scheduling gain.
func BenchmarkFullCharacterizationParallel(b *testing.B) {
	ds, activity := fixtures(b)
	levels := []struct {
		label string
		par   int
	}{{"p=1", 1}, {"p=2", 2}, {fmt.Sprintf("p=max%d", runtime.GOMAXPROCS(0)), 0}}
	for _, lv := range levels {
		b.Run(lv.label, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opts := core.Options{
					BootstrapReps: 25, EigenK: 100, BetweennessSources: 128,
					DistanceSources: 150, Seed: 23, Parallelism: lv.par,
				}
				if _, err := core.NewCharacterizer(opts).Run(ds, activity); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBetweennessParallel contrasts the sharded Brandes run across
// worker budgets on the same sampled source set. Scores are bit-identical at
// every budget (fixed-layout source chunks, partials reduced in chunk
// order), so this measures pure scheduling gain inside one stage.
func BenchmarkBetweennessParallel(b *testing.B) {
	ds, _ := fixtures(b)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			rng := mathx.NewRNG(31)
			for i := 0; i < b.N; i++ {
				centrality.ApproxBetweennessWorkers(ds.Graph, 256, rng, workers)
			}
		})
	}
}

// BenchmarkBootstrapParallel contrasts the CSN goodness-of-fit bootstrap
// across worker budgets on the canonical out-degree fit. The p-value is
// bit-identical at every budget (per-replicate derived RNG streams, integer
// exceedance counts), so this too measures pure scheduling gain.
func BenchmarkBootstrapParallel(b *testing.B) {
	ds, _ := fixtures(b)
	fit, err := powerlaw.FitDiscrete(ds.Graph.OutDegrees())
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			rng := mathx.NewRNG(43)
			for i := 0; i < b.N; i++ {
				fit.GoodnessOfFitWorkers(50, rng, workers)
			}
		})
	}
}

// --- Ablations ---------------------------------------------------------------------------------------

// BenchmarkAblationBetweennessSampling: how many Brandes sources until the
// Figure 5 betweenness ranking stabilizes.
func BenchmarkAblationBetweennessSampling(b *testing.B) {
	ds, _ := fixtures(b)
	refRng := mathx.NewRNG(31)
	ref := centrality.ApproxBetweennessWorkers(ds.Graph, 1024, refRng, 0)
	for _, k := range []int{32, 128, 512} {
		b.Run(fmt.Sprintf("sources=%d", k), func(b *testing.B) {
			rng := mathx.NewRNG(uint64(37 + k))
			var approx []float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				approx = centrality.ApproxBetweennessWorkers(ds.Graph, k, rng, 0)
			}
			b.StopTimer()
			rho, _ := stats.Spearman(approx, ref)
			b.ReportMetric(rho, "spearman-vs-1024")
		})
	}
}

// BenchmarkAblationEigensolvers: Lanczos vs power iteration with deflation
// for the §IV-B spectrum.
func BenchmarkAblationEigensolvers(b *testing.B) {
	ds, _ := fixtures(b)
	op := spectral.NewLaplacianOperator(ds.Graph)
	const k = 25
	b.Run("lanczos", func(b *testing.B) {
		rng := mathx.NewRNG(41)
		var evs []float64
		for i := 0; i < b.N; i++ {
			var err error
			evs, err = spectral.TopEigenvaluesLanczos(op, k, 3*k, rng)
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(evs[0], "lambda1")
	})
	b.Run("power-deflation", func(b *testing.B) {
		rng := mathx.NewRNG(43)
		var evs []float64
		for i := 0; i < b.N; i++ {
			var err error
			evs, err = spectral.TopEigenvaluesPower(op, k, 200, 1e-8, rng)
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(evs[0], "lambda1")
	})
}

// BenchmarkAblationChangepointAlgos: PELT vs binary segmentation.
func BenchmarkAblationChangepointAlgos(b *testing.B) {
	_, activity := fixtures(b)
	beta := timeseries.BICPenalty(activity.Len())
	b.Run("pelt", func(b *testing.B) {
		var cps []int
		for i := 0; i < b.N; i++ {
			cps = timeseries.PELT(activity.Values, beta, 7)
		}
		b.ReportMetric(float64(len(cps)), "changepoints")
	})
	b.Run("binseg", func(b *testing.B) {
		var cps []int
		for i := 0; i < b.N; i++ {
			cps = timeseries.BinarySegmentation(activity.Values, beta, 7)
		}
		b.ReportMetric(float64(len(cps)), "changepoints")
	})
}

// BenchmarkAblationReciprocityDial: the generator's mutual-fraction dial φ
// against the closed-form prediction r = 2φ/(1+φ).
func BenchmarkAblationReciprocityDial(b *testing.B) {
	for _, phi := range []float64{0.10, 0.182, 0.30} {
		b.Run(fmt.Sprintf("phi=%.3f", phi), func(b *testing.B) {
			var r float64
			for i := 0; i < b.N; i++ {
				cfg := gen.VerifiedDefaults(5000)
				cfg.MutualFraction = phi
				cfg.Seed = uint64(100 + i)
				res, err := gen.Generate(cfg)
				if err != nil {
					b.Fatal(err)
				}
				r = graph.Reciprocity(res.Graph)
			}
			b.StopTimer()
			pred := 2 * phi / (1 + phi)
			b.ReportMetric(r, "measured")
			b.ReportMetric(pred, "predicted")
			if math.Abs(r-pred) > 0.08 {
				b.Errorf("dial broken: measured %v vs predicted %v", r, pred)
			}
		})
	}
}

// --- feature matrix ----------------------------------------------------------

// BenchmarkFeatureMatrix times the bulk per-user feature pass (degrees,
// core membership, centrality percentiles, ego clustering, tail membership,
// scorer) on the canonical instance across worker budgets. The matrix is
// bit-identical at every budget (fixed ShardRows-wide chunks reduced in
// chunk order), so this measures pure sharding gain.
func BenchmarkFeatureMatrix(b *testing.B) {
	ds, _ := fixtures(b)
	features.DefaultScorer() // train once outside the timed region
	for _, workers := range []int{1, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				features.Compute(ds, nil, features.Options{
					BetweennessSources: 128, Seed: 23, Parallelism: workers,
				})
			}
		})
	}
}
