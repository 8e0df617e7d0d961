// Command eliteanalyze runs the paper's full characterization battery over a
// dataset and prints every table and figure in the paper's order: the §III
// dataset summary, §IV-A basic analysis, Figure 1 metric distributions,
// Figure 2 / §IV-B power-law inference with Vuong tests, §IV-C reciprocity,
// Figure 3 degrees of separation, Tables I–II and the Figure 4 word cloud,
// Figure 5 centrality correlations with GAM splines, and the §V activity
// analysis with the Figure 6 calendar heatmap.
//
// The analyses execute as a concurrent stage graph; -parallel bounds the
// stage pool (single stages may still shard internally across cores),
// -stages runs a named subset (plus dependencies), and -timings appends a
// per-stage wall-clock table after the report. Reports are bit-identical at
// any -parallel value for a given seed.
//
// -cache enables the content-addressed per-stage result cache rooted at the
// given directory: re-runs over an unchanged dataset and options hydrate
// the expensive stages (betweenness, bootstraps, distance sweeps) from disk
// instead of recomputing them, printing the same report byte for byte. A
// one-line hit/miss summary goes to stderr (stdout carries only the
// report); -no-cache bypasses a configured cache.
//
// -cpuprofile and -memprofile write pprof profiles of the run (CPU over the
// whole analysis, heap at exit after a final GC), so performance work can
// attach evidence instead of guessing:
//
//	eliteanalyze -n 20000 -cpuprofile cpu.pb.gz
//	go tool pprof cpu.pb.gz
//
// -features runs only the per-user feature-matrix stage and prints the
// feature rows + scorer verdicts for the given comma-separated out-degree
// ranks as JSON (the same body eliteserve's users:batch endpoint returns,
// byte for byte, for the same dataset and seed) instead of the report.
//
// -trace-out appends the run's span tree — a root "analyze" span with one
// child per pipeline stage, carrying cache-hit and retry attributes — as
// JSON lines to the given file (cmd/traceview pretty-prints it),
// and -timings then includes the trace id so CLI runs can be correlated
// with served traces. -log-format selects text or json structured logs.
// Without -trace-out no tracer exists and the report, stderr and timings
// output are byte-identical to previous releases.
//
// Usage:
//
//	eliteanalyze -data ./dataset          # analyze a saved dataset
//	eliteanalyze -n 10000 -seed 42       # generate in memory and analyze
//	eliteanalyze -n 10000 -fast          # skip the slow analyses
//	eliteanalyze -parallel 1 -timings    # one stage at a time, with clocks
//	eliteanalyze -stages summary,degree  # just those stages (and deps)
//	eliteanalyze -cache ~/.elites-cache  # warm re-runs skip heavy stages
//	eliteanalyze -features 1,2,3         # per-user feature rows as JSON
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"elites/internal/centrality"
	"elites/internal/core"
	"elites/internal/features"
	"elites/internal/obs"
	"elites/internal/plot"
	"elites/internal/store"
	"elites/internal/timeseries"
	"elites/internal/twitter"
)

func main() {
	var (
		data       = flag.String("data", "", "dataset directory (from elitegen/elitecrawl)")
		n          = flag.Int("n", 10000, "users to generate when -data is not given")
		seed       = flag.Uint64("seed", 42, "seed for in-memory generation")
		fast       = flag.Bool("fast", false, "skip eigenvalues, betweenness and bootstraps")
		figdir     = flag.String("figdir", "", "directory to write the paper's figures as SVG")
		parallel   = flag.Int("parallel", 0, "max concurrent analysis stages (0 = all cores, 1 = one stage at a time)")
		stagesF    = flag.String("stages", "", "comma-separated stage subset, e.g. summary,degree (available: "+strings.Join(core.StageNames(), ",")+")")
		timings    = flag.Bool("timings", false, "print a per-stage wall-clock table after the report")
		cacheDir   = flag.String("cache", "", "directory for the per-stage result cache (warm re-runs skip the heavy stages)")
		noCache    = flag.Bool("no-cache", false, "bypass the result cache even when -cache is set")
		cacheMem   = flag.Int64("cache-mem", 0, "in-memory cache tier cap in bytes (0 = default 256 MiB); evictions show in the stderr cache summary")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
		memProfile = flag.String("memprofile", "", "write an allocation profile at exit to this file (go tool pprof)")
		featuresF  = flag.String("features", "", "comma-separated out-degree ranks, e.g. 1,2,3: run only the feature-matrix stage and print those users' feature rows as JSON instead of the report")
		logFormat  = flag.String("log-format", "text", "structured log format: text or json")
		traceOut   = flag.String("trace-out", "", "append the run's spans as JSON lines to this file (enables tracing)")
	)
	flag.Parse()
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "eliteanalyze:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "eliteanalyze:", err)
			os.Exit(1)
		}
	}
	if *noCache {
		*cacheDir = ""
	}
	err := run(*data, *n, *seed, *fast, *figdir, *parallel, *stagesF, *timings, *cacheDir, *cacheMem, *featuresF, *logFormat, *traceOut)
	if *cpuProfile != "" {
		pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		f, merr := os.Create(*memProfile)
		if merr == nil {
			runtime.GC() // settle live objects so the heap profile is current
			merr = pprof.WriteHeapProfile(f)
			if cerr := f.Close(); merr == nil {
				merr = cerr
			}
		}
		if merr != nil {
			fmt.Fprintln(os.Stderr, "eliteanalyze: memprofile:", merr)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "eliteanalyze:", err)
		os.Exit(1)
	}
}

func run(data string, n int, seed uint64, fast bool, figdir string, parallel int, stagesF string, timings bool, cacheDir string, cacheMem int64, featuresF, logFormat, traceOut string) error {
	logger, err := obs.NewLogger(logFormat, os.Stderr)
	if err != nil {
		return fmt.Errorf("-log-format: %w", err)
	}
	// Tracing is opt-in for the CLI: without -trace-out there is no tracer,
	// no span ids are drawn from the RNG, and all output stays byte-stable.
	sink, closeSink, err := obs.OpenTraceOut(traceOut)
	if err != nil {
		return err
	}
	defer closeSink()
	var tracer *obs.Tracer
	if sink != nil {
		tracer = obs.NewTracer(obs.TracerConfig{Name: "eliteanalyze", Seed: seed, Sink: sink})
	}
	var (
		ds       *twitter.Dataset
		activity *timeseries.DailySeries
	)
	if data != "" {
		var err error
		ds, activity, _, err = store.LoadDataset(data)
		if err != nil {
			return err
		}
	} else {
		cfg := twitter.DefaultPlatformConfig(n)
		cfg.Seed = seed
		p, err := twitter.NewPlatform(cfg)
		if err != nil {
			return err
		}
		ds, err = twitter.DatasetFromPlatform(p)
		if err != nil {
			return err
		}
		activity = p.ActivitySeries(p.EnglishNodes())
	}
	opts := core.Options{
		Seed: seed, Parallelism: parallel, Timings: timings,
		CacheDir: cacheDir, CacheMemBytes: cacheMem,
	}
	if fast {
		opts.SkipEigen = true
		opts.SkipBetweenness = true
		opts.SkipBootstrap = true
		opts.DistanceSources = 100
	}
	if stagesF != "" {
		for _, s := range strings.Split(stagesF, ",") {
			if s = strings.TrimSpace(s); s != "" {
				opts.Stages = append(opts.Stages, s)
			}
		}
	}
	ctx := context.Background()
	var root *obs.Span
	traceID := ""
	if tracer != nil {
		root = tracer.Root("analyze")
		ctx = obs.ContextWithSpan(ctx, root)
		traceID = root.TraceID().String()
	}
	if featuresF != "" {
		err := runFeatures(ctx, ds, activity, opts, featuresF)
		root.End()
		return err
	}
	rep, err := core.NewCharacterizer(opts).RunContext(ctx, ds, activity)
	root.End()
	if err != nil {
		return err
	}
	if tracer != nil {
		logger.Info("analysis complete", "trace", traceID, "stages", len(rep.Timings))
	}
	rep.Render(os.Stdout)
	reportCache(rep.Cache)
	if timings {
		renderTimings(os.Stdout, rep.Timings, traceID)
	}
	if figdir != "" {
		if err := writeFigures(figdir, ds, rep, activity); err != nil {
			return err
		}
		fmt.Printf("\nfigures written to %s\n", figdir)
	}
	return nil
}

// runFeatures is the -features path: run only the feature-matrix stage and
// print the requested ranks' rows as a users:batch-shaped JSON body. The
// output is byte-identical to eliteserve's users:batch response for the
// same dataset, seed and ranks — the CI serve smoke cmp's the two.
func runFeatures(ctx context.Context, ds *twitter.Dataset, activity *timeseries.DailySeries, opts core.Options, ranksF string) error {
	var ranks []int
	for _, s := range strings.Split(ranksF, ",") {
		if s = strings.TrimSpace(s); s == "" {
			continue
		}
		r, err := strconv.Atoi(s)
		if err != nil || r < 1 {
			return fmt.Errorf("-features: ranks must be positive integers, got %q", s)
		}
		ranks = append(ranks, r)
	}
	if len(ranks) == 0 {
		return fmt.Errorf("-features: no ranks given")
	}
	byRank := features.RankByOutDegree(ds.Graph)
	for _, r := range ranks {
		if r > len(byRank) {
			return fmt.Errorf("-features: rank %d out of range (dataset has %d users)", r, len(byRank))
		}
	}
	opts.Stages = []string{core.StageFeatures}
	rep, err := core.NewCharacterizer(opts).RunContext(ctx, ds, activity)
	if err != nil {
		return err
	}
	m := rep.Features
	view := core.UsersBatchView{Users: make([]core.UserFeaturesView, len(ranks))}
	for i, r := range ranks {
		node := int(byRank[r-1])
		view.Users[i] = core.NewUserFeaturesView(r, node, m.Row(node), m.ProbsRow(node), m.ClassOf(node))
	}
	b, err := json.MarshalIndent(view, "", "  ")
	if err != nil {
		return err
	}
	os.Stdout.Write(append(b, '\n'))
	reportCache(rep.Cache)
	return nil
}

// reportCache prints the run's cache hit/miss summary, if the cache was on.
// It goes to stderr, so stdout stays byte-comparable between cold and warm
// runs (the CI smoke test relies on this).
func reportCache(c *core.CacheReport) {
	if c == nil {
		return
	}
	fmt.Fprintf(os.Stderr, "eliteanalyze: cache %s: hits=%d %v misses=%d %v evictions=%d\n",
		c.Dir, len(c.Hits), c.Hits, len(c.Misses), c.Misses, c.Evictions)
}

// renderTimings prints the per-stage wall-clock table. Stages are listed in
// execution-graph order; the total is the sum of stage clocks — the run's
// wall clock is lower whenever stages overlapped, and CPU time is higher
// whenever a stage sharded its inner loop across workers. When tracing is
// active (-trace-out) the table ends with the run's trace id, so the table
// can be correlated with the span tree in the JSONL sink.
func renderTimings(w io.Writer, timings []core.StageTiming, traceID string) {
	if len(timings) == 0 {
		return
	}
	fmt.Fprintf(w, "\nPipeline stage timings\n======================\n")
	var total float64
	for _, tm := range timings {
		ms := float64(tm.Duration.Microseconds()) / 1000
		marker := ""
		if tm.CacheHit {
			marker = "  (cached)"
		}
		fmt.Fprintf(w, "%-14s %12.3fms%s\n", tm.Name, ms, marker)
		total += ms
	}
	fmt.Fprintf(w, "%-14s %12.3fms\n", "stage-wall sum", total)
	if traceID != "" {
		fmt.Fprintf(w, "trace %s\n", traceID)
	}
}

// writeFigures renders every paper figure as an SVG file.
func writeFigures(dir string, ds *twitter.Dataset, rep *core.Report, activity *timeseries.DailySeries) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	save := func(name string, fn func(f *os.File) error) error {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		if err := fn(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	// Figure 1 panels.
	for i, m := range []twitter.Metric{
		twitter.MetricFriends, twitter.MetricFollowers,
		twitter.MetricListed, twitter.MetricStatuses,
	} {
		h := rep.MetricHists[m.String()]
		if h == nil {
			continue
		}
		name := fmt.Sprintf("figure1%c.svg", 'a'+i)
		title := fmt.Sprintf("Figure 1(%c): users vs %s", 'a'+i, m)
		if err := save(name, func(f *os.File) error {
			return plot.LogHistogram(f, h, title, m.String())
		}); err != nil {
			return err
		}
	}
	// Figure 2.
	if rep.Degree != nil && rep.Degree.Fit != nil {
		fit := rep.Degree.Fit
		if err := save("figure2.svg", func(f *os.File) error {
			return plot.FrequencySeries(f, rep.DegreeSeries, fit.Alpha, fit.Xmin,
				"Figure 2: proportion of users vs out-degree")
		}); err != nil {
			return err
		}
	}
	// Figure 3.
	if rep.Distances != nil {
		if err := save("figure3.svg", func(f *os.File) error {
			return plot.DistanceHistogram(f, rep.Distances.Counts,
				"Figure 3: node pairs vs degrees of separation")
		}); err != nil {
			return err
		}
	}
	// Figure 5: the PageRank panels (x data recomputed here; betweenness
	// panels would need the sampled scores, which the report does not
	// retain).
	followers := ds.MetricValues(twitter.MetricFollowers)
	listed := ds.MetricValues(twitter.MetricListed)
	pr := centrality.PageRank(ds.Graph)
	for _, p := range rep.Centrality {
		if p.Label == "follower count vs pagerank" {
			if err := save("figure5d.svg", func(f *os.File) error {
				return plot.ScatterSpline(f, pr, followers, p.Curve,
					"Figure 5(d): follower count vs PageRank", "pagerank", "followers")
			}); err != nil {
				return err
			}
		}
		if p.Label == "list memberships vs pagerank" {
			if err := save("figure5c.svg", func(f *os.File) error {
				return plot.ScatterSpline(f, pr, listed, p.Curve,
					"Figure 5(c): list memberships vs PageRank", "pagerank", "list memberships")
			}); err != nil {
				return err
			}
		}
	}
	// Figure 6.
	if activity != nil {
		if err := save("figure6.svg", func(f *os.File) error {
			return plot.Calendar(f, activity, "Figure 6: verified user tweet activity")
		}); err != nil {
			return err
		}
	}
	return nil
}
