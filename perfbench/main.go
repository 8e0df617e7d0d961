// Command perfbench is the repository benchmark. It runs one named
// workload against the serving stack as deployed — two serve.Server
// workers on httptest listeners behind a fleet.Router, sharing one
// result-cache directory — over the canonical 20,000-user synthetic
// instance. The workload seed drives the analysis seed and the traffic.
// Every response body is checked against a reference computed straight
// from core.Characterizer.
//
// With -trace 0 it reports the end-to-end metrics, measured with tracing
// off. With -trace 1 it adds a traced run whose spans give the per-layer
// breakdown, and reports the per-layer metrics instead. Human-readable
// lines come first; the last line of stdout is one JSON object with the
// keys correct, attempted, failed and metrics.
//
// Run it from the repository root through the build wrapper:
//
//	bash perfbench/run.sh --workload cold-battery --seed 1 --seconds 20 --trace 0
//
// README.md describes the workloads, the metric-to-layer map and how to
// read the span table.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// canonicalUsers is the size of the canonical instance (bench_test.go's
// benchN).
const canonicalUsers = 20000

type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	users    int
	workdir  string
}

// workload is one named traffic shape; run measures it on a prepared bench.
// README.md says what each one exercises.
type workload struct {
	name string
	run  func(b *bench) (*result, error)
}

var workloads = []workload{
	{"cold-battery", coldBattery},
	{"warm-mix", warmMix},
	{"rehydrate", rehydrate},
}

// metric is one named measurement.
type metric struct {
	name  string
	value float64
	unit  string
}

// result is what a workload measured. e2e holds the end-to-end metrics
// (reported with -trace 0), layer the per-layer ones (-trace 1), info
// further figures that are printed but not reported in the JSON line.
type result struct {
	attempted int
	failed    int
	wrong     int // failed ops whose body differed from the reference
	badExpo   int // /metrics scrapes that failed obs.ValidateExposition
	e2e       []metric
	layer     []metric
	info      []metric
	spans     []spanRow
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	var cfg config
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: "+strings.Join(names, ", "))
	fs.Uint64Var(&cfg.seed, "seed", 1, "workload seed: drives the analysis seed (Options.Seed), rank draws, mix order and arrival times")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "measurement budget in seconds")
	trace := fs.Int("trace", 0, "1 adds a traced run and reports the per-layer metrics")
	fs.IntVar(&cfg.users, "users", canonicalUsers, "verified users in the generated instance")
	fs.StringVar(&cfg.workdir, "workdir", ".bench_build/work", "scratch parent for cache directories (removed on exit)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = *trace != 0
	var wl *workload
	for i := range workloads {
		if workloads[i].name == cfg.workload {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n", cfg.workload, strings.Join(names, ", "))
		return 2
	}
	if cfg.seconds <= 0 || cfg.users < 100 {
		fmt.Fprintln(stderr, "perfbench: -seconds must be positive and -users at least 100")
		return 2
	}

	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	dir, err := os.MkdirTemp(cfg.workdir, "run-")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)

	fmt.Fprintf(stdout, "# perfbench workload=%s seed=%d seconds=%g trace=%d users=%d\n",
		cfg.workload, cfg.seed, cfg.seconds, *trace, cfg.users)
	b, err := newBench(cfg, dir, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: setup: %v\n", err)
		return 1
	}
	printProvenance(stdout, b)

	res, err := wl.run(b)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	return report(stdout, b, res)
}

// report prints every metric by name and unit, the span table of a
// traced run, and the closing JSON line; it returns the exit code.
func report(w io.Writer, b *bench, res *result) int {
	common := []metric{
		{"setup_s", median(b.setupS), "s"},
		{"peak_rss_mb", peakRSSMB(), "MB"},
	}
	res.e2e = append(common, res.e2e...)
	failedShare := float64(res.failed) / float64(max(res.attempted, 1))
	res.info = append(res.info,
		metric{"failed_share", failedShare, "ratio"},
		metric{"ref_s", b.refS, "s"},
	)
	for _, group := range []struct {
		title string
		ms    []metric
	}{{"end-to-end", res.e2e}, {"workload", res.info}, {"per-layer", res.layer}} {
		if len(group.ms) == 0 {
			continue
		}
		fmt.Fprintf(w, "# %s metrics\n", group.title)
		for _, m := range group.ms {
			fmt.Fprintf(w, "metric %-34s %14.6g %s\n", m.name, m.value, m.unit)
		}
	}
	if len(res.spans) > 0 {
		printSpanTable(w, res.spans)
	}

	correct := res.failed == 0 && res.badExpo == 0
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{correct, res.attempted, res.failed, map[string]jsonMetric{}}
	reported := res.e2e
	if b.cfg.trace {
		reported = res.layer
	}
	for _, m := range reported {
		v := m.value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out.Metrics[m.name] = jsonMetric{v, m.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(w, "# encoding result: %v\n", err)
		return 1
	}
	fmt.Fprintf(w, "%s\n", line)
	if !correct {
		return 1
	}
	return 0
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// percentile returns the p-quantile (0..1) of xs by linear interpolation
// between closest ranks; 0 for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
