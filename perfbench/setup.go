package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"elites/internal/cache"
	"elites/internal/core"
	"elites/internal/features"
	"elites/internal/store"
	"elites/internal/timeseries"
	"elites/internal/twitter"
)

// setup.go prepares one run: the canonical dataset, the
// reference bodies every response is checked against, and the
// provenance header.

// datasetID is the id the dataset is registered under on every worker.
const datasetID = "bench"

// setupReps is how many times set-up is repeated to report its median.
const setupReps = 3

// bench is one prepared run.
type bench struct {
	cfg      config
	dir      string // per-run scratch directory
	errOut   io.Writer
	ds       *twitter.Dataset
	activity *timeseries.DailySeries
	digest   uint64
	byRank   []int32 // node ids by out-degree rank (rank 1 first)

	setupS []float64 // wall clock of each set-up repetition
	refDir string    // cache dir the reference run primed
	refS   float64   // wall clock of the reference run
	ref    *oracle
}

// serverOptions are the battery options every worker and the reference
// run use: bench_test.go's serving options plus the feature stage.
func serverOptions(seed uint64, dir string) core.Options {
	return core.Options{
		BootstrapReps: 25, EigenK: 100, BetweennessSources: 128,
		DistanceSources: 150, Seed: seed, CacheDir: dir, Features: true,
	}
}

// generate builds the canonical synthetic platform for n users. Its
// generation seed is fixed (DefaultPlatformConfig's 42, as in
// bench_test.go) rather than taken from the workload seed: the uncached
// categories stage costs 0.4 s on one generated dataset and 1.9 s on
// another, which would drown every other difference between runs.
func generate(n int) (*twitter.Dataset, *timeseries.DailySeries, error) {
	p, err := twitter.NewPlatform(twitter.DefaultPlatformConfig(n))
	if err != nil {
		return nil, nil, err
	}
	ds, err := twitter.DatasetFromPlatform(p)
	if err != nil {
		return nil, nil, err
	}
	return ds, p.ActivitySeries(p.EnglishNodes()), nil
}

// newBench runs set-up: dataset generation plus a fleet build over it,
// repeated setupReps times (once for a traced run, which does not report
// set-up time), then the reference run that primes the shared cache dir.
func newBench(cfg config, dir string, errOut io.Writer) (*bench, error) {
	b := &bench{cfg: cfg, dir: dir, errOut: errOut}
	reps := setupReps
	if cfg.trace {
		reps = 1
	}
	for i := 0; i < reps; i++ {
		start := time.Now()
		ds, activity, err := generate(cfg.users)
		if err != nil {
			return nil, err
		}
		b.ds, b.activity = ds, activity
		fdir := filepath.Join(dir, "setup")
		f, err := b.newFleet(fdir, nil)
		if err != nil {
			return nil, err
		}
		f.close()
		b.setupS = append(b.setupS, time.Since(start).Seconds())
		cache.Release(fdir)
		os.RemoveAll(fdir)
	}
	b.digest = store.DatasetDigest(b.ds, b.activity)
	b.byRank = features.RankByOutDegree(b.ds.Graph)

	b.refDir = filepath.Join(dir, "ref")
	start := time.Now()
	ref, err := newOracle(b)
	if err != nil {
		return nil, fmt.Errorf("reference run: %w", err)
	}
	b.ref = ref
	b.refS = time.Since(start).Seconds()
	return b, nil
}

// --- reference bodies ---------------------------------------------------------

// oracle computes the body every request identity must return, from a
// direct core.Characterizer run encoded exactly as the serving layer
// encodes it, and memoizes its sha256.
type oracle struct {
	b    *bench
	full *core.Report

	mu   sync.Mutex
	want map[string][32]byte
}

func newOracle(b *bench) (*oracle, error) {
	o := &oracle{b: b, want: map[string][32]byte{}}
	rep, err := o.characterize(nil)
	if err != nil {
		return nil, err
	}
	o.full = rep
	return o, nil
}

// characterize runs the battery (restricted to stages when non-nil) with
// the workers' options over the reference cache dir. Timings are on, as
// the serving layer always runs timed: the JSON view depends on them.
func (o *oracle) characterize(stages []string) (*core.Report, error) {
	opts := serverOptions(o.b.cfg.seed, o.b.refDir)
	opts.Stages = stages
	opts.Timings = true
	return core.NewCharacterizer(opts).Run(o.b.ds, o.b.activity)
}

// expect returns the sha256 of the body op must return.
func (o *oracle) expect(op op) ([32]byte, error) {
	key := op.key()
	o.mu.Lock()
	sum, ok := o.want[key]
	o.mu.Unlock()
	if ok {
		return sum, nil
	}
	body, err := o.body(op)
	if err != nil {
		return [32]byte{}, err
	}
	sum = sha256.Sum256(body)
	o.mu.Lock()
	o.want[key] = sum
	o.mu.Unlock()
	return sum, nil
}

// body encodes the reference body for op.
func (o *oracle) body(op op) ([]byte, error) {
	u, err := url.Parse(op.target)
	if err != nil {
		return nil, err
	}
	parts := strings.Split(strings.TrimPrefix(u.Path, "/v1/datasets/"+datasetID+"/"), "/")
	switch {
	case parts[0] == "report":
		rep := o.full
		if sel := u.Query().Get("stages"); sel != "" {
			if rep, err = o.characterize(canonicalStages(sel)); err != nil {
				return nil, err
			}
		}
		if u.Query().Get("format") == "text" {
			var buf bytes.Buffer
			rep.Render(&buf)
			return buf.Bytes(), nil
		}
		return indentJSON(core.NewReportView(rep))
	case parts[0] == "stages" && len(parts) == 2:
		frag, err := core.StageView(o.full, parts[1])
		if err != nil {
			return nil, err
		}
		return indentJSON(map[string]any{"dataset": datasetID, "stage": parts[1], "result": frag})
	case parts[0] == "users" && len(parts) == 3 && parts[2] == "features":
		rank, err := strconv.Atoi(parts[1])
		if err != nil {
			return nil, err
		}
		return indentJSON(o.userView(rank))
	case parts[0] == "users:batch":
		var req struct {
			Ranks []int `json:"ranks"`
		}
		if err := json.Unmarshal(op.body, &req); err != nil {
			return nil, err
		}
		var v core.UsersBatchView
		for _, r := range req.Ranks {
			v.Users = append(v.Users, o.userView(r))
		}
		return indentJSON(v)
	}
	return nil, fmt.Errorf("no reference for %s", op.key())
}

func (o *oracle) userView(rank int) core.UserFeaturesView {
	node := int(o.b.byRank[rank-1])
	m := o.full.Features
	return core.NewUserFeaturesView(rank, node, m.Row(node), m.ProbsRow(node), m.ClassOf(node))
}

// indentJSON encodes v the way the serving layer encodes every JSON body.
func indentJSON(v any) ([]byte, error) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// canonicalStages orders a ?stages= selection canonically, as the
// serving layer does before running it.
func canonicalStages(sel string) []string {
	want := map[string]bool{}
	for _, s := range strings.Split(sel, ",") {
		want[strings.TrimSpace(s)] = true
	}
	var out []string
	for _, name := range core.StageNames() {
		if want[name] {
			out = append(out, name)
		}
	}
	return out
}

// --- provenance ---------------------------------------------------------------

func printProvenance(w io.Writer, b *bench) {
	fmt.Fprintf(w, "# provenance nproc=%d gomaxprocs=%d cpu=%q go=%s commit=%s cache_fs=%s seed=%d dataset_digest=%016x users=%d edges=%d\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), cpuModel(), runtime.Version(), commit(),
		fsType(b.dir), b.cfg.seed, b.digest, b.ds.Graph.NumNodes(), b.ds.Graph.NumEdges())
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the VCS revision the binary was built from, when the build
// could stamp one (a source tree outside git has none).
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

// fsType names the filesystem holding dir, from its statfs magic.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xef53: "ext4", 0x01021994: "tmpfs", 0x794c7630: "overlayfs", 0x58465342: "xfs",
		0x9123683e: "btrfs", 0x6969: "nfs", 0x65735546: "fuse", 0x2fc12fc1: "zfs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}
