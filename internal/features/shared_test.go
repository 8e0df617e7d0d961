package features

import (
	"math"
	"sync"
	"testing"

	"elites/internal/centrality"
	"elites/internal/graph"
	"elites/internal/mathx"
	"elites/internal/powerlaw"
)

// TestSharedMemoisedAcrossGoroutines calls every accessor of one Shared
// from 8 goroutines at once: each must hand every caller the same backing
// array or pointer (computed once, then shared), and the memoised values
// must be the kernels' own. Run it under -race.
func TestSharedMemoisedAcrossGoroutines(t *testing.T) {
	ds := canonicalDataset(t)
	g := ds.Graph
	opts := Options{BetweennessSources: 32, Seed: 5, Parallelism: 2}
	sh := NewShared(g, opts)

	type got struct {
		pr    []float64
		cores *graph.KCoreResult
		bc    []float64
		fit   *powerlaw.Fit
		clus  []float64
	}
	const callers = 8
	res := make([]got, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r := &res[i]
			// Vary the call order so first calls race from every side.
			for k := 0; k < 5; k++ {
				switch (i + k) % 5 {
				case 0:
					r.pr = sh.PageRank()
				case 1:
					r.cores = sh.Cores()
				case 2:
					r.bc = sh.Betweenness()
				case 3:
					r.fit, _ = sh.DegreeFit()
				case 4:
					r.clus = sh.Clustering()
				}
			}
		}(i)
	}
	wg.Wait()

	first := res[0]
	if len(first.pr) != g.NumNodes() || len(first.bc) != g.NumNodes() || len(first.clus) != g.NumNodes() ||
		first.cores == nil || first.fit == nil {
		t.Fatalf("accessors returned empty values")
	}
	for i, r := range res[1:] {
		if &r.pr[0] != &first.pr[0] || &r.bc[0] != &first.bc[0] || &r.clus[0] != &first.clus[0] ||
			r.cores != first.cores || r.fit != first.fit {
			t.Fatalf("caller %d got a separately computed value", i+1)
		}
	}

	wantPR := centrality.PageRank(g)
	rng := mathx.NewRNG(opts.Seed).Derive("centrality")
	wantBC := centrality.ApproxBetweennessWorkers(g, opts.BetweennessSources, rng, 1)
	wantClus := graph.LocalClusteringAll(g, 1)
	for u := range wantPR {
		if wantPR[u] != first.pr[u] || wantBC[u] != first.bc[u] ||
			math.Float64bits(wantClus[u]) != math.Float64bits(first.clus[u]) {
			t.Fatalf("node %d: memoised value differs from the kernel's", u)
		}
	}
	if want := graph.KCores(g); want.MaxCore != first.cores.MaxCore {
		t.Fatalf("degeneracy %d, want %d", first.cores.MaxCore, want.MaxCore)
	}
	if want, _ := powerlaw.FitDiscrete(g.OutDegrees()); want.Xmin != first.fit.Xmin || want.Alpha != first.fit.Alpha {
		t.Fatalf("degree fit (%v, %v), want (%v, %v)", first.fit.Xmin, first.fit.Alpha, want.Xmin, want.Alpha)
	}
}

// TestSharedClusteringFeedsMatrix checks that Compute takes its clustering
// column from the Shared it is handed, the vector the basic stage averages,
// rather than running the triangle kernel a second time.
func TestSharedClusteringFeedsMatrix(t *testing.T) {
	ds := canonicalDataset(t)
	opts := Options{BetweennessSources: 32, Seed: 5}
	sh := NewShared(ds.Graph, opts)
	clus := sh.Clustering()
	calls := 0
	sh.Clustering = func() []float64 { calls++; return clus }
	m, err := Compute(ds, sh, opts)
	if err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("Compute read Shared.Clustering %d times, want 1", calls)
	}
	for u, c := range clus {
		if got := m.Row(u)[FeatClustering]; math.Float64bits(got) != math.Float64bits(c) {
			t.Fatalf("node %d: clustering column %v, shared vector %v", u, got, c)
		}
	}
}
