package features

import (
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
			for k := 0; k < 4; k++ {
				switch (i + k) % 4 {
				case 0:
					r.pr, _ = sh.PageRank()
				case 1:
					r.cores = sh.Cores()
				case 2:
					r.bc = sh.Betweenness()
				case 3:
					r.fit, _ = sh.DegreeFit()
				}
			}
		}(i)
	}
	wg.Wait()

	first := res[0]
	if len(first.pr) != g.NumNodes() || len(first.bc) != g.NumNodes() || first.cores == nil || first.fit == nil {
		t.Fatalf("accessors returned empty values")
	}
	for i, r := range res[1:] {
		if &r.pr[0] != &first.pr[0] || &r.bc[0] != &first.bc[0] || r.cores != first.cores || r.fit != first.fit {
			t.Fatalf("caller %d got a separately computed value", i+1)
		}
	}

	wantPR, err := centrality.PageRank(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := mathx.NewRNG(opts.Seed).Derive("centrality")
	wantBC := centrality.ApproxBetweennessWorkers(g, opts.BetweennessSources, rng, 1)
	for u := range wantPR {
		if wantPR[u] != first.pr[u] || wantBC[u] != first.bc[u] {
			t.Fatalf("node %d: memoised value differs from the kernel's", u)
		}
	}
	if want := graph.KCores(g); want.MaxCore != first.cores.MaxCore {
		t.Fatalf("degeneracy %d, want %d", first.cores.MaxCore, want.MaxCore)
	}
	if want, _ := powerlaw.FitDiscrete(g.OutDegrees(), nil); want.Xmin != first.fit.Xmin || want.Alpha != first.fit.Alpha {
		t.Fatalf("degree fit (%v, %v), want (%v, %v)", first.fit.Xmin, first.fit.Alpha, want.Xmin, want.Alpha)
	}
}
