package graph

import (
	"math"
	"testing"

	"elites/internal/mathx"
)

func TestBFSPath(t *testing.T) {
	g := FromEdges(5, [][2]int{{0, 1}, {1, 2}, {2, 3}})
	dist := BFS(g, 0)
	want := []int32{0, 1, 2, 3, -1}
	for i, w := range want {
		if dist[i] != w {
			t.Fatalf("dist = %v", dist)
		}
	}
}

func TestBFSDirectionality(t *testing.T) {
	g := FromEdges(3, [][2]int{{0, 1}, {1, 2}})
	dist := BFS(g, 2)
	if dist[0] != -1 || dist[1] != -1 || dist[2] != 0 {
		t.Fatalf("reverse reachability should be empty: %v", dist)
	}
}

func TestExactDistancesCycle(t *testing.T) {
	// Directed 4-cycle: each ordered pair reachable; distances 1,2,3 from
	// each node.
	g := FromEdges(4, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}})
	dd := ExactDistancesWorkers(g, 0)
	if dd.Pairs != 12 {
		t.Fatalf("pairs = %v, want 12", dd.Pairs)
	}
	if dd.Counts[1] != 4 || dd.Counts[2] != 4 || dd.Counts[3] != 4 {
		t.Fatalf("counts = %v", dd.Counts)
	}
	if math.Abs(dd.Mean()-2) > 1e-12 {
		t.Fatalf("mean = %v, want 2", dd.Mean())
	}
	if dd.MaxObserved() != 3 {
		t.Fatalf("diameter = %d, want 3", dd.MaxObserved())
	}
}

func TestDistanceDistributionPercentiles(t *testing.T) {
	dd := &DistanceDistribution{Counts: []float64{0, 50, 30, 20}, Pairs: 100}
	if m := dd.Median(); m < 0.9 || m > 1.1 {
		t.Fatalf("median = %v", m)
	}
	ed := dd.EffectiveDiameter()
	// 90th percentile: 50 at d=1, 30 at d=2 (cum 80), need 10 into the
	// 20 at d=3 -> 2 + 10/20 = 2.5.
	if math.Abs(ed-2.5) > 1e-9 {
		t.Fatalf("effective diameter = %v, want 2.5", ed)
	}
}

func TestSampledApproximatesExact(t *testing.T) {
	rng := mathx.NewRNG(5)
	g := randomDigraph(rng, 300, 0.02)
	exact := ExactDistancesWorkers(g, 0)
	sampled := SampledDistances(g, 150, rng)
	if !sampled.Sampled {
		t.Fatal("should be flagged sampled")
	}
	if exact.Pairs == 0 {
		t.Skip("degenerate random graph")
	}
	relMean := math.Abs(sampled.Mean()-exact.Mean()) / exact.Mean()
	if relMean > 0.1 {
		t.Fatalf("sampled mean %v vs exact %v", sampled.Mean(), exact.Mean())
	}
	relPairs := math.Abs(sampled.Pairs-exact.Pairs) / exact.Pairs
	if relPairs > 0.2 {
		t.Fatalf("sampled pairs %v vs exact %v", sampled.Pairs, exact.Pairs)
	}
}

func TestSampledFallsBackToExact(t *testing.T) {
	rng := mathx.NewRNG(6)
	g := FromEdges(3, [][2]int{{0, 1}, {1, 2}})
	dd := SampledDistances(g, 10, rng)
	if dd.Sampled {
		t.Fatal("k >= n should run exact")
	}
	if dd.Pairs != 3 { // 0->1,0->2,1->2
		t.Fatalf("pairs = %v", dd.Pairs)
	}
}

func TestDegreesWithinK(t *testing.T) {
	g := FromEdges(5, [][2]int{{0, 1}, {0, 2}, {1, 3}, {3, 4}})
	counts := DegreesWithinK(g, 0, 3)
	// d0: {0}; d1: {1,2}; d2: {3}; d3: {4}
	want := []int{1, 2, 1, 1}
	for i, w := range want {
		if counts[i] != w {
			t.Fatalf("counts = %v", counts)
		}
	}
}

func TestMeanMatchesBruteForce(t *testing.T) {
	rng := mathx.NewRNG(9)
	g := randomDigraph(rng, 60, 0.05)
	dd := ExactDistancesWorkers(g, 0)
	// Brute force with per-source BFS.
	var sum, cnt float64
	for u := 0; u < g.NumNodes(); u++ {
		dist := BFS(g, u)
		for _, d := range dist {
			if d > 0 {
				sum += float64(d)
				cnt++
			}
		}
	}
	if cnt == 0 {
		t.Skip("degenerate")
	}
	if math.Abs(dd.Mean()-sum/cnt) > 1e-9 {
		t.Fatalf("mean %v vs brute %v", dd.Mean(), sum/cnt)
	}
	if dd.Pairs != cnt {
		t.Fatalf("pairs %v vs brute %v", dd.Pairs, cnt)
	}
}

// TestDistanceWorkerInvariance pins the determinism contract for the
// ChunkReduce-sharded distance sweep: sampled and exact distributions are
// identical at worker budgets 1, 4 and 7 (including budgets exceeding the
// source count), matching the centrality and powerlaw invariance tests.
func TestDistanceWorkerInvariance(t *testing.T) {
	g := ringWithChords(400)
	ref := SampledDistancesWorkers(g, 50, mathx.NewRNG(99), 1)
	for _, workers := range []int{4, 7} {
		got := SampledDistancesWorkers(g, 50, mathx.NewRNG(99), workers)
		assertSameDistribution(t, ref, got, workers)
	}
	// Exact sweeps too, including workers > sources on a tiny graph.
	small := FromEdges(3, [][2]int{{0, 1}, {1, 2}})
	refX := ExactDistancesWorkers(small, 1)
	for _, workers := range []int{4, 7} {
		gotX := ExactDistancesWorkers(small, workers)
		assertSameDistribution(t, refX, gotX, workers)
	}
}

func assertSameDistribution(t *testing.T, ref, got *DistanceDistribution, workers int) {
	t.Helper()
	if len(got.Counts) != len(ref.Counts) || got.Pairs != ref.Pairs ||
		got.Sources != ref.Sources || got.Sampled != ref.Sampled {
		t.Fatalf("workers=%d: shape diverges: %+v vs %+v", workers, got, ref)
	}
	for d := range ref.Counts {
		if got.Counts[d] != ref.Counts[d] {
			t.Fatalf("workers=%d: Counts[%d] = %v, want %v", workers, d, got.Counts[d], ref.Counts[d])
		}
	}
}

// ringWithChords builds a connected digraph with varied distances: a
// directed ring plus forward chords every 7 nodes.
func ringWithChords(n int) *Digraph {
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		b.AddEdge(i, (i+1)%n)
		if i%7 == 0 {
			b.AddEdge(i, (i+n/3)%n)
		}
	}
	return b.Build()
}

// TestBFSQueueCapacityRetained pins the bfsInto contract: the returned queue
// must carry forward capacity grown during the traversal.
func TestBFSQueueCapacityRetained(t *testing.T) {
	g := ringWithChords(128)
	dist := make([]int32, g.NumNodes())
	for i := range dist {
		dist[i] = -1
	}
	q := bfsInto(g, 0, dist, make([]int32, 0, 1))
	if cap(q) < g.NumNodes() {
		t.Fatalf("returned queue cap = %d, want >= %d (growth discarded)", cap(q), g.NumNodes())
	}
	// Reuse must not re-grow: a full traversal visits every node, so the
	// queue needs n slots and already has them.
	for i := range dist {
		dist[i] = -1
	}
	q2 := bfsInto(g, 1, dist, q)
	if &q2[0] != &q[0] {
		t.Fatal("reused queue reallocated despite sufficient capacity")
	}
}

// TestBFSDirOptMatchesBFS: the direction-optimizing BFS must produce exactly
// the distances of the plain queue BFS on every fixture, at both heuristic
// extremes (all top-down and all bottom-up), because only the visit order —
// never a distance value — depends on the direction choice.
func TestBFSDirOptMatchesBFS(t *testing.T) {
	rng := mathx.NewRNG(31)
	graphs := map[string]*Digraph{
		"sparse":    randomDigraph(rng, 200, 0.01),
		"dense":     randomDigraph(rng, 80, 0.3),
		"ring":      ringWithChords(150),
		"path":      FromEdges(5, [][2]int{{0, 1}, {1, 2}, {2, 3}}),
		"singleton": NewBuilder(1).Build(),
	}
	orig := distanceBottomUp
	defer func() { distanceBottomUp = orig }()
	for name, g := range graphs {
		n := g.NumNodes()
		g.InCSR()
		sc := newBFSScratch(n)
		got := make([]int32, n)
		for _, force := range []bool{false, true} {
			force := force
			distanceBottomUp = func(mf, restIn, unreached int64) bool { return force }
			for src := 0; src < n; src += 1 + n/7 {
				want := BFS(g, src)
				for i := range got {
					got[i] = -1
				}
				bfsDirOptInto(g, src, got, sc)
				for v := range want {
					if got[v] != want[v] {
						t.Fatalf("%s src=%d force=%v node %d: dist %d, want %d",
							name, src, force, v, got[v], want[v])
					}
				}
			}
		}
	}
}
