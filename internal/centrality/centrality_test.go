package centrality

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"elites/internal/graph"
	"elites/internal/mathx"
)

func randomDigraph(rng *mathx.RNG, n int, p float64) *graph.Digraph {
	b := graph.NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u != v && rng.Bool(p) {
				b.AddEdge(u, v)
			}
		}
	}
	return b.Build()
}

func TestPageRankUniformOnCycle(t *testing.T) {
	g := graph.FromEdges(5, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}})
	pr := PageRank(g)
	for _, v := range pr {
		if math.Abs(v-0.2) > 1e-9 {
			t.Fatalf("cycle PageRank not uniform: %v", pr)
		}
	}
}

func TestPageRankSumsToOne(t *testing.T) {
	rng := mathx.NewRNG(1)
	f := func(seed uint32) bool {
		n := 2 + rng.Intn(40)
		g := randomDigraph(rng, n, 0.1)
		pr := PageRank(g)
		sum := 0.0
		for _, v := range pr {
			if v < 0 {
				return false
			}
			sum += v
		}
		return math.Abs(sum-1) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPageRankStarAnalytic(t *testing.T) {
	// Three leaves point at a dangling center. Hand-solved fixed point
	// with damping 0.85: leaf = 0.152672..., center = 0.541985...
	g := graph.FromEdges(4, [][2]int{{0, 3}, {1, 3}, {2, 3}})
	pr := PageRank(g)
	wantLeaf := 0.15267175572519084
	wantCenter := 0.5419847328244275
	for i := 0; i < 3; i++ {
		if math.Abs(pr[i]-wantLeaf) > 1e-8 {
			t.Fatalf("leaf rank %v, want %v", pr[i], wantLeaf)
		}
	}
	if math.Abs(pr[3]-wantCenter) > 1e-8 {
		t.Fatalf("center rank %v, want %v", pr[3], wantCenter)
	}
}

func TestPageRankEmpty(t *testing.T) {
	if pr := PageRank(graph.NewBuilder(0).Build()); pr != nil {
		t.Fatalf("empty graph: %v", pr)
	}
}

func TestPersonalizedPageRankConcentratesOnSeeds(t *testing.T) {
	// Two disconnected triangles; teleport to triangle A only.
	g := graph.FromEdges(6, [][2]int{
		{0, 1}, {1, 2}, {2, 0},
		{3, 4}, {4, 5}, {5, 3},
	})
	pr, err := PersonalizedPageRank(g, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	sumA := pr[0] + pr[1] + pr[2]
	sumB := pr[3] + pr[4] + pr[5]
	if sumB > 1e-9 {
		t.Fatalf("mass leaked to disconnected component: %v", sumB)
	}
	if math.Abs(sumA-1) > 1e-6 {
		t.Fatalf("mass = %v, want 1", sumA)
	}
	if _, err := PersonalizedPageRank(g, nil); err == nil {
		t.Fatal("empty seeds should error")
	}
	if _, err := PersonalizedPageRank(g, []int{99}); err == nil {
		t.Fatal("bad seed should error")
	}
}

// bruteBetweenness computes betweenness via the σ_sv·σ_vt/σ_st identity with
// independent forward BFS path counting — an oracle structurally different
// from Brandes' dependency accumulation.
func bruteBetweenness(g *graph.Digraph) []float64 {
	n := g.NumNodes()
	// dist[s][v], sigma[s][v]
	dist := make([][]int32, n)
	sigma := make([][]float64, n)
	for s := 0; s < n; s++ {
		dist[s] = graph.BFS(g, s)
		sig := make([]float64, n)
		sig[s] = 1
		// Process nodes in BFS order (by distance).
		order := make([]int, 0, n)
		for v := 0; v < n; v++ {
			if dist[s][v] >= 0 {
				order = append(order, v)
			}
		}
		// Sort by distance (stable insertion by counting distances).
		byDist := make([][]int, n+1)
		for _, v := range order {
			byDist[dist[s][v]] = append(byDist[dist[s][v]], v)
		}
		for d := 0; d <= n-1; d++ {
			for _, u := range byDist[d] {
				for _, v := range g.OutNeighbors(u) {
					if dist[s][v] == int32(d+1) {
						sig[v] += sig[u]
					}
				}
			}
		}
		sigma[s] = sig
	}
	bc := make([]float64, n)
	for s := 0; s < n; s++ {
		for tt := 0; tt < n; tt++ {
			if s == tt || dist[s][tt] < 0 {
				continue
			}
			for v := 0; v < n; v++ {
				if v == s || v == tt {
					continue
				}
				if dist[s][v] >= 0 && dist[v][tt] >= 0 &&
					dist[s][v]+dist[v][tt] == dist[s][tt] {
					bc[v] += sigma[s][v] * sigma[v][tt] / sigma[s][tt]
				}
			}
		}
	}
	return bc
}

func TestBetweennessPathGraph(t *testing.T) {
	g := graph.FromEdges(5, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}})
	bc := BetweennessWorkers(g, 0)
	want := []float64{0, 3, 4, 3, 0}
	for i, w := range want {
		if math.Abs(bc[i]-w) > 1e-9 {
			t.Fatalf("betweenness = %v, want %v", bc, want)
		}
	}
}

func TestBetweennessAgainstBruteForce(t *testing.T) {
	rng := mathx.NewRNG(3)
	for trial := 0; trial < 30; trial++ {
		n := 3 + rng.Intn(15)
		g := randomDigraph(rng, n, 0.15)
		got := BetweennessWorkers(g, 0)
		want := bruteBetweenness(g)
		for v := range want {
			if math.Abs(got[v]-want[v]) > 1e-7 {
				t.Fatalf("trial %d node %d: Brandes %v vs brute %v", trial, v, got[v], want[v])
			}
		}
	}
}

func TestApproxBetweennessConverges(t *testing.T) {
	rng := mathx.NewRNG(4)
	g := randomDigraph(rng, 120, 0.04)
	exact := BetweennessWorkers(g, 0)
	approx := ApproxBetweennessWorkers(g, 60, rng, 0)
	// Rank correlation of top nodes: the top exact node should be in the
	// approx top 5.
	topExact := argMaxF(exact)
	rank := 0
	for v := range approx {
		if approx[v] > approx[topExact] {
			rank++
		}
	}
	if rank > 5 {
		t.Fatalf("top exact node ranked %d in approximation", rank)
	}
	// Full sampling equals exact.
	full := ApproxBetweennessWorkers(g, g.NumNodes(), rng, 0)
	for v := range exact {
		if math.Abs(full[v]-exact[v]) > 1e-9 {
			t.Fatal("k>=n sampling should be exact")
		}
	}
}

func argMaxF(x []float64) int {
	best := 0
	for i, v := range x {
		if v > x[best] {
			best = i
		}
	}
	return best
}

// equalBits fails the test unless two score vectors are bit-identical —
// the worker-invariance contract is exact float equality, not tolerance.
func equalBits(t testing.TB, label string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", label, len(got), len(want))
	}
	for v := range want {
		if math.Float64bits(got[v]) != math.Float64bits(want[v]) {
			t.Fatalf("%s: node %d: %v (%x) vs %v (%x)",
				label, v, got[v], math.Float64bits(got[v]), want[v], math.Float64bits(want[v]))
		}
	}
}

// TestBetweennessWorkerInvariance: exact Betweenness must be byte-identical
// at worker budgets 1, 2, 4, 7 and 8 — including graphs with fewer sources
// than workers — because source chunks have a fixed layout and their partial
// vectors are folded in chunk order (blocked over disjoint column ranges).
func TestBetweennessWorkerInvariance(t *testing.T) {
	rng := mathx.NewRNG(9)
	for _, n := range []int{3, 40, 150} { // n=3 exercises sources < workers
		g := randomDigraph(rng, n, 0.1)
		ref := BetweennessWorkers(g, 1)
		for _, workers := range []int{2, 4, 7, 8} {
			equalBits(t, fmt.Sprintf("n=%d workers=%d", n, workers),
				BetweennessWorkers(g, workers), ref)
		}
	}
}

// TestApproxBetweennessWorkerInvariance: the sampled variant must be
// byte-identical across worker budgets too, and — because source draws come
// from derived streams that never advance the caller's generator — repeated
// calls with the same generator must agree exactly.
func TestApproxBetweennessWorkerInvariance(t *testing.T) {
	rng := mathx.NewRNG(10)
	g := randomDigraph(rng, 150, 0.05)
	base := mathx.NewRNG(77)
	ref := ApproxBetweennessWorkers(g, 40, base, 1)
	for _, workers := range []int{4, 7} {
		equalBits(t, fmt.Sprintf("workers=%d", workers),
			ApproxBetweennessWorkers(g, 40, base, workers), ref)
	}
	equalBits(t, "repeat call", ApproxBetweennessWorkers(g, 40, base, 3), ref)
	// k > sources-per-chunk with workers > k: the n < workers edge case.
	small := randomDigraph(rng, 6, 0.3)
	equalBits(t, "k<workers",
		ApproxBetweennessWorkers(small, 3, base, 7),
		ApproxBetweennessWorkers(small, 3, base, 1))
}
