package graph

import (
	"fmt"
	"testing"

	"elites/internal/mathx"
)

// TestLocalClusteringAllMatchesPerNode pins the degree-ordered triangle
// kernel to the per-node merge reference with exact equality, at worker
// budgets 1, 4 and 7 (matching the distance, centrality and powerlaw
// invariance tests).
func TestLocalClusteringAllMatchesPerNode(t *testing.T) {
	clique := func(k int) *Digraph {
		b := NewBuilder(k)
		for u := 0; u < k; u++ {
			for v := u + 1; v < k; v++ {
				b.AddEdge(u, v)
			}
		}
		return b.Build()
	}
	graphs := map[string]*Digraph{
		"empty": NewBuilder(0).Build(),
		"one":   NewBuilder(1).Build(),
		"star":  FromEdges(6, [][2]int{{0, 1}, {0, 2}, {3, 0}, {0, 4}, {5, 0}}),
		"K6":    clique(6),
		// Nodes 3..5 are isolated; the triangle 0-1-2 is closed.
		"isolated": FromEdges(6, [][2]int{{0, 1}, {1, 2}, {2, 0}}),
		// Every edge is present in both directions and must count once:
		// a triangle plus a pendant, and a 4-cycle with one chord.
		"mutual": FromEdges(8, [][2]int{
			{0, 1}, {1, 0}, {1, 2}, {2, 1}, {2, 0}, {0, 2}, {2, 3}, {3, 2},
			{4, 5}, {5, 4}, {5, 6}, {6, 7}, {7, 6}, {7, 4}, {4, 6}, {6, 4},
		}),
		"heavy-tailed": heavyTailedDigraph(mathx.NewRNG(12), 2*metricChunk+333),
	}
	for name, g := range graphs {
		und := g.Undirected()
		for _, workers := range []int{1, 4, 7} {
			t.Run(fmt.Sprintf("%s/workers=%d", name, workers), func(t *testing.T) {
				got := LocalClusteringAll(g, workers)
				if len(got) != g.NumNodes() {
					t.Fatalf("len = %d, want %d", len(got), g.NumNodes())
				}
				for u := range got {
					if want := localClustering(und, u); got[u] != want {
						t.Fatalf("node %d: clustering %v, want %v", u, got[u], want)
					}
				}
			})
		}
	}
}

// heavyTailedDigraph grows a preferential-attachment digraph: each new node
// links to targets drawn from the endpoint list (so in-degree is heavy
// tailed), and a fraction of links are reciprocated.
func heavyTailedDigraph(rng *mathx.RNG, n int) *Digraph {
	b := NewBuilder(n)
	ends := []int{0}
	for u := 1; u < n; u++ {
		for k := 0; k < 4; k++ {
			v := ends[rng.Intn(len(ends))]
			b.AddEdge(u, v)
			if rng.Bool(0.3) {
				b.AddEdge(v, u)
			}
			ends = append(ends, v)
		}
		ends = append(ends, u)
	}
	return b.Build()
}
