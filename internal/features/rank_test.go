package features

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"elites/internal/graph"
	"elites/internal/mathx"
)

// refRankByOutDegree is the comparator sort RankByOutDegree replaced: a
// stable sort of the identity permutation by (out-degree desc, id asc).
func refRankByOutDegree(g *graph.Digraph) []int32 {
	outDeg := g.OutDegrees()
	byRank := make([]int32, g.NumNodes())
	for i := range byRank {
		byRank[i] = int32(i)
	}
	sort.SliceStable(byRank, func(a, b int) bool {
		da, db := outDeg[byRank[a]], outDeg[byRank[b]]
		if da != db {
			return da > db
		}
		return byRank[a] < byRank[b]
	})
	return byRank
}

// TestRankByOutDegreeMatchesComparatorSort pins the bucket ranking to the
// comparator sort, permutation for permutation: empty and single-node
// graphs, an edgeless graph (one all-isolated bucket), a star, and random
// graphs whose out-degrees are drawn from a narrow range so most buckets
// hold many tied ids, with a share of isolated nodes.
func TestRankByOutDegreeMatchesComparatorSort(t *testing.T) {
	cases := map[string]*graph.Digraph{
		"n=0":      graph.NewBuilder(0).Build(),
		"n=1":      graph.NewBuilder(1).Build(),
		"edgeless": graph.NewBuilder(7).Build(),
		"star":     graph.FromEdges(5, [][2]int{{3, 0}, {3, 1}, {3, 2}, {3, 4}, {1, 0}}),
	}
	rng := mathx.NewRNG(19)
	for i, n := range []int{2, 3, 17, 64, 500, 2000} {
		b := graph.NewBuilder(n)
		maxDeg := 1 + rng.Intn(6)
		for u := 0; u < n; u++ {
			if rng.Bool(0.25) {
				continue // isolated unless someone links in
			}
			for k := rng.Intn(maxDeg + 1); k > 0; k-- {
				b.AddEdge(u, rng.Intn(n))
			}
		}
		cases[fmt.Sprintf("random-%d-n=%d", i, n)] = b.Build()
	}
	for name, g := range cases {
		got, want := RankByOutDegree(g), refRankByOutDegree(g)
		if !slices.Equal(got, want) {
			t.Errorf("%s: ranking %v, comparator sort %v", name, got, want)
		}
	}
}
