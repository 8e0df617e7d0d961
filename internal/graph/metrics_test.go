package graph

import (
	"math"
	"testing"

	"elites/internal/mathx"
)

func TestReciprocityFull(t *testing.T) {
	g := FromEdges(2, [][2]int{{0, 1}, {1, 0}})
	if r := Reciprocity(g); r != 1 {
		t.Fatalf("Reciprocity = %v, want 1", r)
	}
}

func TestReciprocityNone(t *testing.T) {
	g := FromEdges(3, [][2]int{{0, 1}, {1, 2}, {2, 0}})
	if r := Reciprocity(g); r != 0 {
		t.Fatalf("Reciprocity = %v, want 0", r)
	}
}

func TestReciprocityMixed(t *testing.T) {
	// 4 edges, one mutual pair -> 2/4.
	g := FromEdges(4, [][2]int{{0, 1}, {1, 0}, {1, 2}, {2, 3}})
	if r := Reciprocity(g); r != 0.5 {
		t.Fatalf("Reciprocity = %v, want 0.5", r)
	}
}

func TestReciprocityBounds(t *testing.T) {
	rng := mathx.NewRNG(1)
	for trial := 0; trial < 20; trial++ {
		g := randomDigraph(rng, 25, 0.1)
		r := Reciprocity(g)
		if r < 0 || r > 1 {
			t.Fatalf("Reciprocity out of bounds: %v", r)
		}
	}
}

func TestReciprocityDialExpectation(t *testing.T) {
	// Generate edges, reciprocating with probability p; measured r should
	// approach 2p/(1+p) — the identity the generator calibration relies on.
	rng := mathx.NewRNG(2)
	p := 0.203
	n := 2000
	b := NewBuilder(n)
	for i := 0; i < 40000; i++ {
		u := rng.Intn(n)
		v := rng.Intn(n)
		if u == v {
			continue
		}
		b.AddEdge(u, v)
		if rng.Bool(p) {
			b.AddEdge(v, u)
		}
	}
	g := b.Build()
	want := 2 * p / (1 + p)
	got := Reciprocity(g)
	if math.Abs(got-want) > 0.02 {
		t.Fatalf("reciprocity dial: got %v, want ~%v", got, want)
	}
}

func TestClusteringTriangle(t *testing.T) {
	// Undirected triangle: every node has clustering 1.
	g := FromEdges(3, [][2]int{{0, 1}, {1, 2}, {2, 0}})
	if c := MeanClustering(LocalClusteringAll(g, 0)); math.Abs(c-1) > 1e-12 {
		t.Fatalf("triangle clustering = %v, want 1", c)
	}
}

func TestClusteringStar(t *testing.T) {
	// Star: center has no closed triples, leaves degree 1 -> all zero.
	g := FromEdges(5, [][2]int{{0, 1}, {0, 2}, {0, 3}, {0, 4}})
	if c := MeanClustering(LocalClusteringAll(g, 0)); c != 0 {
		t.Fatalf("star clustering = %v, want 0", c)
	}
}

func TestClusteringPartial(t *testing.T) {
	// Path 0-1-2 plus edge 0-2 makes triangle; add pendant 3 on 0.
	// Degrees: 0:{1,2,3} c=1/3; 1:{0,2} c=1; 2:{0,1} c=1; 3:{0} c=0.
	g := FromEdges(4, [][2]int{{0, 1}, {1, 2}, {0, 2}, {0, 3}})
	want := (1.0/3 + 1 + 1 + 0) / 4
	if c := MeanClustering(LocalClusteringAll(g, 0)); math.Abs(c-want) > 1e-12 {
		t.Fatalf("clustering = %v, want %v", c, want)
	}
}

func TestLocalClusteringDirectionIgnored(t *testing.T) {
	// Directions shouldn't matter: 0->1, 2->1, 0->2 still closes the
	// undirected triangle.
	g := FromEdges(3, [][2]int{{0, 1}, {2, 1}, {0, 2}})
	if c := LocalClustering(g, 0); math.Abs(c-1) > 1e-12 {
		t.Fatalf("directed triangle clustering = %v, want 1", c)
	}
}

func TestAssortativityDisassortativeStar(t *testing.T) {
	// Directed star out of the hub: hub has high out-degree, leaves
	// in-degree 1; constant values give r=0 denominators -> define via
	// a two-star graph instead.
	g := FromEdges(6, [][2]int{
		{0, 1}, {0, 2}, {0, 3}, // hub 0
		{4, 5}, // low-degree pair
	})
	r := DegreeAssortativityWithIn(g, g.InDegrees())
	if r > 0 {
		t.Fatalf("expected non-positive assortativity, got %v", r)
	}
}

func TestAssortativityBounds(t *testing.T) {
	rng := mathx.NewRNG(3)
	for trial := 0; trial < 20; trial++ {
		g := randomDigraph(rng, 30, 0.1)
		r := DegreeAssortativityWithIn(g, g.InDegrees())
		if math.IsNaN(r) || r < -1-1e-9 || r > 1+1e-9 {
			t.Fatalf("assortativity out of range: %v", r)
		}
	}
}

func TestSummarizeDegrees(t *testing.T) {
	s := SummarizeDegrees([]int{3, 1, 4, 1, 5})
	if s.Min != 1 || s.Max != 5 || math.Abs(s.Mean-2.8) > 1e-12 || s.Median != 3 {
		t.Fatalf("stats = %+v", s)
	}
	even := SummarizeDegrees([]int{1, 2, 3, 4})
	if even.Median != 2.5 {
		t.Fatalf("even median = %v", even.Median)
	}
	empty := SummarizeDegrees(nil)
	if empty.Max != 0 {
		t.Fatal("empty stats should be zero")
	}
}

func TestArgMax(t *testing.T) {
	if ArgMax([]int{1, 9, 3, 9}) != 1 {
		t.Fatal("ArgMax should return first maximum")
	}
}

// TestShardedMetricsMatchSequential pins the sharded implementations to a
// straightforward sequential reference on a graph big enough to span
// several chunks (> metricChunk nodes), and checks run-to-run bit-stability.
func TestShardedMetricsMatchSequential(t *testing.T) {
	rng := mathx.NewRNG(6)
	n := 3 * metricChunk
	b := NewBuilder(n)
	for i := 0; i < 20*n; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		b.AddEdge(u, v)
		if rng.Bool(0.3) {
			b.AddEdge(v, u)
		}
	}
	g := b.Build()

	// Sequential references.
	var mutual int64
	for u := 0; u < n; u++ {
		for _, v := range g.OutNeighbors(u) {
			if g.HasEdge(int(v), u) {
				mutual++
			}
		}
	}
	wantRecip := float64(mutual) / float64(g.NumEdges())
	und := g.Undirected()
	// Folded per metricChunk-wide block, then across blocks: the documented
	// reduction order, so the sharded mean must match exactly.
	clustSum := 0.0
	for lo := 0; lo < n; lo += metricChunk {
		s := 0.0
		for u := lo; u < min(lo+metricChunk, n); u++ {
			s += localClustering(und, u)
		}
		clustSum += s
	}
	wantClust := clustSum / float64(n)
	in := g.InDegrees()
	var sx, sy, sxx, syy, sxy float64
	for u := 0; u < n; u++ {
		du := float64(g.OutDegree(u))
		for _, v := range g.OutNeighbors(u) {
			dv := float64(in[v])
			sx += du
			sy += dv
			sxx += du * du
			syy += dv * dv
			sxy += du * dv
		}
	}
	fm := float64(g.NumEdges())
	cov := sxy/fm - (sx/fm)*(sy/fm)
	wantAssort := cov / math.Sqrt((sxx/fm-(sx/fm)*(sx/fm))*(syy/fm-(sy/fm)*(sy/fm)))

	if got := Reciprocity(g); got != wantRecip {
		t.Fatalf("sharded reciprocity %v != sequential %v", got, wantRecip)
	}
	if got := MeanClustering(LocalClusteringAll(g, 0)); got != wantClust {
		t.Fatalf("sharded clustering %v != sequential %v", got, wantClust)
	}
	r1 := DegreeAssortativityWithIn(g, g.InDegrees())
	if math.Abs(r1-wantAssort) > 1e-12 {
		t.Fatalf("sharded assortativity %v != sequential %v", r1, wantAssort)
	}
	if got := DegreeAssortativityWithIn(g, in); got != r1 {
		t.Fatalf("precomputed-degrees variant %v != %v", got, r1)
	}
	// Bit-stability across repeated parallel runs.
	for i := 0; i < 3; i++ {
		if Reciprocity(g) != wantRecip {
			t.Fatal("reciprocity not run-to-run stable")
		}
		if MeanClustering(LocalClusteringAll(g, 0)) != MeanClustering(LocalClusteringAll(g, 0)) {
			t.Fatal("clustering not run-to-run stable")
		}
		if DegreeAssortativityWithIn(g, g.InDegrees()) != r1 {
			t.Fatal("assortativity not run-to-run stable")
		}
	}
}

// TestReciprocityMatchesHasEdgeCount pins the merge kernel to the
// definition: the fraction of edges u→v for which HasEdge(v, u) holds, with
// the same integer count and so the same float. The graphs are built
// directly in CSR form so they can carry self-loops (which the Builder
// drops; a self-loop is its own reverse), and every third node is left
// isolated. Sizes straddle the metric chunk so shard boundaries are covered.
func TestReciprocityMatchesHasEdgeCount(t *testing.T) {
	rng := mathx.NewRNG(19)
	for _, n := range []int{1, 2, 7, 60, 2*metricChunk + 77} {
		for trial := 0; trial < 3; trial++ {
			deg := 1 + rng.Intn(6)
			offsets := make([]int64, n+1)
			var adj []int32
			for u := 0; u < n; u++ {
				if u%3 != 2 {
					seen := map[int]bool{}
					for k := 0; k < deg; k++ {
						// Pick mostly near neighbours so reverse edges are common.
						v := (u + rng.Intn(9) - 4 + n) % n
						if u%3 == 1 && k == 0 {
							v = u // self-loop
						}
						if v%3 != 2 {
							seen[v] = true
						}
					}
					row := make([]int32, 0, len(seen))
					for v := 0; v < n; v++ {
						if seen[v] {
							row = append(row, int32(v))
						}
					}
					adj = append(adj, row...)
				}
				offsets[u+1] = int64(len(adj))
			}
			g := &Digraph{n: n, offsets: offsets, adj: adj}
			var mutual int64
			g.Edges(func(u, v int) bool {
				if g.HasEdge(v, u) {
					mutual++
				}
				return true
			})
			want := 0.0
			if m := g.NumEdges(); m > 0 {
				want = float64(mutual) / float64(m)
			}
			if got := Reciprocity(g); got != want {
				t.Fatalf("n=%d trial=%d: Reciprocity = %v, want %v (%d mutual of %d)",
					n, trial, got, want, mutual, g.NumEdges())
			}
		}
	}
}
