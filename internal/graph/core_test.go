package graph

import (
	"math"
	"reflect"
	"testing"

	"elites/internal/mathx"
)

func TestKCoresClique(t *testing.T) {
	// A 5-clique (undirected via mutual edges): every node has core 4.
	b := NewBuilder(5)
	for u := 0; u < 5; u++ {
		for v := 0; v < 5; v++ {
			if u != v {
				b.AddEdge(u, v)
			}
		}
	}
	res := KCores(b.Build())
	if res.MaxCore != 4 {
		t.Fatalf("clique max core = %d, want 4", res.MaxCore)
	}
	for v, c := range res.Core {
		if c != 4 {
			t.Fatalf("node %d core = %d", v, c)
		}
	}
}

func TestKCoresCliqueWithPendants(t *testing.T) {
	// 4-clique (nodes 0-3) plus pendant chain 4-5: pendants have core 1.
	b := NewBuilder(6)
	for u := 0; u < 4; u++ {
		for v := 0; v < 4; v++ {
			if u != v {
				b.AddEdge(u, v)
			}
		}
	}
	b.AddEdge(0, 4)
	b.AddEdge(4, 0)
	b.AddEdge(4, 5)
	b.AddEdge(5, 4)
	res := KCores(b.Build())
	for v := 0; v < 4; v++ {
		if res.Core[v] != 3 {
			t.Fatalf("clique node %d core = %d, want 3", v, res.Core[v])
		}
	}
	if res.Core[4] != 1 || res.Core[5] != 1 {
		t.Fatalf("pendant cores = %d, %d, want 1, 1", res.Core[4], res.Core[5])
	}
}

// bruteCore computes core numbers by repeated peeling — the O(n²) oracle.
func bruteCore(g *Digraph) []int {
	und := g.Undirected()
	n := und.NumNodes()
	deg := make([]int, n)
	alive := make([]bool, n)
	for v := 0; v < n; v++ {
		deg[v] = und.OutDegree(v)
		alive[v] = true
	}
	core := make([]int, n)
	for k := 0; ; k++ {
		anyAlive := false
		for {
			removed := false
			for v := 0; v < n; v++ {
				if alive[v] && deg[v] <= k {
					alive[v] = false
					core[v] = k
					for _, u := range und.OutNeighbors(v) {
						if alive[u] {
							deg[u]--
						}
					}
					removed = true
				}
			}
			if !removed {
				break
			}
		}
		for v := 0; v < n; v++ {
			if alive[v] {
				anyAlive = true
			}
		}
		if !anyAlive {
			break
		}
	}
	return core
}

func TestKCoresAgainstBruteForce(t *testing.T) {
	rng := mathx.NewRNG(3)
	for trial := 0; trial < 25; trial++ {
		g := randomDigraph(rng, 40, 0.08)
		got := KCores(g)
		want := bruteCore(g)
		for v := range want {
			if got.Core[v] != want[v] {
				t.Fatalf("trial %d node %d: core %d vs brute %d", trial, v, got.Core[v], want[v])
			}
		}
	}
}

func TestRichClubDetectsElite(t *testing.T) {
	// Dense core of 20 nodes + sparse periphery of 380 attached one edge
	// each: φ_norm at high k must exceed 1 by a lot.
	rng := mathx.NewRNG(5)
	b := NewBuilder(400)
	for u := 0; u < 20; u++ {
		for v := 0; v < 20; v++ {
			if u != v && rng.Bool(0.8) {
				b.AddEdge(u, v)
				b.AddEdge(v, u)
			}
		}
	}
	for v := 20; v < 400; v++ {
		// Two mutual attachments so periphery degree (2) exceeds the
		// lowest rich-club threshold and the low-k club spans everyone.
		for a := 0; a < 2; a++ {
			hub := rng.Intn(20)
			b.AddEdge(v, hub)
			b.AddEdge(hub, v)
		}
	}
	g := b.Build()
	rc := RichClub(g, 12)
	if len(rc) == 0 {
		t.Fatal("no rich-club points")
	}
	last := rc[len(rc)-1]
	if last.PhiNorm < 3 {
		t.Fatalf("rich club not detected: %+v", rc)
	}
	// Low-k point should be near the overall density (φ_norm ≈ 1).
	if rc[0].PhiNorm > 3 {
		t.Fatalf("low-k already elite? %+v", rc[0])
	}
}

// richClubWithSets is the reference for RichClub: it collects each club's
// members into a set and looks every edge up in it, where RichClub tests
// the endpoints' degrees. TestRichClubMatchesSetReference holds the two
// equal.
func richClubWithSets(g *Digraph, points int) []RichClubPoint {
	und := g.Undirected()
	n := und.NumNodes()
	if n < 3 || points < 1 {
		return nil
	}
	deg := make([]int, n)
	maxDeg := 0
	for v := 0; v < n; v++ {
		deg[v] = und.OutDegree(v)
		maxDeg = max(maxDeg, deg[v])
	}
	overall := und.Density()
	if overall == 0 {
		return nil
	}
	var out []RichClubPoint
	for _, k := range logSpacedInts(1, maxDeg/2, points) {
		var members []int
		for v := 0; v < n; v++ {
			if deg[v] > k {
				members = append(members, v)
			}
		}
		if len(members) < 2 {
			break
		}
		inSet := make(map[int32]bool, len(members))
		for _, v := range members {
			inSet[int32(v)] = true
		}
		var edges int64
		for _, v := range members {
			for _, u := range und.OutNeighbors(v) {
				if inSet[u] {
					edges++
				}
			}
		}
		nm := float64(len(members))
		phi := float64(edges) / (nm * (nm - 1))
		out = append(out, RichClubPoint{K: k, N: len(members), Phi: phi, PhiNorm: phi / overall})
	}
	return out
}

// chungLuDigraph draws u→v with probability proportional to w_u·w_v for
// power-law weights, so degrees are heavy-tailed and the club thresholds
// cut the graph at many sizes.
func chungLuDigraph(rng *mathx.RNG, n int, avgDeg float64) *Digraph {
	w := make([]float64, n)
	var sum float64
	for i := range w {
		w[i] = math.Pow(float64(i+1), -0.7)
		sum += w[i]
	}
	b := NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u != v && rng.Bool(min(1, avgDeg*w[u]*w[v]*float64(n)/(sum*sum))) {
				b.AddEdge(u, v)
			}
		}
	}
	return b.Build()
}

func TestRichClubMatchesSetReference(t *testing.T) {
	rng := mathx.NewRNG(11)
	for i, g := range []*Digraph{
		randomDigraph(rng, 60, 0.1),
		randomDigraph(rng, 200, 0.03),
		chungLuDigraph(rng, 300, 8),
		chungLuDigraph(rng, 800, 12),
	} {
		for _, points := range []int{1, 5, 10, 30} {
			got, want := RichClub(g, points), richClubWithSets(g, points)
			if len(want) == 0 {
				t.Fatalf("graph %d, %d points: the reference found no club", i, points)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("graph %d, %d points:\n got %+v\nwant %+v", i, points, got, want)
			}
		}
	}
}

func TestCoreReciprocityConjecture(t *testing.T) {
	// On the calibrated verified-like generator, the §IV-C conjecture
	// should hold: high-core edges reciprocate more than periphery edges.
	// Build with the generator's mechanism in miniature: a mutual core
	// plus fan periphery.
	rng := mathx.NewRNG(7)
	b := NewBuilder(500)
	// Core: 50 nodes, dense mutual.
	for u := 0; u < 50; u++ {
		for k := 0; k < 8; k++ {
			v := rng.Intn(50)
			if v != u {
				b.AddEdge(u, v)
				b.AddEdge(v, u)
			}
		}
	}
	// Periphery: 450 nodes following core one-way. Note a periphery node
	// of degree d sits in the d-core (its hub neighbors never peel), so
	// the threshold below must exceed the periphery degree.
	for v := 50; v < 500; v++ {
		for k := 0; k < 3; k++ {
			b.AddEdge(v, rng.Intn(50))
		}
	}
	g := b.Build()
	cores := KCores(g)
	coreR, perR, _ := CoreReciprocity(g, cores, 6)
	if coreR <= perR {
		t.Fatalf("conjecture violated in constructed case: core %v <= periphery %v", coreR, perR)
	}
	if coreR < 0.8 {
		t.Fatalf("core reciprocity = %v, want high", coreR)
	}
}

// coreReciprocityByLookup is the reference for CoreReciprocity: it tests
// every edge's reverse with HasEdge, a binary search per edge.
func coreReciprocityByLookup(g *Digraph, cores *KCoreResult, k int) (core, periphery float64) {
	var coreMutual, coreTotal, perMutual, perTotal int64
	g.Edges(func(u, v int) bool {
		mutual := g.HasEdge(v, u)
		if cores.Core[u] >= k && cores.Core[v] >= k {
			coreTotal++
			if mutual {
				coreMutual++
			}
		} else {
			perTotal++
			if mutual {
				perMutual++
			}
		}
		return true
	})
	if coreTotal > 0 {
		core = float64(coreMutual) / float64(coreTotal)
	}
	if perTotal > 0 {
		periphery = float64(perMutual) / float64(perTotal)
	}
	return
}

// TestCoreReciprocityMatchesLookup pins the merge-walk CoreReciprocity to
// the per-edge HasEdge reference, and its share to Reciprocity, bit for
// bit: on random graphs of several densities (with self-loops and mutual
// pairs), at every core threshold, and on graphs without edges.
func TestCoreReciprocityMatchesLookup(t *testing.T) {
	rng := mathx.NewRNG(31)
	graphs := []*Digraph{NewBuilder(0).Build(), NewBuilder(7).Build()}
	for _, p := range []float64{0.02, 0.1, 0.4} {
		g := randomDigraph(rng, 120, p)
		b := NewBuilder(g.NumNodes())
		g.Edges(func(u, v int) bool {
			b.AddEdge(u, v)
			if rng.Bool(0.3) {
				b.AddEdge(v, u)
			}
			return true
		})
		for u := 0; u < g.NumNodes(); u += 9 {
			b.AddEdge(u, u)
		}
		graphs = append(graphs, g, b.Build())
	}
	graphs = append(graphs, chungLuDigraph(rng, 300, 12))
	for i, g := range graphs {
		cores := KCores(g)
		for k := 0; k <= cores.MaxCore+1; k++ {
			core, per, share := CoreReciprocity(g, cores, k)
			wantCore, wantPer := coreReciprocityByLookup(g, cores, k)
			wantShare := Reciprocity(g)
			for _, c := range []struct {
				name      string
				got, want float64
			}{{"core", core, wantCore}, {"periphery", per, wantPer}, {"share", share, wantShare}} {
				if math.Float64bits(c.got) != math.Float64bits(c.want) {
					t.Fatalf("graph %d (%d nodes, %d edges), k=%d: %s = %v, reference %v", i, g.NumNodes(), g.NumEdges(), k, c.name, c.got, c.want)
				}
			}
		}
	}
}
