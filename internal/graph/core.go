package graph

import "math"

// This file implements the core-structure analyses behind the paper's
// §IV-C conjecture — "the larger reciprocity rate viz-a-viz the whole
// Twitter graph is due to a larger core of publicly relevant and
// consequential personalities within this sub-graph. We leave validating
// this assertion for future work." — k-core decomposition, the rich-club
// coefficient, and extraction of the mutual (reciprocal-only) sub-graph.

// KCoreResult holds the core decomposition of the undirected projection.
type KCoreResult struct {
	// Core[v] is the core number of node v (the largest k such that v
	// belongs to the k-core).
	Core []int
	// MaxCore is the degeneracy of the graph.
	MaxCore int
}

// KCores computes core numbers of the undirected projection of g using the
// Batagelj–Zaveršnik bucket algorithm (O(n + m)).
func KCores(g *Digraph) *KCoreResult {
	und := g.Undirected()
	n := und.NumNodes()
	deg := make([]int, n)
	maxDeg := 0
	for v := 0; v < n; v++ {
		deg[v] = und.OutDegree(v)
		if deg[v] > maxDeg {
			maxDeg = deg[v]
		}
	}
	// Bucket sort nodes by degree.
	bin := make([]int, maxDeg+2)
	for _, d := range deg {
		bin[d]++
	}
	start := 0
	for d := 0; d <= maxDeg; d++ {
		cnt := bin[d]
		bin[d] = start
		start += cnt
	}
	pos := make([]int, n)  // position of node in vert
	vert := make([]int, n) // nodes sorted by current degree
	for v := 0; v < n; v++ {
		pos[v] = bin[deg[v]]
		vert[pos[v]] = v
		bin[deg[v]]++
	}
	for d := maxDeg; d > 0; d-- {
		bin[d] = bin[d-1]
	}
	bin[0] = 0
	core := make([]int, n)
	copy(core, deg)
	for i := 0; i < n; i++ {
		v := vert[i]
		for _, u32 := range und.OutNeighbors(v) {
			u := int(u32)
			if core[u] > core[v] {
				// Move u one bucket down.
				du := core[u]
				pu := pos[u]
				pw := bin[du]
				w := vert[pw]
				if u != w {
					pos[u] = pw
					vert[pu] = w
					pos[w] = pu
					vert[pw] = u
				}
				bin[du]++
				core[u]--
			}
		}
	}
	maxCore := 0
	for _, c := range core {
		if c > maxCore {
			maxCore = c
		}
	}
	return &KCoreResult{Core: core, MaxCore: maxCore}
}

// RichClubPoint is the rich-club coefficient at one degree threshold.
type RichClubPoint struct {
	K       int     // degree threshold
	N       int     // nodes with undirected degree > K
	Phi     float64 // density of the sub-graph they induce (undirected)
	PhiNorm float64 // Phi normalized by the whole graph's density; > 1 ⇒ rich club
}

// RichClub computes the rich-club coefficient φ(k) = 2·E_{>k} / (N_{>k}·
// (N_{>k}−1)) of the undirected projection at logarithmically spaced degree
// thresholds, normalized by the overall density. Values well above 1 at
// high k indicate that the most-connected "elite" nodes preferentially
// interconnect — the structural meaning of the paper's "core of publicly
// relevant personalities".
func RichClub(g *Digraph, points int) []RichClubPoint {
	und := g.Undirected()
	n := und.NumNodes()
	if n < 3 || points < 1 {
		return nil
	}
	deg := make([]int, n)
	maxDeg := 0
	for v := 0; v < n; v++ {
		deg[v] = und.OutDegree(v)
		if deg[v] > maxDeg {
			maxDeg = deg[v]
		}
	}
	overall := und.Density() // symmetric digraph density = undirected density
	if overall == 0 {
		return nil
	}
	// Log-spaced thresholds from 1 to maxDeg/2.
	ks := logSpacedInts(1, maxDeg/2, points)
	out := make([]RichClubPoint, 0, len(ks))
	for _, k := range ks {
		members := 0
		var edges int64 // directed count within the symmetric projection
		for v := 0; v < n; v++ {
			if deg[v] <= k {
				continue
			}
			members++
			for _, u := range und.OutNeighbors(v) {
				if deg[u] > k {
					edges++
				}
			}
		}
		if members < 2 {
			break
		}
		nm := float64(members)
		phi := float64(edges) / (nm * (nm - 1))
		out = append(out, RichClubPoint{
			K: k, N: members, Phi: phi, PhiNorm: phi / overall,
		})
	}
	return out
}

func logSpacedInts(lo, hi, points int) []int {
	if hi <= lo {
		return []int{lo}
	}
	var out []int
	last := -1
	for i := 0; i < points; i++ {
		f := float64(i) / float64(points-1)
		v := int(float64(lo) * math.Pow(float64(hi)/float64(lo), f))
		if v != last {
			out = append(out, v)
			last = v
		}
	}
	return out
}

// MutualSubgraph returns the sub-graph keeping only reciprocated edges
// (u→v and v→u both present) — the "mutual core" whose relative size the
// §IV-C conjecture is about.
func MutualSubgraph(g *Digraph) *Digraph {
	b := NewBuilder(g.NumNodes())
	g.Edges(func(u, v int) bool {
		if u < v && g.HasEdge(v, u) {
			b.AddEdge(u, v)
			b.AddEdge(v, u)
		}
		return true
	})
	return b.Build()
}

// CoreReciprocity reports reciprocity restricted to edges whose endpoints
// both have core number >= k, versus edges with at least one endpoint below
// k — the direct §IV-C validation: if the conjecture holds, core edges
// reciprocate far more often than periphery edges.
func CoreReciprocity(g *Digraph, cores *KCoreResult, k int) (core, periphery float64) {
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
