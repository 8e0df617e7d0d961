// Package centrality implements the node-importance measures used in the
// paper's Figure 5 analysis: PageRank (power iteration with dangling-mass
// redistribution), Brandes betweenness centrality (exact and source-sampled,
// parallelized over sources with ordered reduction so scores are
// bit-identical at any worker count). All routines operate on the CSR
// digraphs of internal/graph and are deterministic given their inputs,
// whatever the scheduling.
package centrality

import (
	"errors"
	"math"

	"elites/internal/graph"
)

// ErrBadParam flags out-of-range algorithm parameters.
var ErrBadParam = errors.New("centrality: bad parameter")

// The power iteration's settings, the paper's: damping 0.85, an L1
// tolerance of 1e-10 and at most 200 iterations. The floats are typed so
// that 1-damping is the float64 subtraction (0.15000000000000002), not the
// exact constant 0.15 rounded once.
const (
	damping float64 = 0.85
	tol     float64 = 1e-10
	maxIter         = 200
)

// PageRank computes the PageRank vector of g. The returned scores sum to 1.
// Dangling nodes (zero out-degree — the paper's celebrity sinks) donate their
// rank uniformly, the standard strongly-preferential handling.
func PageRank(g *graph.Digraph) []float64 { return pageRank(g, maxIter) }

// pageRank is PageRank stopped after at most iterCap iterations.
func pageRank(g *graph.Digraph, iterCap int) []float64 {
	n := g.NumNodes()
	if n == 0 {
		return nil
	}
	// Each node pulls rank from its in-neighbors (the cached in-CSR). A
	// node's share rank[u]/outdeg[u] is divided once per iteration, not
	// once per out-edge: the same quotient, so the same bits.
	inOff, inAdj := g.InCSR()
	outDeg := g.OutDegrees()
	rank := make([]float64, n)
	next := make([]float64, n)
	share := make([]float64, n)
	for i := range rank {
		rank[i] = 1 / float64(n)
	}
	dangling := danglingNodes(outDeg)
	for iter := 0; iter < iterCap; iter++ {
		danglingMass := 0.0
		for _, u := range dangling {
			danglingMass += rank[u]
		}
		base := (1-damping)/float64(n) + damping*danglingMass/float64(n)
		for u, d := range outDeg {
			if d > 0 {
				share[u] = rank[u] / float64(d)
			}
		}
		for v := 0; v < n; v++ {
			s := 0.0
			for _, u := range inAdj[inOff[v]:inOff[v+1]] {
				s += share[u]
			}
			next[v] = base + damping*s
		}
		delta := 0.0
		for i := range rank {
			delta += math.Abs(next[i] - rank[i])
		}
		rank, next = next, rank
		if delta < tol {
			break
		}
	}
	return rank
}

// danglingNodes lists, in id order, the nodes with no out-edges.
func danglingNodes(outDeg []int) []int {
	var dangling []int
	for u, d := range outDeg {
		if d == 0 {
			dangling = append(dangling, u)
		}
	}
	return dangling
}

// PersonalizedPageRank computes PageRank with teleportation restricted to
// the given seed set (uniform over seeds; a seed listed twice gets twice
// the weight). Used by the crawl example to rank proximity to the verified
// core.
func PersonalizedPageRank(g *graph.Digraph, seeds []int) ([]float64, error) {
	n := g.NumNodes()
	if n == 0 {
		return nil, nil
	}
	if len(seeds) == 0 {
		return nil, ErrBadParam
	}
	for _, s := range seeds {
		if s < 0 || s >= n {
			return nil, graph.ErrNodeRange
		}
	}
	return personalizedRanks(g, [][]int{seeds}, maxIter)[0], nil
}

// lanes is the number of teleport vectors one pass of personalizedRanks
// carries through the graph.
const lanes = 4

// laneVec is one node's entry in each lane of a block.
type laneVec = [lanes]float64

// personalizedRanks runs the personalized power iteration once per seed
// set (each non-empty, every seed in range), stopping each after at most
// iterCap iterations, and returns one rank vector per set. Sets are taken lanes at a time into n×lanes slabs, so one sweep over
// the in-edges feeds all of a block's sums from one contiguous load per
// in-neighbor; a short last block pads with empty lanes, which stay zero.
//
// Every lane performs exactly the floating-point operations of the
// one-vector iteration, in the same order (pagerank_reference_test.go keeps
// that loop and pins the bits): the teleport mass is added per seed, each
// lane's dangling mass, in-edge sum and L1 change are separate
// accumulators, and a lane's result is copied out after the iteration on
// which it converged (where the one-vector loop returns); later sweeps of
// its block still carry the lane, but nothing reads it again.
func personalizedRanks(g *graph.Digraph, seedSets [][]int, iterCap int) [][]float64 {
	n := g.NumNodes()
	inOff, inAdj := g.InCSR()
	outDeg := g.OutDegrees()
	dangling := danglingNodes(outDeg)
	tele := make([]laneVec, n)
	rank := make([]laneVec, n)
	next := make([]laneVec, n)
	share := make([]laneVec, n)
	out := make([][]float64, len(seedSets))
	for lo := 0; lo < len(seedSets); lo += lanes {
		block := seedSets[lo:min(lo+lanes, len(seedSets))]
		clear(tele)
		for l, seeds := range block {
			for _, s := range seeds {
				tele[s][l] += 1 / float64(len(seeds))
			}
		}
		copy(rank, tele)
		live := 0
		for l := range block {
			live |= 1 << l
		}
		for iter := 0; iter < iterCap && live != 0; iter++ {
			var dm laneVec
			for _, u := range dangling {
				for l := range dm {
					dm[l] += rank[u][l]
				}
			}
			for u, d := range outDeg {
				if d > 0 {
					r, sh, fd := &rank[u], &share[u], float64(d)
					sh[0] = r[0] / fd
					sh[1] = r[1] / fd
					sh[2] = r[2] / fd
					sh[3] = r[3] / fd
				}
			}
			delta := sweepLanes(inOff, inAdj, share, tele, rank, next, dm)
			rank, next = next, rank
			for l := range block {
				if live&(1<<l) != 0 && delta[l] < tol {
					out[lo+l] = laneOf(rank, l)
					live &^= 1 << l
				}
			}
		}
		for l := range block {
			if live&(1<<l) != 0 {
				out[lo+l] = laneOf(rank, l)
			}
		}
	}
	return out
}

// sweepLanes is one power-iteration step for every lane of a block: it
// fills next from the in-neighbors' shares, the teleport vectors and the
// lanes' dangling masses dm, and returns each lane's L1 change from rank.
// It is a function of its own because, written inline in personalizedRanks,
// the compiler kept the edge loop's counters on the stack and the kernel
// ran ~1.7× slower.
func sweepLanes(inOff []int64, inAdj []int32, share, tele, rank, next []laneVec, dm laneVec) (delta laneVec) {
	for v := range next {
		var s0, s1, s2, s3 float64
		for _, u := range inAdj[inOff[v]:inOff[v+1]] {
			sh := &share[u]
			s0 += sh[0]
			s1 += sh[1]
			s2 += sh[2]
			s3 += sh[3]
		}
		t, r, nx := &tele[v], &rank[v], &next[v]
		nx[0] = (1-damping)*t[0] + damping*(s0+dm[0]*t[0])
		nx[1] = (1-damping)*t[1] + damping*(s1+dm[1]*t[1])
		nx[2] = (1-damping)*t[2] + damping*(s2+dm[2]*t[2])
		nx[3] = (1-damping)*t[3] + damping*(s3+dm[3]*t[3])
		delta[0] += math.Abs(nx[0] - r[0])
		delta[1] += math.Abs(nx[1] - r[1])
		delta[2] += math.Abs(nx[2] - r[2])
		delta[3] += math.Abs(nx[3] - r[3])
	}
	return delta
}

// laneOf copies lane l out of a slab.
func laneOf(slab []laneVec, l int) []float64 {
	v := make([]float64, len(slab))
	for i := range v {
		v[i] = slab[i][l]
	}
	return v
}
