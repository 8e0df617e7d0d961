package graph

import (
	"math"
	"sort"

	"elites/internal/parallel"
)

// metricChunk is the fixed shard width (in nodes) for parallel metric
// reductions over the process-wide worker pool (see internal/parallel). It
// is a constant — not a function of the worker count — so that per-chunk
// partial sums are always combined in the same order and floating-point
// results are bit-identical whatever GOMAXPROCS is.
const metricChunk = 2048

// Reciprocity returns the fraction of directed edges whose reverse edge also
// exists: |{(u,v) ∈ E : (v,u) ∈ E}| / |E|. Kwak et al. report 22.1% for the
// whole Twitter graph; the paper reports 33.7% for the verified sub-graph and
// cites 68% for Flickr.
func Reciprocity(g *Digraph) float64 {
	m := g.NumEdges()
	if m == 0 {
		return 0
	}
	// Edge u→v is reciprocated iff v is also an in-neighbour of u, so the
	// reciprocated edges out of u are the intersection of u's sorted out-row
	// with its sorted in-row. Each direction counts, so a mutual pair
	// contributes 2.
	// Sharded over source-node ranges; each ordered edge is owned by
	// exactly one chunk, so the partial counts sum exactly.
	inOff, inAdj := g.InCSR()
	parts := parallel.ChunkReduce(g.NumNodes(), metricChunk, 0, func(lo, hi int) int64 {
		var mutual int64
		for u := lo; u < hi; u++ {
			mutual += int64(intersectLen(g.OutNeighbors(u), inAdj[inOff[u]:inOff[u+1]]))
		}
		return mutual
	})
	var mutual int64
	for _, p := range parts {
		mutual += p
	}
	return float64(mutual) / float64(m)
}

// DegreeAssortativityWithIn returns the Pearson correlation of the
// (out-degree of source, in-degree of target) pairs over all directed edges
// — the out-in degree assortativity of Newman — given g's in-degree vector.
// Negative values indicate dissortativity; the paper measures −0.04 for the
// verified network, in contrast to the assortative full Twitter graph.
func DegreeAssortativityWithIn(g *Digraph, in []int) float64 {
	m := g.NumEdges()
	if m == 0 {
		return 0
	}
	// Each chunk accumulates the five edge moments over its source range;
	// combining in chunk order keeps the correlation bit-stable under any
	// worker count.
	type moments struct{ sx, sy, sxx, syy, sxy float64 }
	parts := parallel.ChunkReduce(g.NumNodes(), metricChunk, 0, func(lo, hi int) moments {
		var p moments
		for u := lo; u < hi; u++ {
			du := float64(g.OutDegree(u))
			for _, v := range g.OutNeighbors(u) {
				dv := float64(in[v])
				p.sx += du
				p.sy += dv
				p.sxx += du * du
				p.syy += dv * dv
				p.sxy += du * dv
			}
		}
		return p
	})
	var sx, sy, sxx, syy, sxy float64
	for _, p := range parts {
		sx += p.sx
		sy += p.sy
		sxx += p.sxx
		syy += p.syy
		sxy += p.sxy
	}
	fm := float64(m)
	cov := sxy/fm - (sx/fm)*(sy/fm)
	vx := sxx/fm - (sx/fm)*(sx/fm)
	vy := syy/fm - (sy/fm)*(sy/fm)
	if vx <= 0 || vy <= 0 {
		return 0
	}
	return cov / math.Sqrt(vx*vy)
}

// DegreeStats summarizes a degree sequence.
type DegreeStats struct {
	Min, Max int
	Mean     float64
	Median   float64
}

// SummarizeDegrees computes order statistics of a degree slice.
func SummarizeDegrees(deg []int) DegreeStats {
	if len(deg) == 0 {
		return DegreeStats{}
	}
	sorted := make([]int, len(deg))
	copy(sorted, deg)
	sort.Ints(sorted)
	total := 0
	for _, d := range sorted {
		total += d
	}
	mid := len(sorted) / 2
	median := float64(sorted[mid])
	if len(sorted)%2 == 0 {
		median = (float64(sorted[mid-1]) + float64(sorted[mid])) / 2
	}
	return DegreeStats{
		Min:    sorted[0],
		Max:    sorted[len(sorted)-1],
		Mean:   float64(total) / float64(len(sorted)),
		Median: median,
	}
}

// ArgMax returns the index of the maximum value in deg (first occurrence).
func ArgMax(deg []int) int {
	best := 0
	for i, d := range deg {
		if d > deg[best] {
			best = i
		}
	}
	return best
}
