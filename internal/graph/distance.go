package graph

import (
	"elites/internal/mathx"
	"elites/internal/parallel"
)

// DistanceDistribution is a histogram of finite pairwise shortest-path
// lengths (directed, hop counts). Counts[d] is the number of ordered reachable
// pairs at distance d >= 1; when sampled, counts are scaled estimates.
type DistanceDistribution struct {
	Counts []float64 // index = distance, Counts[0] unused
	// Pairs is the total number of ordered reachable pairs represented
	// (Σ Counts).
	Pairs float64
	// Sources is the number of BFS sources used (n for exact runs).
	Sources int
	// Sampled records whether the distribution is a source-sampled
	// estimate rather than exact.
	Sampled bool
}

// Mean returns the average distance over reachable pairs — the paper's 2.74
// "degrees of separation" statistic (isolated/unreachable pairs excluded).
func (d *DistanceDistribution) Mean() float64 {
	if d.Pairs == 0 {
		return 0
	}
	s := 0.0
	for dist, c := range d.Counts {
		s += float64(dist) * c
	}
	return s / d.Pairs
}

// Median returns the median distance over reachable pairs; the MSN study
// cited in the paper reports a median of 6.
func (d *DistanceDistribution) Median() float64 { return d.Percentile(0.50) }

// EffectiveDiameter returns the 90th-percentile distance (Leskovec's
// effective diameter) with linear interpolation between integer distances.
func (d *DistanceDistribution) EffectiveDiameter() float64 { return d.Percentile(0.90) }

// Percentile returns the p-quantile (0<p<=1) of the distance distribution
// with linear interpolation within the quantile's distance bucket.
func (d *DistanceDistribution) Percentile(p float64) float64 {
	if d.Pairs == 0 {
		return 0
	}
	target := p * d.Pairs
	cum := 0.0
	for dist := 1; dist < len(d.Counts); dist++ {
		c := d.Counts[dist]
		if c == 0 {
			continue
		}
		if cum+c >= target {
			// Interpolate within [dist-1, dist] following the
			// convention of Leskovec & Horvitz.
			frac := (target - cum) / c
			return float64(dist-1) + frac
		}
		cum += c
	}
	return float64(len(d.Counts) - 1)
}

// MaxObserved returns the largest finite distance observed (the diameter for
// exact runs, a lower bound when sampled).
func (d *DistanceDistribution) MaxObserved() int {
	for dist := len(d.Counts) - 1; dist >= 1; dist-- {
		if d.Counts[dist] > 0 {
			return dist
		}
	}
	return 0
}

// BFS computes directed hop distances from src; unreachable nodes get -1.
func BFS(g *Digraph, src int) []int32 {
	dist := make([]int32, g.NumNodes())
	for i := range dist {
		dist[i] = -1
	}
	_ = bfsInto(g, src, dist, make([]int32, 0, 1024))
	return dist
}

// bfsInto runs BFS reusing the provided queue; dist must be pre-filled with
// -1 and is written in place. It returns the (possibly grown) queue so that
// callers looping over many sources retain the grown capacity instead of
// re-growing from the original backing array on every traversal.
func bfsInto(g *Digraph, src int, dist []int32, queue []int32) []int32 {
	dist[src] = 0
	queue = append(queue[:0], int32(src))
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		du := dist[u]
		for _, v := range g.OutNeighbors(int(u)) {
			if dist[v] < 0 {
				dist[v] = du + 1
				queue = append(queue, v)
			}
		}
	}
	return queue
}

// distanceBottomUp decides the traversal direction for one level of the
// distance sweeps' direction-optimizing BFS — same shape as the betweenness
// kernel's heuristic (see internal/centrality): top-down costs one probe per
// frontier out-edge (mf), bottom-up costs at most the unreached nodes'
// in-edges (restIn, estimated as unreached·m/n) and usually much less, since
// a distance-only sweep stops scanning a node's in-edges at the first
// frontier parent. Deterministic: inputs are pure functions of (graph,
// source). A variable so tests can force either direction.
var distanceBottomUp = func(mf, restIn, unreached int64) bool {
	return 8*mf > restIn+unreached
}

// bfsScratch is the reusable state of bfsDirOptInto.
type bfsScratch struct {
	cur, next []int32
	front     []uint64 // frontier bitmap, L1-resident at histogram scales
}

func newBFSScratch(n int) *bfsScratch {
	return &bfsScratch{
		cur:   make([]int32, 0, n),
		next:  make([]int32, 0, n),
		front: make([]uint64, (n+63)/64),
	}
}

// bfsDirOptInto is bfsInto with direction optimization: each level expands
// top-down (scan frontier out-edges) or bottom-up (scan unreached nodes'
// in-edges against a frontier bitmap, stopping at the first parent) per
// distanceBottomUp. Distances are identical either way — only the visit
// order differs, which a histogram never observes. dist must be pre-filled
// with -1; the caller must have materialized g.InCSR() already (workers
// would otherwise serialize on the lazy transpose build).
func bfsDirOptInto(g *Digraph, src int, dist []int32, sc *bfsScratch) {
	outOff, _ := g.CSR()
	inOff, inAdj := g.InCSR()
	n := g.n
	m := int64(len(inAdj))
	dist[src] = 0
	cur, next := sc.cur[:0], sc.next[:0]
	cur = append(cur, int32(src))
	reached := 1
	for d := int32(0); len(cur) > 0; d++ {
		var mf int64
		for _, u := range cur {
			mf += outOff[u+1] - outOff[u]
		}
		unreached := int64(n - reached)
		next = next[:0]
		if distanceBottomUp(mf, unreached*m/int64(n), unreached) {
			front := sc.front
			clear(front)
			for _, u := range cur {
				front[uint32(u)>>6] |= 1 << (uint32(u) & 63)
			}
			for v := 0; v < n; v++ {
				if dist[v] >= 0 {
					continue
				}
				for _, u := range inAdj[inOff[v]:inOff[v+1]] {
					if front[uint32(u)>>6]&(1<<(uint32(u)&63)) != 0 {
						dist[v] = d + 1
						next = append(next, int32(v))
						break
					}
				}
			}
		} else {
			for _, u := range cur {
				for _, v := range g.OutNeighbors(int(u)) {
					if dist[v] < 0 {
						dist[v] = d + 1
						next = append(next, v)
					}
				}
			}
		}
		reached += len(next)
		cur, next = next, cur
	}
	sc.cur, sc.next = cur, next // retain grown capacity for the next source
}

// ExactDistancesWorkers runs a full all-pairs BFS (n BFS traversals,
// parallelized on the shared worker pool with the given worker budget,
// <= 0 meaning GOMAXPROCS) and returns the exact distance distribution;
// every budget yields identical counts. Suitable up to a few tens of
// thousands of nodes.
func ExactDistancesWorkers(g *Digraph, workers int) *DistanceDistribution {
	n := g.NumNodes()
	sources := make([]int, n)
	for i := range sources {
		sources[i] = i
	}
	dd := distancesFromSources(g, sources, workers)
	dd.Sampled = false
	return dd
}

// SampledDistances estimates the distance distribution from k uniformly
// sampled BFS sources; the per-source pair counts are unbiased estimates of
// the full distribution up to the n/k scale factor, which we apply so that
// Counts are comparable to exact runs. Kwak et al. used the same
// source-sampling strategy for the full Twitter graph.
func SampledDistances(g *Digraph, k int, rng *mathx.RNG) *DistanceDistribution {
	return SampledDistancesWorkers(g, k, rng, 0)
}

// SampledDistancesWorkers is SampledDistances with an explicit worker budget
// (<= 0 means GOMAXPROCS). The source sample depends only on rng, and the
// sweep reduces fixed-layout integer partials in chunk order, so the
// distribution is identical at every budget.
func SampledDistancesWorkers(g *Digraph, k int, rng *mathx.RNG, workers int) *DistanceDistribution {
	n := g.NumNodes()
	if k >= n {
		return ExactDistancesWorkers(g, workers)
	}
	perm := rng.Perm(n)
	sources := perm[:k]
	dd := distancesFromSources(g, sources, workers)
	scale := float64(n) / float64(k)
	for i := range dd.Counts {
		dd.Counts[i] *= scale
	}
	dd.Pairs *= scale
	dd.Sampled = true
	return dd
}

// maxDistancePartials bounds how many source chunks a distance sweep splits
// into. Each in-flight chunk carries its own dist/queue scratch (O(n)), so
// the bound also caps scratch memory; like betweenness, the chunk layout is
// a function of the source count only — never of the worker budget — which
// keeps the reduction order fixed.
const maxDistancePartials = 64

// distancesFromSources accumulates the hop-distance histogram over BFS runs
// from the given sources, sharded through the shared worker pool
// (parallel.ChunkReduce): fixed-layout source chunks, one int64 histogram
// per chunk, folded in chunk order. Counts are integers, so the fold is
// exact at any budget; the fixed order keeps it deterministic by
// construction all the same.
func distancesFromSources(g *Digraph, sources []int, workers int) *DistanceDistribution {
	g.InCSR() // build the transpose once, before the workers race to it
	chunk := (len(sources) + maxDistancePartials - 1) / maxDistancePartials
	parts := parallel.ChunkReduce(len(sources), chunk, workers, func(lo, hi int) []int64 {
		n := g.NumNodes()
		dist := make([]int32, n)
		sc := newBFSScratch(n)
		counts := make([]int64, 64)
		for idx := lo; idx < hi; idx++ {
			src := sources[idx]
			for i := range dist {
				dist[i] = -1
			}
			bfsDirOptInto(g, src, dist, sc)
			for _, d := range dist {
				if d > 0 {
					if int(d) >= len(counts) {
						grow := make([]int64, int(d)*2)
						copy(grow, counts)
						counts = grow
					}
					counts[d]++
				}
			}
		}
		return counts
	})
	maxLen := 0
	for _, p := range parts {
		if len(p) > maxLen {
			maxLen = len(p)
		}
	}
	if maxLen == 0 {
		maxLen = 1
	}
	out := &DistanceDistribution{Counts: make([]float64, maxLen), Sources: len(sources)}
	for _, p := range parts {
		for d, c := range p {
			out.Counts[d] += float64(c)
			out.Pairs += float64(c)
		}
	}
	// Trim trailing zeros.
	last := len(out.Counts)
	for last > 1 && out.Counts[last-1] == 0 {
		last--
	}
	out.Counts = out.Counts[:last]
	return out
}

// DegreesWithinK returns, for each hop distance d in [0, k], the number of
// nodes whose directed distance from src is exactly d. It powers the
// spam-whitelisting example (Hentschel et al.: most users sit within 7 hops
// of a verified user).
func DegreesWithinK(g *Digraph, src, k int) []int {
	dist := BFS(g, src)
	counts := make([]int, k+1)
	for _, d := range dist {
		if d >= 0 && int(d) <= k {
			counts[d]++
		}
	}
	return counts
}
