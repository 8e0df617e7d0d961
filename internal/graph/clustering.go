package graph

import "elites/internal/parallel"

// AverageLocalClustering returns the mean local clustering coefficient over
// all nodes, treating the graph as undirected (the convention of
// Watts–Strogatz and of the paper's reported 0.1583). Nodes with undirected
// degree < 2 contribute 0 but still count in the denominator, matching the
// networkx "average over all nodes" convention.
func AverageLocalClustering(g *Digraph) float64 {
	n := g.NumNodes()
	if n == 0 {
		return 0
	}
	clus := LocalClusteringAll(g, 0)
	// Summed per metricChunk block, then across blocks: the order cached
	// basic-stage results and the goldens were computed in, so the mean
	// keeps its bits.
	total := 0.0
	for lo := 0; lo < n; lo += metricChunk {
		s := 0.0
		for _, c := range clus[lo:min(lo+metricChunk, n)] {
			s += c
		}
		total += s
	}
	return total / float64(n)
}

// LocalClusteringAll returns the local clustering coefficient of every node
// in the undirected projection of g, sharded under the given worker budget
// (<= 0 selects GOMAXPROCS). Entry u equals LocalClustering(g, u) exactly:
// triangle counts are integers, so the result is bit-identical at every
// budget.
//
// Each undirected edge is oriented from the endpoint that comes first in
// (undirected degree, id) order, and every triangle is found once, from its
// first corner: O(m·√m) work instead of the O(Σ deg²) of intersecting every
// neighbour's full row per node.
func LocalClusteringAll(g *Digraph, workers int) []float64 {
	n := g.NumNodes()
	out := make([]float64, n)
	if n == 0 {
		return out
	}
	f := orientByDegree(g, workers)
	tri := f.triangles(workers)
	for u, d := range f.deg {
		if d >= 2 {
			out[u] = 2 * float64(tri[u]) / (float64(d) * float64(d-1))
		}
	}
	return out
}

// LocalClustering returns the local clustering coefficient of node u in the
// undirected projection of g. It projects the whole graph on every call;
// LocalClusteringAll is the bulk kernel, and this per-node merge is kept as
// its naive reference.
func LocalClustering(g *Digraph, u int) float64 {
	return localClustering(g.Undirected(), u)
}

// localClustering computes triangles/(d·(d-1)/2) on an already-symmetric
// graph.
func localClustering(und *Digraph, u int) float64 {
	nbrs := und.OutNeighbors(u)
	d := len(nbrs)
	if d < 2 {
		return 0
	}
	links := 0
	for i := 0; i < d; i++ {
		vi := nbrs[i]
		row := und.OutNeighbors(int(vi))
		// Count neighbors of vi that are also neighbors of u with id
		// greater than vi (each undirected pair counted once) by merge
		// intersection.
		j, k := 0, 0
		for j < len(row) && k < d {
			switch {
			case row[j] < nbrs[k]:
				j++
			case row[j] > nbrs[k]:
				k++
			default:
				if row[j] > vi {
					links++
				}
				j++
				k++
			}
		}
	}
	return 2 * float64(links) / (float64(d) * float64(d-1))
}

// forwardCSR is the degree-ordered orientation of a graph's undirected
// projection: each undirected edge {u,v} appears exactly once, in the row of
// whichever endpoint precedes the other in (undirected degree, id) order.
// Rows are sorted by id. No node has more than O(√m) forward neighbours,
// since each of them has at least its degree.
type forwardCSR struct {
	deg []int32 // undirected degree
	off []int64 // len n+1
	adj []int32
}

func (f *forwardCSR) row(u int) []int32 { return f.adj[f.off[u]:f.off[u+1]] }

// precedes reports whether u comes before v in (undirected degree, id)
// order.
func (f *forwardCSR) precedes(u, v int32) bool {
	du, dv := f.deg[u], f.deg[v]
	return du < dv || (du == dv && u < v)
}

// orientByDegree builds the forward rows straight from g's out-CSR and its
// cached in-CSR (their sorted union is the undirected row), so the
// symmetric projection is never materialized.
func orientByDegree(g *Digraph, workers int) *forwardCSR {
	n := g.NumNodes()
	inOff, inAdj := g.InCSR()
	inRow := func(u int) []int32 { return inAdj[inOff[u]:inOff[u+1]] }
	f := &forwardCSR{deg: make([]int32, n), off: make([]int64, n+1)}
	// Every pass writes disjoint per-node slots, so sharding is free of
	// ordering concerns.
	each := func(fn func(lo, hi int)) {
		parallel.ChunkReduce(n, metricChunk, workers, func(lo, hi int) struct{} {
			fn(lo, hi)
			return struct{}{}
		})
	}
	each(func(lo, hi int) {
		for u := lo; u < hi; u++ {
			out, in := g.OutNeighbors(u), inRow(u)
			f.deg[u] = int32(len(out) + len(in) - intersectLen(out, in))
		}
	})
	each(func(lo, hi int) {
		var buf []int32
		for u := lo; u < hi; u++ {
			buf = f.appendForward(buf[:0], g.OutNeighbors(u), inRow(u), int32(u))
			f.off[u+1] = int64(len(buf))
		}
	})
	for u := 0; u < n; u++ {
		f.off[u+1] += f.off[u]
	}
	f.adj = make([]int32, f.off[n])
	each(func(lo, hi int) {
		for u := lo; u < hi; u++ {
			f.appendForward(f.adj[f.off[u]:f.off[u]], g.OutNeighbors(u), inRow(u), int32(u))
		}
	})
	return f
}

// appendForward appends to dst, in increasing id order, the members of the
// union of the sorted rows out and in that u precedes.
func (f *forwardCSR) appendForward(dst, out, in []int32, u int32) []int32 {
	i, j := 0, 0
	for i < len(out) || j < len(in) {
		var v int32
		switch {
		case j == len(in) || (i < len(out) && out[i] < in[j]):
			v = out[i]
			i++
		case i == len(out) || in[j] < out[i]:
			v = in[j]
			j++
		default:
			v = out[i]
			i++
			j++
		}
		if f.precedes(u, v) {
			dst = append(dst, v)
		}
	}
	return dst
}

// intersectLen returns the number of ids common to two sorted rows.
func intersectLen(a, b []int32) int {
	i, j, c := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			c++
			i++
			j++
		}
	}
	return c
}

// triangles returns the number of undirected triangles through each node.
// A triangle u ≺ v ≺ w is found once, from u: with u's forward row stamped,
// scanning the forward row of each forward neighbour v finds every w that
// closes it, and all three corners are credited. Workers keep their own
// stamp and count arrays (O(n) per worker, reused across chunks) that are
// summed at the end; integer sums are exact, so the counts do not depend on
// which worker handled which chunk.
func (f *forwardCSR) triangles(workers int) []int64 {
	n := len(f.deg)
	type scratch struct {
		mark []int32 // mark[w] == u+1 while u's forward row is stamped
		tri  []int64
	}
	// At most Workers(workers) chunk functions run at once, so the buffer
	// never fills and each running worker holds one scratch.
	free := make(chan *scratch, parallel.Workers(workers))
	parallel.ChunkReduce(n, metricChunk, workers, func(lo, hi int) struct{} {
		var s *scratch
		select {
		case s = <-free:
		default:
			s = &scratch{mark: make([]int32, n), tri: make([]int64, n)}
		}
		for u := lo; u < hi; u++ {
			fu := f.row(u)
			if len(fu) < 2 {
				continue
			}
			stamp := int32(u + 1)
			for _, v := range fu {
				s.mark[v] = stamp
			}
			for _, v := range fu {
				var t int64
				for _, w := range f.row(int(v)) {
					if s.mark[w] == stamp {
						s.tri[w]++
						t++
					}
				}
				s.tri[v] += t
				s.tri[u] += t
			}
		}
		free <- s
		return struct{}{}
	})
	close(free)
	tri := (<-free).tri
	for s := range free {
		for u, t := range s.tri {
			tri[u] += t
		}
	}
	return tri
}
