package centrality

import (
	"strconv"
	"sync"

	"elites/internal/graph"
	"elites/internal/mathx"
	"elites/internal/parallel"
)

// Brandes betweenness kernel.
//
// # Numeric contract
//
// The kernel is predecessor-list-free in the classic sense: no per-node
// slice-of-slices is kept. A per-source level-synchronous BFS records the
// discovery order into one flat, level-bucketed `order` array, and the
// shortest-path DAG's in-edges are captured as flat runs in one reused
// buffer as the traversal finds them (no pointer-chasing, no per-BFS
// re-append of 2·n slice headers). The floating-point semantics are pinned
// so that scores are bit-identical to the classic predecessor-list
// formulation (the test-only reference in reference_test.go) at every
// worker budget:
//
//   - sigma values are shortest-path counts — exact integers in float64, so
//     their accumulation order never matters while counts stay below 2^53
//     (true by an enormous margin on the paper's graphs; beyond it both this
//     kernel and the reference degrade identically in spirit but not
//     necessarily in the last ulp).
//   - delta accumulation order is pinned by the BFS discovery order: the
//     dependency pass walks `order` backwards (levels deepest-first, reverse
//     discovery order within a level), and each node v pushes
//     sigma[u]·(1+delta[v])/sigma[v] to its DAG in-neighbors u.
//     Contributions to a fixed delta[u] slot therefore arrive in reverse
//     discovery order of u's DAG successors — exactly the order the
//     predecessor-list formulation produces — and the iteration order of
//     u within one v is immaterial (distinct delta slots).
//   - each source chunk accumulates its sources in source order into a
//     private partial vector; each partial is added element-wise into the
//     scores in chunk order as soon as it and every earlier chunk are done
//     (parallel.ChunkFold), the serial left fold's order and bits.
//
// # Cache-conscious layout
//
// All per-node BFS state lives in one 32-byte struct (nodeState: sigma,
// delta, dist, discovery position, flat-predecessor run) so that every
// random probe of a node — the discovery check in a top-down step, the
// sigma pull in a bottom-up step, the delta push in the dependency pass —
// touches a single cache line instead of up to four parallel arrays.
//
// # Direction-optimizing BFS
//
// Each level expands either top-down (scan frontier out-edges, the classic
// way) or bottom-up (scan the in-edges of still-unreached nodes, Beamer
// style): when the frontier's out-edge count dwarfs the in-edges of the
// unreached remainder, most top-down probes would hit already-visited nodes
// and the sweep is cheaper. The switch is keyed only on per-level edge/node
// counts — pure functions of (graph, source) — so the traversal direction,
// and with it every float operation, is independent of scheduling and
// worker budget.
//
// A bottom-up sweep discovers nodes in index order, not discovery order, so
// it reorders the new level with a stable counting sort keyed on each
// node's earliest parent position ("first discoverer"): the resulting
// bucket order (earliest parent, then index) is exactly the order a
// top-down scan would have appended, which keeps the delta ordering — and
// the bits — identical whichever direction the heuristic picks
// (TestBetweennessDirectionInvariance pins this).

// maxBetweennessPartials bounds how many source chunks, and so partial
// score vectors, a parallel Brandes run makes. Sources are split into at
// most this many fixed-layout chunks — a function of the source count only,
// never of the worker count — and the per-chunk vectors are folded in chunk
// order, so floating-point results are bit-identical at every parallelism
// level. ChunkFold keeps only O(workers) of them live at once.
const maxBetweennessPartials = 64

// bottomUpBeneficial decides the traversal direction for one BFS level:
// top-down costs one probe per frontier out-edge (mf); bottom-up costs one
// probe per in-edge of a still-unreached node plus the index sweep over the
// unreached nodes themselves. restIn is the *estimated* unreached in-edge
// count (unreached · m/n — the exact figure would cost a random in-degree
// lookup per discovery, and the estimate preserves determinism because it
// is a pure function of the reached count). Declared as a variable so tests
// can force either direction.
var bottomUpBeneficial = func(mf, restIn, unreached int64) bool {
	return 8*mf > restIn+unreached
}

// nodeState is the per-node scratch of one Brandes source iteration, packed
// into 32 bytes so every random node probe touches one cache line.
type nodeState struct {
	sigma float64 // shortest-path count (exact integer in float64)
	delta float64 // dependency accumulator
	dist  int32   // BFS level; -1 = unreached
	pos   int32   // discovery index in order; valid only for reached nodes
	// Flat predecessor run: the DAG in-neighbors of this node are
	// preds[predStart : predStart+predCnt].
	predStart int32
	predCnt   int32
}

// betweennessWorkspace holds the per-source scratch so parallel workers
// allocate nothing per BFS in steady state.
type betweennessWorkspace struct {
	st    []nodeState
	order []int32 // level-bucketed BFS discovery order (cap n, never grows)
	preds []int32 // flat DAG in-neighbor runs, reset per source
	pairs []int64 // top-down scratch: (v<<32 | u) DAG edges of one level
	// front is the frontier membership bitmap for bottom-up sweeps. At
	// ~n/8 bytes it stays L1-resident, so the ~80% of in-edge probes that
	// miss the frontier cost one bit test instead of a random 32-byte
	// nodeState load.
	front  []uint64
	buf    []int32 // bottom-up scratch: newly discovered level, index order
	minPos []int32 // bottom-up scratch: earliest-parent discovery index
	cnt    []int32 // bottom-up scratch: counting-sort buckets per parent
}

func newBetweennessWorkspace(n int) *betweennessWorkspace {
	return &betweennessWorkspace{
		st:     make([]nodeState, n),
		order:  make([]int32, 0, n),
		front:  make([]uint64, (n+63)/64),
		buf:    make([]int32, 0, n),
		minPos: make([]int32, n),
		cnt:    make([]int32, n),
	}
}

// wsPool recycles workspaces across calls (and across the serving layer's
// repeated runs); entries sized for a smaller graph than requested are
// dropped and reallocated.
var wsPool sync.Pool

func getWorkspace(n int) *betweennessWorkspace {
	w, _ := wsPool.Get().(*betweennessWorkspace)
	if w == nil || cap(w.order) < n {
		return newBetweennessWorkspace(n)
	}
	w.st = w.st[:n]
	w.order = w.order[:0]
	w.front = w.front[:(n+63)/64]
	w.buf = w.buf[:0]
	w.minPos = w.minPos[:n]
	w.cnt = w.cnt[:n]
	return w
}

// partialPool recycles per-chunk partial score vectors; getPartial returns a
// zeroed slice of exactly n elements.
var partialPool sync.Pool

func getPartial(n int) []float64 {
	if p, ok := partialPool.Get().(*[]float64); ok && cap(*p) >= n {
		s := (*p)[:n]
		clear(s)
		return s
	}
	return make([]float64, n)
}

// accumulate runs a single Brandes source iteration, adding partial
// dependencies into bc. It allocates nothing in steady state
// (TestBetweennessSteadyStateAllocs).
func (w *betweennessWorkspace) accumulate(g *graph.Digraph, s int, bc []float64) {
	n := g.NumNodes()
	outOff, outAdj := g.CSR()
	inOff, inAdj := g.InCSR()
	m := int64(len(inAdj))
	st := w.st
	for i := range st {
		st[i] = nodeState{dist: -1}
	}

	// Forward phase: level-synchronous BFS. order is bucketed by level in
	// discovery order; st[v].pos is v's index in order.
	//
	// preds is written through an explicit cursor rather than append: the
	// DAG edge count is bounded by m, so sizing the buffer once keeps the
	// hot recording loops free of capacity checks (and allocation-free
	// after the first source on a graph).
	order := w.order[:0]
	if int64(cap(w.preds)) < m+1 { // +1: slack slot for the filter pass
		w.preds = make([]int32, m+1)
	}
	preds := w.preds[:cap(w.preds)]
	pcur := int32(0)
	st[s] = nodeState{sigma: 1}
	order = append(order, int32(s))
	for lf := 0; lf < len(order); {
		hf := len(order)
		frontier := order[lf:hf]
		d := st[frontier[0]].dist
		var mf int64
		for _, u := range frontier {
			mf += outOff[u+1] - outOff[u]
		}
		unreached := int64(n - hf)
		if bottomUpBeneficial(mf, unreached*m/int64(n), unreached) {
			// Bottom-up: sweep unreached nodes, pulling sigma from their
			// frontier in-neighbors. The matching in-neighbors are exactly
			// the node's DAG predecessors, so the flat run is recorded for
			// free; then restore top-down discovery order. Frontier
			// membership is tested against the L1-resident bitmap first so
			// non-frontier probes never touch the nodeState array.
			front := w.front
			clear(front)
			for _, u := range frontier {
				front[uint32(u)>>6] |= 1 << (uint32(u) & 63)
			}
			buf := w.buf[:0]
			for v := 0; v < n; v++ {
				if st[v].dist >= 0 {
					continue
				}
				// Filter pass: branch-free frontier test — every probe
				// stores its node id, only hits advance the cursor (preds
				// carries one slack slot for the trailing dead store).
				// Touching no nodeState here keeps the loop free of
				// unpredictable branches and dependent random loads.
				start := pcur
				for _, u := range inAdj[inOff[v]:inOff[v+1]] {
					preds[pcur] = u
					pcur += int32(front[uint32(u)>>6] >> (uint32(u) & 63) & 1)
				}
				if pcur == start {
					continue
				}
				// Sum pass over the recorded run: branch-free body, so the
				// out-of-order window overlaps the random sigma loads.
				var sum float64
				mp := int32(1<<31 - 1)
				for _, u := range preds[start:pcur] {
					su := &st[u]
					sum += su.sigma
					if su.pos < mp {
						mp = su.pos
					}
				}
				st[v] = nodeState{sigma: sum, dist: d + 1,
					predStart: start, predCnt: pcur - start}
				w.minPos[v] = mp
				buf = append(buf, int32(v))
			}
			w.buf = buf // retain (fixed) capacity across levels
			// Stable counting sort of the new level by earliest-parent
			// position: bucket order (parent pos, then node index) is
			// exactly the top-down append order.
			cnt := w.cnt[:len(frontier)]
			for i := range cnt {
				cnt[i] = 0
			}
			for _, v := range buf {
				cnt[w.minPos[v]-int32(lf)]++
			}
			var off int32
			for i, c := range cnt {
				cnt[i] = off
				off += c
			}
			order = order[:hf+len(buf)]
			for _, v := range buf {
				k := w.minPos[v] - int32(lf)
				idx := int32(hf) + cnt[k]
				cnt[k]++
				order[idx] = v
				st[v].pos = idx
			}
		} else {
			// Top-down: scan frontier out-edges in discovery order,
			// recording DAG edges as (v, u) pairs to be grouped into flat
			// per-node runs once the level is complete.
			pairs := w.pairs[:0]
			for _, u := range frontier {
				su := st[u].sigma
				for _, v := range outAdj[outOff[u]:outOff[u+1]] {
					sv := &st[v]
					if sv.dist < 0 {
						sv.dist = d + 1
						sv.sigma = su
						sv.pos = int32(len(order))
						sv.predCnt = 1
						order = append(order, v)
						pairs = append(pairs, int64(v)<<32|int64(u))
					} else if sv.dist == d+1 {
						sv.sigma += su
						sv.predCnt++
						pairs = append(pairs, int64(v)<<32|int64(u))
					}
				}
			}
			w.pairs = pairs
			// Group: assign each new node its run, then scatter the pairs
			// (predCnt doubles as the fill cursor and ends back at the
			// run length).
			for _, v := range order[hf:] {
				sv := &st[v]
				sv.predStart = pcur
				pcur += sv.predCnt
				sv.predCnt = 0
			}
			for _, p := range pairs {
				sv := &st[int32(p>>32)]
				preds[sv.predStart+sv.predCnt] = int32(p)
				sv.predCnt++
			}
		}
		lf = hf
	}
	w.order = order[:0]

	// Dependency pass: walk order backwards (levels deepest-first, reverse
	// discovery order within each level) and push each node's coefficient
	// along its flat DAG in-neighbor run.
	for i := len(order) - 1; i >= 1; i-- {
		v := order[i]
		sv := &st[v]
		coef := (1 + sv.delta) / sv.sigma
		for _, u := range preds[sv.predStart : sv.predStart+sv.predCnt] {
			su := &st[u]
			su.delta += su.sigma * coef
		}
		bc[v] += sv.delta
	}
}

// BetweennessWorkers computes exact betweenness centrality for all nodes
// with Brandes' algorithm, parallelized over sources on the shared worker
// pool with the given worker budget (<= 0 means GOMAXPROCS). Directed;
// scores are raw dependency sums (no normalization), matching networkx's
// betweenness_centrality(normalized=False). Results are bit-identical at
// every budget.
func BetweennessWorkers(g *graph.Digraph, workers int) []float64 {
	n := g.NumNodes()
	sources := make([]int, n)
	for i := range sources {
		sources[i] = i
	}
	return betweennessFrom(g, sources, 1, workers)
}

// ApproxBetweennessWorkers estimates betweenness from k uniformly sampled
// sources, scaled by n/k so that values are comparable to the exact ones
// (Brandes & Pich source sampling), with the given worker budget (<= 0
// means GOMAXPROCS). Sampling error concentrates on low-betweenness nodes;
// the paper's Figure 5 uses ranks of high-betweenness nodes, which
// stabilize quickly (see BenchmarkAblationBetweennessSampling). Each
// sampling draw comes from its own stream derived from rng, which is never
// advanced: the sampled source set is a pure function of the rng state and
// k — independent of scheduling, worker count, and any other use of rng —
// so calling twice with the same generator samples the same source set.
// For an independent resample, pass a different generator (or Split).
func ApproxBetweennessWorkers(g *graph.Digraph, k int, rng *mathx.RNG, workers int) []float64 {
	n := g.NumNodes()
	if k >= n {
		return BetweennessWorkers(g, workers)
	}
	return betweennessFrom(g, sampleSources(n, k, rng), float64(n)/float64(k), workers)
}

// sampleSources draws k distinct sources from [0, n) by a partial
// Fisher–Yates shuffle whose j-th swap index comes from the derived stream
// "source/j". Derive does not advance rng, so the sample commutes with every
// other consumer of the generator and with scheduling order.
func sampleSources(n, k int, rng *mathx.RNG) []int {
	pool := make([]int, n)
	for i := range pool {
		pool[i] = i
	}
	for j := 0; j < k; j++ {
		r := rng.Derive("source/" + strconv.Itoa(j))
		i := j + r.Intn(n-j)
		pool[j], pool[i] = pool[i], pool[j]
	}
	return pool[:k]
}

// betweennessFrom runs Brandes over the given sources, sharded into
// fixed-layout chunks (at most maxBetweennessPartials of them) on the shared
// worker pool. Each chunk accumulates its sources — in source order — into a
// pooled partial vector, which is added element-wise into the scores in
// chunk order and returned to the pool, so the result is bit-identical
// whatever the worker budget or schedule.
func betweennessFrom(g *graph.Digraph, sources []int, scale float64, workers int) []float64 {
	n := g.NumNodes()
	bc := make([]float64, n)
	if len(sources) == 0 {
		return bc
	}
	g.InCSR() // build the transpose once, before the workers race to it
	width := (len(sources) + maxBetweennessPartials - 1) / maxBetweennessPartials
	parallel.ChunkFold(len(sources), width, workers, func(lo, hi int) []float64 {
		ws := getWorkspace(n)
		part := getPartial(n)
		for _, s := range sources[lo:hi] {
			ws.accumulate(g, s, part)
		}
		wsPool.Put(ws)
		return part
	}, func(part []float64) {
		for i, v := range part {
			bc[i] += v
		}
		partialPool.Put(&part)
	})
	if scale != 1 {
		for i := range bc {
			bc[i] *= scale
		}
	}
	return bc
}
