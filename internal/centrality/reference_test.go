package centrality

// Test-only reference implementation of the betweenness kernel's numeric
// contract (see the kernel comment in betweenness.go). It is the classic
// predecessor-list Brandes formulation — per-node preds slices re-appended
// on every BFS, a single mixed-level queue, a serial chunk-order fold — and
// performs exactly the floating-point operations the optimized kernel pins:
// sigma accumulated along the BFS scan, delta pushed in reverse discovery
// order, partials folded left-to-right in chunk order. The equivalence
// tests assert the predecessor-free, direction-optimizing kernel is
// bit-identical to this reference at several worker budgets, which pins the
// level-bucketed layout, the bottom-up discovery-order reconstruction and
// the blocked reduction without freezing last-ulp behaviour against
// unrelated refactors.

import (
	"fmt"
	"math"
	"testing"
	"time"

	"elites/internal/gen"
	"elites/internal/graph"
	"elites/internal/mathx"
)

type refWorkspace struct {
	dist  []int32
	sigma []float64
	delta []float64
	order []int32
	preds [][]int32
}

func newRefWorkspace(n int) *refWorkspace {
	return &refWorkspace{
		dist:  make([]int32, n),
		sigma: make([]float64, n),
		delta: make([]float64, n),
		order: make([]int32, 0, n),
		preds: make([][]int32, n),
	}
}

func (w *refWorkspace) accumulate(g *graph.Digraph, s int, bc []float64) {
	n := g.NumNodes()
	for i := 0; i < n; i++ {
		w.dist[i] = -1
		w.sigma[i] = 0
		w.delta[i] = 0
		w.preds[i] = w.preds[i][:0]
	}
	w.order = w.order[:0]
	w.dist[s] = 0
	w.sigma[s] = 1
	queue := append(w.order, int32(s))
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		du := w.dist[u]
		for _, v := range g.OutNeighbors(int(u)) {
			if w.dist[v] < 0 {
				w.dist[v] = du + 1
				queue = append(queue, v)
			}
			if w.dist[v] == du+1 {
				w.sigma[v] += w.sigma[u]
				w.preds[v] = append(w.preds[v], u)
			}
		}
	}
	w.order = queue
	for i := len(w.order) - 1; i >= 0; i-- {
		v := w.order[i]
		coef := (1 + w.delta[v]) / w.sigma[v]
		for _, u := range w.preds[v] {
			w.delta[u] += w.sigma[u] * coef
		}
		if int(v) != s {
			bc[v] += w.delta[v]
		}
	}
}

// refBetweennessFrom restates betweennessFrom serially: the same fixed chunk
// layout, one freshly allocated partial per chunk, partials folded
// left-to-right, then the scale multiply.
func refBetweennessFrom(g *graph.Digraph, sources []int, scale float64) []float64 {
	n := g.NumNodes()
	bc := make([]float64, n)
	if len(sources) == 0 {
		return bc
	}
	width := (len(sources) + maxBetweennessPartials - 1) / maxBetweennessPartials
	ws := newRefWorkspace(n)
	for lo := 0; lo < len(sources); lo += width {
		hi := min(lo+width, len(sources))
		part := make([]float64, n)
		for _, s := range sources[lo:hi] {
			ws.accumulate(g, s, part)
		}
		for i, v := range part {
			bc[i] += v
		}
	}
	if scale != 1 {
		for i := range bc {
			bc[i] *= scale
		}
	}
	return bc
}

// betweennessFixtures are directed, asymmetric graphs chosen to exercise
// every kernel path: multi-level sparse BFS trees (top-down), dense
// small-diameter graphs (bottom-up sweeps plus the counting-sort reorder),
// DAG layers, disconnected pieces, and degenerate sizes.
func betweennessFixtures() map[string]*graph.Digraph {
	rng := mathx.NewRNG(1234)
	layered := graph.NewBuilder(40)
	for l := 0; l < 3; l++ { // 4 layers of 10, edges only forward
		for u := 0; u < 10; u++ {
			for v := 0; v < 10; v++ {
				if rng.Bool(0.4) {
					layered.AddEdge(l*10+u, (l+1)*10+v)
				}
			}
		}
	}
	twoParts := graph.NewBuilder(30)
	for u := 0; u < 12; u++ {
		for v := 0; v < 12; v++ {
			if u != v && rng.Bool(0.3) {
				twoParts.AddEdge(u, v)
			}
		}
	}
	for u := 15; u < 30; u++ {
		twoParts.AddEdge(u, 15+(u+1)%15)
	}
	return map[string]*graph.Digraph{
		"sparse":       randomDigraph(rng, 90, 0.03),
		"dense":        randomDigraph(rng, 120, 0.35),
		"layered-dag":  layered.Build(),
		"disconnected": twoParts.Build(),
		"path":         graph.FromEdges(6, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}}),
		"singleton":    graph.NewBuilder(1).Build(),
		"tiny":         randomDigraph(rng, 3, 0.5),
	}
}

// TestBetweennessMatchesReferenceExact: the optimized kernel must be
// bit-identical to the predecessor-list reference over all sources, at every
// worker budget the acceptance contract names.
func TestBetweennessMatchesReferenceExact(t *testing.T) {
	for name, g := range betweennessFixtures() {
		n := g.NumNodes()
		sources := make([]int, n)
		for i := range sources {
			sources[i] = i
		}
		want := refBetweennessFrom(g, sources, 1)
		for _, workers := range []int{1, 2, 4, 7, 8} {
			equalBits(t, fmt.Sprintf("%s workers=%d", name, workers),
				BetweennessWorkers(g, workers), want)
		}
	}
}

// TestApproxBetweennessMatchesReference: the sampled variant shares the
// kernel and the n/k scaling; it must be bit-identical to the reference over
// the same derived source sample.
func TestApproxBetweennessMatchesReference(t *testing.T) {
	rng := mathx.NewRNG(77)
	for name, g := range betweennessFixtures() {
		n := g.NumNodes()
		k := n / 2
		if k < 1 {
			continue
		}
		base := mathx.NewRNG(99)
		want := refBetweennessFrom(g, sampleSources(n, k, base), float64(n)/float64(k))
		for _, workers := range []int{1, 4, 7} {
			equalBits(t, fmt.Sprintf("%s workers=%d", name, workers),
				ApproxBetweennessWorkers(g, k, base, workers), want)
		}
	}
	_ = rng
}

// TestBetweennessDirectionInvariance forces the direction heuristic to each
// extreme: an all-top-down and an all-bottom-up traversal must produce
// bit-identical scores, because the bottom-up counting-sort reconstruction
// restores the top-down discovery order that pins delta accumulation.
func TestBetweennessDirectionInvariance(t *testing.T) {
	orig := bottomUpBeneficial
	defer func() { bottomUpBeneficial = orig }()
	for name, g := range betweennessFixtures() {
		bottomUpBeneficial = func(mf, restIn, unreached int64) bool { return false }
		topDown := BetweennessWorkers(g, 3)
		bottomUpBeneficial = func(mf, restIn, unreached int64) bool { return true }
		bottomUp := BetweennessWorkers(g, 3)
		equalBits(t, name+" top-down vs bottom-up", bottomUp, topDown)
	}
}

// TestBetweennessSteadyStateAllocs pins the zero-alloc contract of the
// per-source accumulation: with a warmed workspace, one Brandes source
// iteration must not touch the heap.
func TestBetweennessSteadyStateAllocs(t *testing.T) {
	rng := mathx.NewRNG(21)
	g := randomDigraph(rng, 400, 0.05)
	g.InCSR() // transpose is built once per graph, outside the measured path
	ws := getWorkspace(g.NumNodes())
	bc := make([]float64, g.NumNodes())
	for s := 0; s < 4; s++ { // warm every buffer the iteration touches
		ws.accumulate(g, s, bc)
	}
	s := 0
	allocs := testing.AllocsPerRun(25, func() {
		ws.accumulate(g, s%g.NumNodes(), bc)
		s++
	})
	wsPool.Put(ws)
	if allocs != 0 {
		t.Fatalf("steady-state source accumulation allocates %.1f times per run, want 0", allocs)
	}
	for _, v := range bc {
		if math.IsNaN(v) {
			t.Fatal("NaN leaked into scores")
		}
	}
}

// minSpeedupVsReference is the least speed-up over the predecessor-list
// reference that BenchmarkBetweennessVsReference accepts. The kernel runs
// about 2× faster than the reference at one worker, with or without load
// on the other cores, so the gate fires on a slowdown of about 1.5×.
const minSpeedupVsReference = 1.25

// BenchmarkBetweennessVsReference is the perf gate of the Brandes kernel.
// It times betweennessFrom at one worker against refBetweennessFrom on the
// same 128 sampled sources of a 20k-node Twittersphere graph, in one
// process, so the ratio needs no recorded baseline and holds on any
// machine. Each side takes the best of 5 runs, interleaved so that load
// from other processes hits both alike. The benchmark keeps its own clock
// and ignores b.N (ns/op is the kernel's best run); run it with
// -benchtime 1x.
func BenchmarkBetweennessVsReference(b *testing.B) {
	res, err := gen.Twitter(20000, 2)
	if err != nil {
		b.Fatal(err)
	}
	g := res.Graph
	g.InCSR()
	src := sampleSources(g.NumNodes(), 128, mathx.NewRNG(31))
	timed := func(best *time.Duration, run func() []float64) []float64 {
		start := time.Now()
		out := run()
		if d := time.Since(start); *best == 0 || d < *best {
			*best = d
		}
		return out
	}
	var kernel, ref time.Duration
	var got, want []float64
	for range 5 {
		got = timed(&kernel, func() []float64 { return betweennessFrom(g, src, 1, 1) })
		want = timed(&ref, func() []float64 { return refBetweennessFrom(g, src, 1) })
	}
	equalBits(b, "kernel vs reference", got, want)
	ratio := ref.Seconds() / kernel.Seconds()
	b.ReportMetric(ratio, "ref/kernel")
	b.ReportMetric(float64(kernel.Nanoseconds()), "ns/op")
	if ratio < minSpeedupVsReference {
		b.Fatalf("kernel %v vs reference %v: speed-up %.2f× is below %.2f×",
			kernel, ref, ratio, minSpeedupVsReference)
	}
}
