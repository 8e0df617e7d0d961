package centrality

// Test-only references for the PageRank kernels: the one-vector power
// iterations as they were written before the shares were hoisted and the
// teleport vectors blocked into lanes — one division per in-edge, one
// personalized run per topic. The kernels must match them bit for bit.

import (
	"math"
	"testing"

	"elites/internal/graph"
	"elites/internal/mathx"
)

// refPageRank is the global power iteration with rank[u]/outdeg[u]
// divided on every in-edge, stopped after at most iterCap iterations.
func refPageRank(g *graph.Digraph, iterCap int) []float64 {
	n := g.NumNodes()
	rev := g.Reverse()
	outDeg := g.OutDegrees()
	rank := make([]float64, n)
	next := make([]float64, n)
	for i := range rank {
		rank[i] = 1 / float64(n)
	}
	var dangling []int
	for u := 0; u < n; u++ {
		if outDeg[u] == 0 {
			dangling = append(dangling, u)
		}
	}
	for iter := 0; iter < iterCap; iter++ {
		danglingMass := 0.0
		for _, u := range dangling {
			danglingMass += rank[u]
		}
		base := (1-damping)/float64(n) + damping*danglingMass/float64(n)
		for v := 0; v < n; v++ {
			s := 0.0
			for _, u := range rev.OutNeighbors(v) {
				s += rank[u] / float64(outDeg[u])
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

// refPersonalized is the one-seed-set personalized iteration. It also
// reports how many iterations ran and whether the last one converged.
func refPersonalized(g *graph.Digraph, seeds []int, iterCap int) (rank []float64, iters int, converged bool) {
	n := g.NumNodes()
	tele := make([]float64, n)
	for _, s := range seeds {
		tele[s] += 1 / float64(len(seeds))
	}
	rev := g.Reverse()
	outDeg := g.OutDegrees()
	rank = make([]float64, n)
	copy(rank, tele)
	next := make([]float64, n)
	var dangling []int
	for u := 0; u < n; u++ {
		if outDeg[u] == 0 {
			dangling = append(dangling, u)
		}
	}
	for iter := 0; iter < iterCap; iter++ {
		danglingMass := 0.0
		for _, u := range dangling {
			danglingMass += rank[u]
		}
		delta := 0.0
		for v := 0; v < n; v++ {
			s := 0.0
			for _, u := range rev.OutNeighbors(v) {
				s += rank[u] / float64(outDeg[u])
			}
			nv := (1-damping)*tele[v] + damping*(s+danglingMass*tele[v])
			delta += math.Abs(nv - rank[v])
			next[v] = nv
		}
		rank, next = next, rank
		if delta < tol {
			return rank, iter + 1, true
		}
	}
	return rank, iterCap, false
}

// danglingDigraph is a random digraph in which about a fifth of the nodes
// have no out-edges.
func danglingDigraph(rng *mathx.RNG, n int, p float64) *graph.Digraph {
	b := graph.NewBuilder(n)
	for u := 0; u < n; u++ {
		if rng.Bool(0.2) {
			continue
		}
		for v := 0; v < n; v++ {
			if u != v && rng.Bool(p) {
				b.AddEdge(u, v)
			}
		}
	}
	return b.Build()
}

func assertBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d entries, reference %d", what, len(got), len(want))
	}
	for v := range want {
		if math.Float64bits(got[v]) != math.Float64bits(want[v]) {
			t.Fatalf("%s: node %d = %v, reference %v", what, v, got[v], want[v])
		}
	}
}

func TestPageRankMatchesReference(t *testing.T) {
	rng := mathx.NewRNG(31)
	for _, n := range []int{1, 2, 17, 250} {
		g := danglingDigraph(rng, n, 0.05)
		for _, iterCap := range []int{maxIter, 7} {
			assertBits(t, "PageRank", pageRank(g, iterCap), refPageRank(g, iterCap))
		}
	}
}

// TestLaneKernelMatchesPerTopicLoop runs topic-sensitive PageRank at every
// topic count from 1 to 9 (so full and partial 4-lane blocks), with an
// empty topic, labels outside [0, topics) and dangling nodes, and checks
// every row against one reference run per topic. The default cap lets the
// lanes of a block converge on different iterations; a cap just under the
// slowest topic's iteration count makes that topic stop at the cap while
// the others converge.
func TestLaneKernelMatchesPerTopicLoop(t *testing.T) {
	rng := mathx.NewRNG(23)
	const n = 300
	g := danglingDigraph(rng, n, 0.03)
	sawSpread, sawCap := false, false
	for topics := 1; topics <= 9; topics++ {
		topicOf := make([]int, n)
		for v := range topicOf {
			// Labels -1 and topics are out of range; topic 1 stays empty.
			l := rng.Intn(topics+2) - 1
			if topics >= 2 && l == 1 {
				l = topics + 3
			}
			topicOf[v] = l
		}
		seeds := make([][]int, topics)
		for v, l := range topicOf {
			if l >= 0 && l < topics {
				seeds[l] = append(seeds[l], v)
			}
		}
		slowest, fastest := 0, math.MaxInt
		for _, s := range seeds {
			if len(s) == 0 {
				continue
			}
			_, iters, _ := refPersonalized(g, s, maxIter)
			slowest, fastest = max(slowest, iters), min(fastest, iters)
		}
		sawSpread = sawSpread || slowest > fastest
		caps := []int{maxIter}
		if slowest > fastest {
			caps = append(caps, slowest-1)
		}
		for _, iterCap := range caps {
			tr, err := topicRanks(g, topicOf, topics, iterCap)
			if err != nil {
				t.Fatal(err)
			}
			capped := 0
			for topic, s := range seeds {
				if len(s) == 0 {
					assertBits(t, "empty topic", tr.Scores[topic], make([]float64, n))
					continue
				}
				want, _, converged := refPersonalized(g, s, iterCap)
				if !converged {
					capped++
				}
				assertBits(t, "topic row", tr.Scores[topic], want)
			}
			sawCap = sawCap || (capped > 0 && iterCap != maxIter)
		}
	}
	if !sawSpread || !sawCap {
		t.Fatalf("cases not exercised: convergence spread %v, iteration cap %v", sawSpread, sawCap)
	}
}

func TestLaneKernelPersonalizedMatchesLoop(t *testing.T) {
	g := danglingDigraph(mathx.NewRNG(41), 120, 0.05)
	for _, seeds := range [][]int{{0}, {3, 3, 7, 11, 3}, {119, 5, 5}} {
		got, err := PersonalizedPageRank(g, seeds)
		if err != nil {
			t.Fatal(err)
		}
		want, _, _ := refPersonalized(g, seeds, maxIter)
		assertBits(t, "PersonalizedPageRank", got, want)
	}
}
