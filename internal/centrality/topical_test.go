package centrality

import (
	"math"
	"testing"

	"elites/internal/graph"
	"elites/internal/mathx"
)

// twoCommunityGraph builds two dense communities with sparse cross links.
func twoCommunityGraph(rng *mathx.RNG, size int) (*graph.Digraph, []int) {
	n := 2 * size
	b := graph.NewBuilder(n)
	topics := make([]int, n)
	for v := 0; v < n; v++ {
		if v >= size {
			topics[v] = 1
		}
	}
	for v := 0; v < n; v++ {
		base := 0
		if topics[v] == 1 {
			base = size
		}
		for k := 0; k < 6; k++ {
			u := base + rng.Intn(size)
			if u != v {
				b.AddEdge(v, u)
			}
		}
		// Sparse cross-community edge.
		if rng.Bool(0.1) {
			u := (base + size + rng.Intn(size)) % n
			if u != v {
				b.AddEdge(v, u)
			}
		}
	}
	return b.Build(), topics
}

func TestTopicSensitivePageRankConcentrates(t *testing.T) {
	rng := mathx.NewRNG(1)
	g, topics := twoCommunityGraph(rng, 150)
	tr, err := TopicSensitivePageRank(g, topics, 2)
	if err != nil {
		t.Fatal(err)
	}
	for topic := 0; topic < 2; topic++ {
		aff := tr.TopicAffinity(topic, topics)
		if aff < 0.75 {
			t.Fatalf("topic %d affinity = %v, want high", topic, aff)
		}
		// Scores sum to 1.
		sum := 0.0
		for _, s := range tr.Scores[topic] {
			sum += s
		}
		if math.Abs(sum-1) > 1e-6 {
			t.Fatalf("topic %d scores sum to %v", topic, sum)
		}
	}
}

func TestTopicRankTop(t *testing.T) {
	rng := mathx.NewRNG(2)
	g, topics := twoCommunityGraph(rng, 100)
	tr, err := TopicSensitivePageRank(g, topics, 2)
	if err != nil {
		t.Fatal(err)
	}
	top := tr.Top(0, 10)
	if len(top) != 10 {
		t.Fatalf("top = %d entries", len(top))
	}
	// Top nodes for topic 0 should mostly belong to community 0.
	inComm := 0
	for _, v := range top {
		if topics[v] == 0 {
			inComm++
		}
	}
	if inComm < 8 {
		t.Fatalf("only %d/10 top nodes in their own community", inComm)
	}
	// Descending order.
	for i := 1; i < len(top); i++ {
		if tr.Scores[0][top[i]] > tr.Scores[0][top[i-1]] {
			t.Fatal("Top not sorted")
		}
	}
	if tr.Top(5, 3) != nil {
		t.Fatal("out-of-range topic should return nil")
	}
}

func TestTopicSensitivePageRankValidation(t *testing.T) {
	g := graph.FromEdges(3, [][2]int{{0, 1}})
	if _, err := TopicSensitivePageRank(g, []int{0}, 1); err != ErrBadParam {
		t.Fatal("label length mismatch should error")
	}
	if _, err := TopicSensitivePageRank(g, []int{0, 0, 0}, 0); err != ErrBadParam {
		t.Fatal("zero topics should error")
	}
	// A topic with no members yields a zero row, not an error.
	tr, err := TopicSensitivePageRank(g, []int{0, 0, 0}, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range tr.Scores[1] {
		if s != 0 {
			t.Fatal("empty topic should have zero scores")
		}
	}
}
