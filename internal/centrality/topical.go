package centrality

import (
	"elites/internal/graph"
)

// TopicRank is a TwitterRank-style topic-sensitive PageRank (Weng et al.,
// cited in the paper's related work): for each topic, a personalized
// PageRank whose teleportation is restricted to the nodes labelled with
// that topic. The result ranks accounts by topical influence rather than
// raw global popularity.
type TopicRank struct {
	// Scores[t][v] is node v's rank under topic t; each row sums to 1.
	Scores [][]float64
	// Topics is the number of distinct topics.
	Topics int
}

// TopicSensitivePageRank computes per-topic ranks. topicOf labels each node
// with a topic in [0, topics); nodes with labels outside the range are never
// teleported to but still accumulate rank through links.
func TopicSensitivePageRank(g *graph.Digraph, topicOf []int, topics int) (*TopicRank, error) {
	return topicRanks(g, topicOf, topics, maxIter)
}

// topicRanks is TopicSensitivePageRank with each topic's iteration stopped
// after at most iterCap iterations.
func topicRanks(g *graph.Digraph, topicOf []int, topics, iterCap int) (*TopicRank, error) {
	if len(topicOf) != g.NumNodes() {
		return nil, ErrBadParam
	}
	if topics <= 0 {
		return nil, ErrBadParam
	}
	seedsByTopic := make([][]int, topics)
	for v, t := range topicOf {
		if t >= 0 && t < topics {
			seedsByTopic[t] = append(seedsByTopic[t], v)
		}
	}
	// Topics with members run through the lane kernel together; an empty
	// topic keeps a zero row.
	var ranked []int
	var seedSets [][]int
	for t, seeds := range seedsByTopic {
		if len(seeds) > 0 {
			ranked = append(ranked, t)
			seedSets = append(seedSets, seeds)
		}
	}
	tr := &TopicRank{Scores: make([][]float64, topics), Topics: topics}
	for i, scores := range personalizedRanks(g, seedSets, iterCap) {
		tr.Scores[ranked[i]] = scores
	}
	for t, scores := range tr.Scores {
		if scores == nil {
			tr.Scores[t] = make([]float64, g.NumNodes())
		}
	}
	return tr, nil
}

// Top returns the k highest-ranked nodes for a topic.
func (tr *TopicRank) Top(topic, k int) []int {
	if topic < 0 || topic >= tr.Topics {
		return nil
	}
	scores := tr.Scores[topic]
	idx := make([]int, len(scores))
	for i := range idx {
		idx[i] = i
	}
	// Partial selection sort for small k keeps this allocation-light.
	if k > len(idx) {
		k = len(idx)
	}
	for i := 0; i < k; i++ {
		best := i
		for j := i + 1; j < len(idx); j++ {
			if scores[idx[j]] > scores[idx[best]] {
				best = j
			}
		}
		idx[i], idx[best] = idx[best], idx[i]
	}
	return idx[:k]
}

// TopicAffinity reports how concentrated topic t's rank mass is on its own
// members: Σ_{v: topic(v)=t} score_t(v). Values near 1 indicate strong
// topical homophily in the follow structure.
func (tr *TopicRank) TopicAffinity(topic int, topicOf []int) float64 {
	if topic < 0 || topic >= tr.Topics {
		return 0
	}
	s := 0.0
	for v, t := range topicOf {
		if t == topic {
			s += tr.Scores[topic][v]
		}
	}
	return s
}
