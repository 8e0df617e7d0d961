// Package features computes the per-user feature matrix behind the related
// work's verification predictor ("What sets Verified Users apart?",
// arXiv:1903.04879): for every account, the structural signals the paper's
// whole-network battery measures in aggregate — in/out degree, the
// follower–following ratio, mutual-core membership, betweenness and
// eigenvector-centrality percentiles, the ego clustering coefficient and
// power-law tail membership — plus a deterministic logistic scorer that
// classifies accounts as elite-, bot- or regular-shaped.
//
// The matrix is computed once per dataset (Compute), sharded row-major into
// fixed-width fragments (ShardRows) that are filled via the shared worker
// pool and stored through internal/cache under a dedicated codec version
// (codec.go), so serving layers answer per-user feature requests from
// precomputed shards without touching the pipeline. The determinism
// contract of the rest of the repo holds here too: the matrix is
// bit-identical at every worker budget (fixed shard layout, the battery's
// shared "centrality" stream for the sampled betweenness, a serial
// percentile pass) and so is the trained scorer.
package features

import (
	"math"
	"sort"
	"sync"

	"elites/internal/centrality"
	"elites/internal/graph"
	"elites/internal/mathx"
	"elites/internal/parallel"
	"elites/internal/powerlaw"
	"elites/internal/twitter"
)

// Feature column indices of one matrix row. The order is part of the shard
// codec (bump shardCodecVersion when it changes) and of the scorer's weight
// layout — the column-reorder guard in the scorer tests exists because a
// silent shuffle here would leave both plausible and wrong.
const (
	// FeatOutDegree is the node's out-degree (accounts it follows).
	FeatOutDegree = iota
	// FeatInDegree is the node's in-degree (accounts following it).
	FeatInDegree
	// FeatRatio is the follower–following ratio: Profile.Followers /
	// Profile.Friends when the dataset carries profiles, in-degree /
	// out-degree otherwise. The raw IEEE division is kept: 0/0 is NaN and
	// x/0 is +Inf (JSON views render both as null), which is itself a
	// signal — celebrity sinks follow nobody.
	FeatRatio
	// FeatMutualCore is 1 when the node's core number reaches the §IV-C
	// mutual-core threshold (degeneracy/2, clamped to at least 1), 0
	// otherwise.
	FeatMutualCore
	// FeatBetweennessPct is the node's mid-rank percentile (in [0, 1]) of
	// sampled Brandes betweenness.
	FeatBetweennessPct
	// FeatEigenPct is the node's mid-rank percentile of PageRank, the
	// battery's eigenvector-style centrality.
	FeatEigenPct
	// FeatClustering is the ego clustering coefficient on the undirected
	// projection (triangles over wedges; degree < 2 contributes 0).
	FeatClustering
	// FeatTail is 1 when the node's out-degree falls in the fitted
	// power-law tail (>= the CSN xmin), 0 otherwise (or when no tail fits).
	FeatTail
	// NumFeatures is the row width.
	NumFeatures
)

// featureNames maps columns to their JSON/doc names, in column order.
var featureNames = [NumFeatures]string{
	"out_degree", "in_degree", "follower_following_ratio", "mutual_core",
	"betweenness_pct", "eigen_pct", "clustering", "power_law_tail",
}

// Names returns the feature column names in column order.
func Names() []string {
	out := make([]string, NumFeatures)
	copy(out, featureNames[:])
	return out
}

// Options tunes a feature-matrix computation. The zero value matches the
// core battery's defaults, so a matrix computed standalone is bit-identical
// to one computed through the pipeline with default core.Options.
type Options struct {
	// BetweennessSources is the number of sampled Brandes sources
	// (0 = 256, exact when >= number of nodes).
	BetweennessSources int
	// Seed derives the betweenness sample's "centrality" stream (0 = 1).
	Seed uint64
	// Parallelism is the worker budget for the sharded row fill and the
	// betweenness sources (<= 0 means GOMAXPROCS). It never changes the
	// result and never enters a shard key (core.FeatureStore).
	Parallelism int
}

func (o Options) withDefaults() Options {
	if o.BetweennessSources == 0 {
		o.BetweennessSources = 256
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// Shared is one run's memo of the graph-wide quantities that the battery's
// basic, degree, centrality, categories and mutualcore stages and the
// feature matrix all read. Each accessor computes on first call and hands
// every caller, concurrent ones included, the same read-only value.
// Betweenness samples from core's centrality stage stream, so the report's
// panels and each row's betweenness_pct share one sample (a core test pins
// the name). It is a memo, not pipeline stages, as a cache-hydrated stage
// has no vectors.
type Shared struct {
	PageRank    func() []float64
	Cores       func() *graph.KCoreResult
	Betweenness func() []float64
	DegreeFit   func() (*powerlaw.Fit, error) // discrete fit of out-degrees
	Clustering  func() []float64              // graph.LocalClusteringAll
}

// NewShared builds the memo for g; opts shapes only Betweenness.
func NewShared(g *graph.Digraph, opts Options) *Shared {
	o := opts.withDefaults()
	return &Shared{
		PageRank: sync.OnceValue(func() []float64 { return centrality.PageRank(g) }),
		Cores:    sync.OnceValue(func() *graph.KCoreResult { return graph.KCores(g) }),
		Betweenness: sync.OnceValue(func() []float64 {
			rng := mathx.NewRNG(o.Seed).Derive("centrality")
			return centrality.ApproxBetweennessWorkers(g, o.BetweennessSources, rng, o.Parallelism)
		}),
		DegreeFit:  sync.OnceValues(func() (*powerlaw.Fit, error) { return powerlaw.FitDiscrete(g.OutDegrees()) }),
		Clustering: sync.OnceValue(func() []float64 { return graph.LocalClusteringAll(g, o.Parallelism) }),
	}
}

// Rows is a contiguous row-range fragment of a feature matrix: rows
// [Lo, Lo+Count) of the dataset, row-major. Shards decode into Rows and a
// full Matrix embeds one spanning every row.
type Rows struct {
	// Lo is the first node id covered.
	Lo int
	// Data holds Count×NumFeatures feature values, row-major.
	Data []float64
	// Probs holds Count×NumClasses scorer class probabilities, row-major.
	Probs []float64
	// Class holds each row's argmax class (ClassElite/ClassBot/
	// ClassRegular).
	Class []uint8
}

// Count returns the number of rows covered.
func (r *Rows) Count() int { return len(r.Class) }

// Row returns node u's feature vector (aliases internal storage).
func (r *Rows) Row(u int) []float64 {
	i := u - r.Lo
	return r.Data[i*NumFeatures : (i+1)*NumFeatures]
}

// ProbsRow returns node u's class probabilities (aliases internal storage).
func (r *Rows) ProbsRow(u int) []float64 {
	i := u - r.Lo
	return r.Probs[i*NumClasses : (i+1)*NumClasses]
}

// ClassOf returns node u's argmax class.
func (r *Rows) ClassOf(u int) int { return int(r.Class[u-r.Lo]) }

// Matrix is the full per-dataset feature matrix plus the scalar facts the
// stage summary reports. The embedded Rows spans every node (Lo = 0).
type Matrix struct {
	Rows
	// N is the number of users (rows).
	N int
	// CoreK is the mutual-core threshold used for FeatMutualCore
	// (degeneracy/2, clamped to at least 1).
	CoreK int
	// Degeneracy is the graph's maximum core number.
	Degeneracy int
	// TailXmin is the fitted power-law cutoff behind FeatTail; NaN when no
	// tail fit succeeded (every FeatTail is then 0).
	TailXmin float64
	// TailCount is the number of rows with FeatTail set.
	TailCount int
	// ClassCounts is the number of rows per scorer class.
	ClassCounts [NumClasses]int
}

// RankByOutDegree returns node ids ordered by the serving layer's per-user
// ranking: out-degree descending, node id ascending on ties. byRank[0] is
// rank 1. It is a counting sort: one bucket per out-degree, highest first,
// filled in ascending id order, so ties need no comparison.
func RankByOutDegree(g *graph.Digraph) []int32 {
	outDeg := g.OutDegrees()
	maxDeg := 0
	for _, d := range outDeg {
		maxDeg = max(maxDeg, d)
	}
	// next[d] is the rank slot for the next node of out-degree d.
	next := make([]int, maxDeg+1)
	for _, d := range outDeg {
		next[d]++
	}
	slot := 0
	for d := maxDeg; d >= 0; d-- {
		next[d], slot = slot, slot+next[d]
	}
	byRank := make([]int32, len(outDeg))
	for v, d := range outDeg {
		byRank[next[d]] = int32(v)
		next[d]++
	}
	return byRank
}

// Compute builds the feature matrix for a dataset and scores every row with
// the default scorer. sh must come from NewShared(ds.Graph, opts); nil
// builds a fresh one. The result is bit-identical at every
// Options.Parallelism: the global vectors (betweenness, PageRank, cores,
// clustering, percentiles, the power-law fit) are computed with the repo's
// deterministic kernels, and the row fill shards into fixed ShardRows-wide
// chunks whose layout is independent of the worker count.
func Compute(ds *twitter.Dataset, sh *Shared, opts Options) (*Matrix, error) {
	sc, err := DefaultScorer()
	if err != nil {
		return nil, err
	}
	return computeWith(ds, sh, opts, sc), nil
}

// computeWith is Compute with an explicit scorer; a nil scorer leaves
// Probs/Class zero (the scorer's own training path uses this to avoid
// bootstrapping on itself).
func computeWith(ds *twitter.Dataset, sh *Shared, opts Options, sc *Scorer) *Matrix {
	o := opts.withDefaults()
	g := ds.Graph
	n := g.NumNodes()
	m := &Matrix{
		N: n,
		Rows: Rows{
			Data:  make([]float64, n*NumFeatures),
			Probs: make([]float64, n*NumClasses),
			Class: make([]uint8, n),
		},
		TailXmin: math.NaN(),
	}
	if n == 0 {
		return m
	}
	if sh == nil {
		sh = NewShared(g, o)
	}

	// Global vectors first (degrees, cores, clustering, centrality
	// percentiles, the tail fit); every one of these kernels is
	// deterministic at any worker budget, so the per-row fill below only
	// reads fixed inputs.
	outDeg := g.OutDegrees()
	inDeg := g.InDegrees()
	cores := sh.Cores()
	m.Degeneracy = cores.MaxCore
	m.CoreK = cores.MaxCore / 2
	if m.CoreK < 1 {
		m.CoreK = 1 // core's mutual-core clamp, kept in lockstep
	}
	clus := sh.Clustering()

	bPct := percentiles(sh.Betweenness())
	ePct := percentiles(sh.PageRank())

	xmin := math.NaN()
	if fit, ferr := sh.DegreeFit(); ferr == nil {
		xmin = fit.Xmin
		m.TailXmin = xmin
	}
	profiles := ds.Profiles
	if len(profiles) < n {
		profiles = nil // training graphs carry no profiles; fall back to degrees
	}

	// Row fill: fixed ShardRows-wide chunks (never derived from the worker
	// count) with per-chunk tallies folded in chunk order.
	type chunkTally struct {
		tail    int
		classes [NumClasses]int
	}
	tallies := parallel.ChunkReduce(n, ShardRows, o.Parallelism, func(lo, hi int) chunkTally {
		var t chunkTally
		for u := lo; u < hi; u++ {
			row := m.Data[u*NumFeatures : (u+1)*NumFeatures]
			row[FeatOutDegree] = float64(outDeg[u])
			row[FeatInDegree] = float64(inDeg[u])
			var followers, friends float64
			if profiles != nil {
				followers = float64(profiles[u].Followers)
				friends = float64(profiles[u].Friends)
			} else {
				followers = float64(inDeg[u])
				friends = float64(outDeg[u])
			}
			row[FeatRatio] = followers / friends // 0/0 ⇒ NaN, x/0 ⇒ +Inf, both kept
			if cores.Core[u] >= m.CoreK {
				row[FeatMutualCore] = 1
			}
			row[FeatBetweennessPct] = bPct[u]
			row[FeatEigenPct] = ePct[u]
			row[FeatClustering] = clus[u]
			if !math.IsNaN(xmin) && float64(outDeg[u]) >= xmin {
				row[FeatTail] = 1
				t.tail++
			}
			if sc != nil {
				c := sc.Score(row, m.Probs[u*NumClasses:(u+1)*NumClasses])
				m.Class[u] = uint8(c)
				t.classes[c]++
			}
		}
		return t
	})
	for _, t := range tallies {
		m.TailCount += t.tail
		for c := range t.classes {
			m.ClassCounts[c] += t.classes[c]
		}
	}
	return m
}

// percentiles maps a finite score vector onto mid-rank percentiles in
// [0, 1]: a node's percentile is the average zero-based rank of its score
// among all nodes (ties share their group's mid rank) divided by n−1. A
// single node gets 0 by convention. Ranks and tie counts are integers, so
// the mid rank is exact in float64 and the result is bit-identical to a
// naive pair-counting pass.
func percentiles(s []float64) []float64 {
	n := len(s)
	out := make([]float64, n)
	if n < 2 {
		return out
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		if s[idx[a]] != s[idx[b]] {
			return s[idx[a]] < s[idx[b]]
		}
		return idx[a] < idx[b]
	})
	den := float64(n - 1)
	for i := 0; i < n; {
		j := i + 1
		for j < n && s[idx[j]] == s[idx[i]] {
			j++
		}
		p := (float64(i) + float64(j-1)) / 2 / den
		for k := i; k < j; k++ {
			out[idx[k]] = p
		}
		i = j
	}
	return out
}
