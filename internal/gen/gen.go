// Package gen synthesizes directed social networks whose structural
// fingerprints match the populations studied in the paper: the Twitter
// verified-user sub-graph (power-law out-degree tail, reciprocity ≈ 0.34,
// slight dissortativity, a giant SCC holding ~97% of users, mean pairwise
// distance below 3, isolated users and celebrity "sink" accounts) and the
// generic Twittersphere reference of Kwak et al. (no clean power-law
// verdict, reciprocity ≈ 0.22, longer paths).
//
// The real July-2018 crawl is unobtainable, so these generators are the
// dataset substitute: every analysis in the paper is a function of the
// graph, and a graph that reproduces the measured invariants reproduces the
// analyses' shape. The mechanism separates each user's edges into
//
//   - mutual "peer" edges — partner chosen proportionally to the partner's
//     own sociability (drawn out-degree), optionally via triadic closure,
//     added in both directions; and
//   - one-way "fan" edges — target chosen proportionally to a Zipf fame
//     fitness, never reciprocated.
//
// With a fraction φ of each user's degree budget spent on mutual pairs, the
// measured edge reciprocity is 2φ/(1+φ) and out-degrees keep their drawn
// distribution shape (both phases scale a node's degree linearly), which is
// what makes the dials calibratable in closed form.
package gen

import (
	"errors"
	"math"

	"elites/internal/graph"
	"elites/internal/mathx"
)

// ErrConfig reports an invalid generator configuration.
var ErrConfig = errors.New("gen: invalid configuration")

// Role classifies a generated node; the twitter substrate uses roles to
// assign profile archetypes.
type Role uint8

// Node roles.
const (
	// RoleRegular nodes follow and are followed.
	RoleRegular Role = iota
	// RoleIsolated nodes have no edges at all (the paper counts 6,027).
	RoleIsolated
	// RoleCelebritySink nodes follow nobody but are heavily followed —
	// the cores of the paper's attracting components ('@ladbible',
	// '@SriSri', ...).
	RoleCelebritySink
)

// String names the role.
func (r Role) String() string {
	switch r {
	case RoleRegular:
		return "regular"
	case RoleIsolated:
		return "isolated"
	case RoleCelebritySink:
		return "celebrity-sink"
	}
	return "unknown"
}

// Config parameterizes the social-graph engine. The zero value is invalid;
// start from VerifiedDefaults or TwitterDefaults.
type Config struct {
	// N is the number of nodes.
	N int
	// MeanDegree is the target mean drawn out-degree of active nodes
	// before mutual amplification.
	MeanDegree float64
	// TailExponent is the density exponent α of the Pareto out-degree
	// tail; <= 1 disables the tail (lognormal body only).
	TailExponent float64
	// TailFraction is the probability an active node draws its degree
	// from the Pareto tail instead of the lognormal body.
	TailFraction float64
	// TailXminFactor positions the tail cutoff at TailXminFactor ×
	// MeanDegree.
	TailXminFactor float64
	// BodyLogStd is the σ of the lognormal degree body (its median is
	// set from MeanDegree).
	BodyLogStd float64
	// MutualFraction is φ, the share of each node's degree budget spent
	// on mutual pairs; reciprocity ≈ 2φ/(1+φ).
	MutualFraction float64
	// TriadicClosure is the probability a mutual partner is drawn from
	// the node's current two-hop mutual neighborhood instead of globally
	// (the clustering dial).
	TriadicClosure float64
	// CopyProb is the probability a fan target is copied from a mutual
	// friend's fan list ("follow who your friends follow"), the second
	// clustering dial; it also reinforces preferential attachment.
	CopyProb float64
	// FameExponent shapes the Zipf fame fitness for fan-edge targets
	// (larger → more skew, stronger hubs, shorter paths).
	FameExponent float64
	// Communities is the number of topical communities (0 disables the
	// community layer). Real verified users cluster by occupation —
	// journalists follow journalists — which is where most triangle mass
	// lives.
	Communities int
	// CommunityBias is the probability an edge (mutual or fan) is drawn
	// from the node's own community instead of globally.
	CommunityBias float64
	// IsolatedFraction of nodes have no edges.
	IsolatedFraction float64
	// CelebrityFraction of nodes are zero-out-degree sinks occupying the
	// top fame ranks.
	CelebrityFraction float64
	// Seed drives all randomness; identical configs produce identical
	// graphs.
	Seed uint64
}

// VerifiedDefaults returns the configuration calibrated to the paper's
// verified-network fingerprint at n nodes (the paper's own scale is
// n=231,246 with mean degree 342.55; benches default to n=20,000 with the
// degree scaled to keep generation affordable while preserving every
// dimensionless statistic).
func VerifiedDefaults(n int) Config {
	return Config{
		N:          n,
		MeanDegree: 60,
		// Drawn tail exponent. Mutual-amplification noise flattens the
		// finite-size fit slightly while the English-language induced
		// subgraph (binomial edge thinning) steepens it; 3.16 lands the
		// English sub-graph's measured α at the paper's 3.24.
		TailExponent:      3.16,
		TailFraction:      0.05,
		TailXminFactor:    3.0,
		BodyLogStd:        1.1,
		MutualFraction:    0.182, // measured reciprocity ≈ 0.337 after the min-1 mutual clip
		TriadicClosure:    0.75,
		CopyProb:          0.60,
		FameExponent:      0.85,
		Communities:       400,
		CommunityBias:     0.65,
		IsolatedFraction:  0.0261, // 6027/231246
		CelebrityFraction: 0.00028,
		Seed:              1,
	}
}

// TwitterDefaults returns the generic-Twittersphere reference configuration
// (Kwak et al.: reciprocity 22.1%, no out-degree power-law verdict, mean
// separation ≈ 4).
func TwitterDefaults(n int) Config {
	return Config{
		N:                 n,
		MeanDegree:        15,
		TailExponent:      0, // no Pareto tail: lognormal out-degrees
		TailFraction:      0,
		TailXminFactor:    0,
		BodyLogStd:        1.3,
		MutualFraction:    0.106, // measured reciprocity ≈ 0.221
		TriadicClosure:    0.35,
		CopyProb:          0.15,
		FameExponent:      0.45,
		Communities:       200,
		CommunityBias:     0.15,
		IsolatedFraction:  0.01,
		CelebrityFraction: 0,
		Seed:              2,
	}
}

// Result is a generated network with its node roles and drawn degrees.
type Result struct {
	Graph *graph.Digraph
	Roles []Role
	// DrawnDegree is each node's sampled degree budget (0 for isolated
	// and sinks); the twitter substrate reuses it as an activity prior.
	DrawnDegree []int
	// FameRank is each node's rank in the fame fitness (0 = most
	// famous); isolated nodes rank last.
	FameRank []int
}

// Generate runs the engine.
func Generate(cfg Config) (*Result, error) {
	if cfg.N <= 0 || cfg.MeanDegree <= 0 {
		return nil, ErrConfig
	}
	if cfg.MutualFraction < 0 || cfg.MutualFraction >= 1 {
		return nil, ErrConfig
	}
	if cfg.IsolatedFraction < 0 || cfg.CelebrityFraction < 0 ||
		cfg.IsolatedFraction+cfg.CelebrityFraction > 0.5 {
		return nil, ErrConfig
	}
	rng := mathx.NewRNG(cfg.Seed)
	n := cfg.N

	// --- Role assignment ------------------------------------------------
	roles := make([]Role, n)
	perm := rng.Perm(n)
	nIso := int(math.Round(cfg.IsolatedFraction * float64(n)))
	nCel := int(math.Round(cfg.CelebrityFraction * float64(n)))
	for i := 0; i < nIso; i++ {
		roles[perm[i]] = RoleIsolated
	}
	for i := nIso; i < nIso+nCel; i++ {
		roles[perm[i]] = RoleCelebritySink
	}

	// --- Fame fitness (fan-edge attractiveness) -------------------------
	// Zipf over the non-isolated nodes; celebrity sinks take the top
	// ranks, shuffled regular nodes the rest.
	fame := make([]float64, n)
	fameRank := make([]int, n)
	var active []int // non-isolated nodes
	for v := 0; v < n; v++ {
		if roles[v] != RoleIsolated {
			active = append(active, v)
		}
		fameRank[v] = n - 1 // isolated default: last
	}
	// Order: sinks first (most famous), then regular in random order.
	ordered := make([]int, 0, len(active))
	for _, v := range active {
		if roles[v] == RoleCelebritySink {
			ordered = append(ordered, v)
		}
	}
	regStart := len(ordered)
	for _, v := range active {
		if roles[v] == RoleRegular {
			ordered = append(ordered, v)
		}
	}
	rng.Shuffle(len(ordered)-regStart, func(i, j int) {
		ordered[regStart+i], ordered[regStart+j] = ordered[regStart+j], ordered[regStart+i]
	})
	for rank, v := range ordered {
		fame[v] = math.Pow(float64(rank+1), -cfg.FameExponent)
		fameRank[v] = rank
	}
	fameSampler := mathx.NewWeightedSampler(fame)

	// --- Degree budgets ---------------------------------------------------
	// Lognormal body with median MeanDegree/2 plus optional Pareto tail.
	drawn := make([]int, n)
	bodyMu := math.Log(cfg.MeanDegree / 2)
	xminTail := cfg.TailXminFactor * cfg.MeanDegree
	var totalDrawn float64
	for _, v := range active {
		if roles[v] != RoleRegular {
			continue
		}
		var d float64
		if cfg.TailExponent > 1 && rng.Bool(cfg.TailFraction) {
			d = rng.Pareto(xminTail, cfg.TailExponent)
		} else {
			d = rng.LogNormal(bodyMu, cfg.BodyLogStd)
			// Keep the body strictly below the Pareto cutoff so the
			// tail region stays a pure power law (body leakage above
			// xmin bends the tail and fails the CSN goodness-of-fit).
			if cfg.TailExponent > 1 {
				for attempt := 0; d >= xminTail && attempt < 20; attempt++ {
					d = rng.LogNormal(bodyMu, cfg.BodyLogStd)
				}
				if d >= xminTail {
					d = xminTail * 0.9
				}
			}
		}
		if d < 1 {
			d = 1
		}
		// Cap at n/4 so one node cannot absorb the whole graph at
		// small n.
		if d > float64(n)/4 {
			d = float64(n) / 4
		}
		drawn[v] = int(d)
		totalDrawn += d
	}

	// Sociability sampler for mutual partners: weight ∝ drawn degree,
	// which keeps out-degree distribution shape under mutual
	// amplification.
	soc := make([]float64, n)
	for v := 0; v < n; v++ {
		if roles[v] == RoleRegular {
			soc[v] = float64(drawn[v])
		}
	}
	socSampler := mathx.NewWeightedSampler(soc)

	// --- Community layer --------------------------------------------------
	// Per-community fame and sociability samplers over member indices.
	var comm []int
	var commFame, commSoc []*mathx.WeightedSampler
	var commMembers [][]int
	if cfg.Communities > 1 && cfg.CommunityBias > 0 {
		c := cfg.Communities
		comm = make([]int, n)
		commMembers = make([][]int, c)
		for v := 0; v < n; v++ {
			comm[v] = rng.Intn(c)
			commMembers[comm[v]] = append(commMembers[comm[v]], v)
		}
		commFame = make([]*mathx.WeightedSampler, c)
		commSoc = make([]*mathx.WeightedSampler, c)
		for ci := 0; ci < c; ci++ {
			members := commMembers[ci]
			if len(members) == 0 {
				continue
			}
			wf := make([]float64, len(members))
			ws := make([]float64, len(members))
			anyF, anyS := false, false
			for i, v := range members {
				wf[i] = fame[v]
				ws[i] = soc[v]
				anyF = anyF || wf[i] > 0
				anyS = anyS || ws[i] > 0
			}
			if anyF {
				commFame[ci] = mathx.NewWeightedSampler(wf)
			}
			if anyS {
				commSoc[ci] = mathx.NewWeightedSampler(ws)
			}
		}
	}
	sampleFame := func(u int) int {
		if comm != nil && rng.Bool(cfg.CommunityBias) {
			if s := commFame[comm[u]]; s != nil {
				return commMembers[comm[u]][s.Sample(rng)]
			}
		}
		return fameSampler.Sample(rng)
	}
	sampleSoc := func(u int) int {
		if comm != nil && rng.Bool(cfg.CommunityBias) {
			if s := commSoc[comm[u]]; s != nil {
				return commMembers[comm[u]][s.Sample(rng)]
			}
		}
		return socSampler.Sample(rng)
	}

	// --- Edge generation --------------------------------------------------
	b := graph.NewBuilder(n)
	// mutual adjacency for triadic closure lookups; fan adjacency for the
	// copying mechanism
	mutual := make([][]int32, n)
	fanAdj := make([][]int32, n)
	addMutual := func(u, v int) {
		b.AddEdge(u, v)
		b.AddEdge(v, u)
		mutual[u] = append(mutual[u], int32(v))
		mutual[v] = append(mutual[v], int32(u))
	}
	hasMutual := func(u, v int) bool {
		row := mutual[u]
		if len(row) > len(mutual[v]) {
			row = mutual[v]
			u, v = v, u
		}
		for _, w := range row {
			if w == int32(v) {
				return true
			}
		}
		return false
	}
	for _, u := range active {
		if roles[u] != RoleRegular {
			continue
		}
		d := drawn[u]
		nMutual := int(math.Round(cfg.MutualFraction * float64(d)))
		if d >= 1 && nMutual < 1 {
			nMutual = 1
		}
		nFan := d - nMutual
		// Mutual pairs.
		for k := 0; k < nMutual; k++ {
			var v int
			found := false
			for attempt := 0; attempt < 8; attempt++ {
				if cfg.TriadicClosure > 0 && len(mutual[u]) > 0 && rng.Bool(cfg.TriadicClosure) {
					// friend-of-friend
					w := mutual[u][rng.Intn(len(mutual[u]))]
					if len(mutual[w]) == 0 {
						continue
					}
					v = int(mutual[w][rng.Intn(len(mutual[w]))])
				} else {
					v = sampleSoc(u)
				}
				if v != u && roles[v] == RoleRegular && !hasMutual(u, v) {
					found = true
					break
				}
			}
			if found {
				addMutual(u, v)
			}
		}
		// Fan edges: sample distinct targets (duplicates would collapse
		// in Build and compress the degree tail, steepening the fitted
		// exponent), with a bounded retry so hub saturation cannot
		// stall generation.
		var seen map[int32]bool
		if nFan > 32 {
			seen = make(map[int32]bool, nFan+len(mutual[u]))
			for _, w := range mutual[u] {
				seen[w] = true
			}
		}
		for k := 0; k < nFan; k++ {
			for attempt := 0; attempt < 16; attempt++ {
				var v int
				if cfg.CopyProb > 0 && len(mutual[u]) > 0 && rng.Bool(cfg.CopyProb) {
					// Copy a fan target from a mutual friend,
					// closing the triangle u–friend–target.
					w := mutual[u][rng.Intn(len(mutual[u]))]
					if len(fanAdj[w]) == 0 {
						v = sampleFame(u)
					} else {
						v = int(fanAdj[w][rng.Intn(len(fanAdj[w]))])
					}
				} else {
					v = sampleFame(u)
				}
				if v == u {
					continue
				}
				if seen != nil {
					if seen[int32(v)] {
						continue
					}
					seen[int32(v)] = true
				}
				b.AddEdge(u, v)
				fanAdj[u] = append(fanAdj[u], int32(v))
				break
			}
		}
	}
	g := b.Build()
	return &Result{Graph: g, Roles: roles, DrawnDegree: drawn, FameRank: fameRank}, nil
}

// Verified generates the calibrated verified-network instance at n nodes
// with the given seed.
func Verified(n int, seed uint64) (*Result, error) {
	cfg := VerifiedDefaults(n)
	cfg.Seed = seed
	return Generate(cfg)
}

// Twitter generates the generic-Twittersphere reference instance.
func Twitter(n int, seed uint64) (*Result, error) {
	cfg := TwitterDefaults(n)
	cfg.Seed = seed
	return Generate(cfg)
}

// --- Classic baselines ----------------------------------------------------

// ErdosRenyi generates a directed G(n, p) graph.
func ErdosRenyi(n int, p float64, seed uint64) *graph.Digraph {
	rng := mathx.NewRNG(seed)
	b := graph.NewBuilder(n)
	// Geometric skipping for sparse p.
	if p <= 0 {
		return b.Build()
	}
	if p >= 1 {
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if u != v {
					b.AddEdge(u, v)
				}
			}
		}
		return b.Build()
	}
	logq := math.Log(1 - p)
	total := int64(n) * int64(n)
	var idx int64 = -1
	for {
		skip := int64(math.Floor(math.Log(rng.Float64Open()) / logq))
		idx += skip + 1
		if idx >= total {
			break
		}
		u := int(idx / int64(n))
		v := int(idx % int64(n))
		if u != v {
			b.AddEdge(u, v)
		}
	}
	return b.Build()
}

// BarabasiAlbert generates a preferential-attachment graph: each new node
// attaches m directed edges to existing nodes chosen proportionally to
// in-degree+1, and each target links back with probability backP (0 gives a
// DAG, 1 an undirected-style BA graph).
func BarabasiAlbert(n, m int, backP float64, seed uint64) *graph.Digraph {
	if m < 1 {
		m = 1
	}
	rng := mathx.NewRNG(seed)
	b := graph.NewBuilder(n)
	// Repeated-nodes list trick: sampling uniformly from the target list
	// implements in-degree+1 preferential attachment.
	targets := make([]int32, 0, 2*n*m)
	for v := 0; v < n && v < m+1; v++ {
		targets = append(targets, int32(v))
	}
	for u := m + 1; u < n; u++ {
		seen := map[int32]bool{}
		for k := 0; k < m && len(seen) < u; k++ {
			var v int32
			for attempt := 0; attempt < 16; attempt++ {
				v = targets[rng.Intn(len(targets))]
				if int(v) != u && !seen[v] {
					break
				}
			}
			if int(v) == u || seen[v] {
				continue
			}
			seen[v] = true
			b.AddEdge(u, int(v))
			targets = append(targets, v)
			if backP > 0 && rng.Bool(backP) {
				b.AddEdge(int(v), u)
				targets = append(targets, int32(u))
			}
		}
		targets = append(targets, int32(u))
	}
	return b.Build()
}

// WattsStrogatz generates a directed small-world ring: each node points at
// its k nearest clockwise neighbors, each edge rewired to a uniform target
// with probability beta.
func WattsStrogatz(n, k int, beta float64, seed uint64) *graph.Digraph {
	rng := mathx.NewRNG(seed)
	b := graph.NewBuilder(n)
	for u := 0; u < n; u++ {
		for j := 1; j <= k; j++ {
			v := (u + j) % n
			if beta > 0 && rng.Bool(beta) {
				for attempt := 0; attempt < 8; attempt++ {
					w := rng.Intn(n)
					if w != u {
						v = w
						break
					}
				}
			}
			if v != u {
				b.AddEdge(u, v)
			}
		}
	}
	return b.Build()
}

// ConfigurationModel generates a directed graph with (approximately) the
// given out- and in-degree sequences by random stub matching; parallel stubs
// collapse and self-loops drop, so heavy-tailed sequences lose a small
// fraction of edges. The sequences must have equal sums.
func ConfigurationModel(outDeg, inDeg []int, seed uint64) (*graph.Digraph, error) {
	if len(outDeg) != len(inDeg) {
		return nil, ErrConfig
	}
	var so, si int
	for _, d := range outDeg {
		if d < 0 {
			return nil, ErrConfig
		}
		so += d
	}
	for _, d := range inDeg {
		if d < 0 {
			return nil, ErrConfig
		}
		si += d
	}
	if so != si {
		return nil, ErrConfig
	}
	rng := mathx.NewRNG(seed)
	n := len(outDeg)
	outStubs := make([]int32, 0, so)
	inStubs := make([]int32, 0, si)
	for v := 0; v < n; v++ {
		for i := 0; i < outDeg[v]; i++ {
			outStubs = append(outStubs, int32(v))
		}
		for i := 0; i < inDeg[v]; i++ {
			inStubs = append(inStubs, int32(v))
		}
	}
	rng.Shuffle(len(inStubs), func(i, j int) {
		inStubs[i], inStubs[j] = inStubs[j], inStubs[i]
	})
	b := graph.NewBuilder(n)
	for i, u := range outStubs {
		v := inStubs[i]
		if u != v {
			b.AddEdge(int(u), int(v))
		}
	}
	return b.Build(), nil
}
