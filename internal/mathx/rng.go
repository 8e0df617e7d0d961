package mathx

import "math"

// RNG is a deterministic pseudo-random number generator based on
// xoshiro256** (Blackman & Vigna). Every stochastic component in the library
// takes an explicit *RNG so that datasets, generators and bootstrap
// procedures are exactly reproducible from a seed. It intentionally does not
// implement math/rand.Source so that callers cannot accidentally mix in
// global, unseeded randomness.
type RNG struct {
	s [4]uint64
	// cached spare normal deviate for the Box–Muller polar method.
	hasSpare bool
	spare    float64
}

// NewRNG returns a generator seeded from a single 64-bit seed via SplitMix64,
// which guarantees a well-distributed initial state even for small seeds.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	r.Reseed(seed)
	return r
}

// Reseed resets r in place to the state NewRNG(seed) would construct,
// discarding any cached normal deviate. It lets hot loops (the bootstrap's
// per-replicate derived streams) reuse one generator instead of allocating a
// fresh one per item.
func (r *RNG) Reseed(seed uint64) {
	sm := seed
	for i := range r.s {
		sm += 0x9e3779b97f4a7c15
		r.s[i] = splitmix64(sm)
	}
	// A state of all zeros is invalid for xoshiro; SplitMix64 cannot
	// produce four consecutive zeros, but guard anyway.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	r.hasSpare = false
	r.spare = 0
}

// splitmix64 is the SplitMix64 finalizer: a bijective avalanche mix used for
// seeding and stream derivation.
func splitmix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Derive returns an independent generator keyed by label: a pure function of
// this generator's current state and the label's bytes, mixed SplitMix64-style.
// It does not advance this generator, so derivations commute — any set of
// Derive calls yields the same streams regardless of order or interleaving
// with each other. The concurrent analysis pipeline relies on this to hand
// every stage its own reproducible randomness whatever the schedule.
func (r *RNG) Derive(label string) *RNG {
	out := &RNG{}
	r.DeriveInto(out, []byte(label))
	return out
}

// DeriveInto reseeds dst to the exact stream Derive(string(label)) would
// return, without allocating. It exists for per-item derivations inside
// steady-state hot loops (one bootstrap replicate per label); dst may be r
// itself.
func (r *RNG) DeriveInto(dst *RNG, label []byte) {
	const fnvOffset, fnvPrime = 14695981039346656037, 1099511628211
	h := uint64(fnvOffset)
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= fnvPrime
	}
	dst.Reseed(r.deriveSeed(h))
}

// deriveSeed folds a label hash into this generator's state, SplitMix64-style.
func (r *RNG) deriveSeed(h uint64) uint64 {
	seed := h
	for _, s := range r.s {
		seed = splitmix64(seed + 0x9e3779b97f4a7c15 + s)
	}
	return seed
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("mathx: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded generation.
	v := r.Uint64()
	bound := uint64(n)
	hi, lo := mul64(v, bound)
	if lo < bound {
		threshold := -bound % bound
		for lo < threshold {
			v = r.Uint64()
			hi, lo = mul64(v, bound)
		}
	}
	return int(hi)
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	a0, a1 := a&mask32, a>>32
	b0, b1 := b&mask32, b>>32
	t := a1*b0 + (a0*b0)>>32
	w1 := t & mask32
	w2 := t >> 32
	w1 += a0 * b1
	hi = a1*b1 + w2 + (w1 >> 32)
	lo = a * b
	return
}

// Float64 returns a uniform float64 in [0, 1) with 53 bits of precision.
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Float64Open returns a uniform float64 in (0, 1), never exactly zero, which
// keeps log() and quantile transforms finite.
func (r *RNG) Float64Open() float64 {
	for {
		v := r.Float64()
		if v > 0 {
			return v
		}
	}
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool { return r.Float64() < p }

// Normal returns a standard normal deviate by the Marsaglia polar method.
func (r *RNG) Normal() float64 {
	if r.hasSpare {
		r.hasSpare = false
		return r.spare
	}
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		m := math.Sqrt(-2 * math.Log(s) / s)
		r.spare = v * m
		r.hasSpare = true
		return u * m
	}
}

// LogNormal returns a lognormal deviate with location mu and scale sigma.
func (r *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*r.Normal())
}

// Exponential returns an exponential deviate with rate lambda.
func (r *RNG) Exponential(lambda float64) float64 {
	return -math.Log(r.Float64Open()) / lambda
}

// Pareto returns a continuous Pareto deviate with minimum xmin and density
// exponent alpha (p(x) ∝ x^-alpha for x >= xmin, alpha > 1). The tail index
// of the CCDF is alpha-1.
func (r *RNG) Pareto(xmin, alpha float64) float64 {
	return xmin * math.Pow(r.Float64Open(), -1/(alpha-1))
}

// ParetoInt returns a discrete power-law deviate with support {xmin, xmin+1,
// ...} and density exponent alpha, by the continuous-approximation method of
// Clauset et al. (2009), appendix D: round(x - 0.5) of a continuous Pareto
// with xmin - 0.5.
func (r *RNG) ParetoInt(xmin int, alpha float64) int {
	x := r.Pareto(float64(xmin)-0.5, alpha)
	v := int(math.Floor(x + 0.5))
	if v < xmin {
		v = xmin
	}
	return v
}

// Shuffle permutes the first n elements using the provided swap function
// (Fisher–Yates).
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(n, func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// ZipfSampler draws from a bounded Zipf distribution over {1..n} with
// exponent s via binary search on the cumulative weights.
type ZipfSampler struct {
	cum []float64
}

// NewZipfSampler precomputes the cumulative distribution.
func NewZipfSampler(n int, s float64) *ZipfSampler {
	cum := make([]float64, n)
	total := 0.0
	for k := 1; k <= n; k++ {
		total += math.Pow(float64(k), -s)
		cum[k-1] = total
	}
	for i := range cum {
		cum[i] /= total
	}
	return &ZipfSampler{cum: cum}
}

// Sample returns a value in {1..n}.
func (z *ZipfSampler) Sample(r *RNG) int {
	u := r.Float64()
	lo, hi := 0, len(z.cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cum[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo + 1
}

// WeightedSampler draws indices proportionally to a fixed weight vector using
// Walker's alias method: O(n) build, O(1) sample. The network generators use
// it for preferential attachment over snapshots of the in-degree vector.
type WeightedSampler struct {
	prob  []float64
	alias []int
}

// NewWeightedSampler builds an alias table for the given non-negative
// weights. Zero-weight entries are never returned. It panics if all weights
// are zero or any weight is negative.
func NewWeightedSampler(weights []float64) *WeightedSampler {
	n := len(weights)
	total := 0.0
	for _, w := range weights {
		if w < 0 || math.IsNaN(w) {
			panic("mathx: negative or NaN weight")
		}
		total += w
	}
	if total <= 0 {
		panic("mathx: all weights zero")
	}
	prob := make([]float64, n)
	alias := make([]int, n)
	scaled := make([]float64, n)
	small := make([]int, 0, n)
	large := make([]int, 0, n)
	for i, w := range weights {
		scaled[i] = w * float64(n) / total
		if scaled[i] < 1 {
			small = append(small, i)
		} else {
			large = append(large, i)
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		large = large[:len(large)-1]
		prob[s] = scaled[s]
		alias[s] = l
		scaled[l] = scaled[l] + scaled[s] - 1
		if scaled[l] < 1 {
			small = append(small, l)
		} else {
			large = append(large, l)
		}
	}
	for _, i := range large {
		prob[i] = 1
		alias[i] = i
	}
	for _, i := range small {
		prob[i] = 1
		alias[i] = i
	}
	return &WeightedSampler{prob: prob, alias: alias}
}

// Sample returns an index in [0, n) with probability proportional to its
// weight.
func (w *WeightedSampler) Sample(r *RNG) int {
	i := r.Intn(len(w.prob))
	if r.Float64() < w.prob[i] {
		return i
	}
	return w.alias[i]
}
