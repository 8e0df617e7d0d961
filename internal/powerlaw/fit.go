// Package powerlaw implements the Clauset–Shalizi–Newman (2009) framework
// for fitting and validating power-law models on empirical data, as used by
// the paper's §IV-B analysis of out-degree and Laplacian-eigenvalue
// distributions. It provides:
//
//   - maximum-likelihood estimation of the exponent α for discrete
//     (Hurwitz-zeta likelihood) and continuous (closed-form) power laws;
//   - selection of the lower cutoff xmin by minimizing the Kolmogorov–
//     Smirnov distance of the fitted tail;
//   - a semiparametric bootstrap goodness-of-fit p-value (p > 0.1 is the
//     conventional "plausible power law" threshold used in the paper),
//     with replicates running concurrently on the shared worker pool from
//     per-replicate derived RNG streams, so the p-value is bit-identical at
//     any worker count;
//   - Vuong likelihood-ratio comparisons against lognormal, exponential
//     and Poisson alternatives fitted to the same tail.
//
// # The fast-path kernel and its numeric contract
//
// One fit scans up to 100 candidate cutoffs over the sorted data; the
// kernel keeps that scan near-linear instead of O(candidates × tail):
//
//   - tail log-sums come from one precomputed suffix-sum pass — logSuf[i] =
//     Σ_{j≥i} ln data[j], accumulated from the largest value down — so every
//     candidate's continuous MLE and discrete Σ ln x are O(1) lookups;
//   - the discrete MLE's Brent search brackets warm around the closed-form
//     continuous estimate on xmin−½ (falling back to the full [1, αmax]
//     range whenever the minimizer pins an interior bracket edge), and every
//     ζ(α, xmin) evaluation goes through a mathx.ZetaCache memo;
//   - the discrete KS statistic walks the tail's distinct values descending
//     through a mathx.ZetaLadder, paying one Euler–Maclaurin anchor per α
//     (plus re-anchors across gaps wider than mathx.ZetaLadderMaxStep)
//     instead of one per distinct value;
//   - bootstrap replicates refit through per-worker reusable scratch
//     (sample buffer, counting-sort path for bounded integer replicates,
//     candidate and suffix-sum buffers, allocation-free derived RNG
//     streams), so the steady-state replicate path allocates nothing.
//
// These choices fix the kernel's floating-point semantics: tail log-sums
// are right-to-left (descending-index) sums, and discrete model CDFs are
// ladder walks anchored per the rule above. The test-only reference
// implementation (reference_test.go) restates the same contract naively —
// recomputing everything per candidate with fresh allocations — and the
// equivalence tests assert the two agree bit for bit, which pins every
// reuse and indexing shortcut in this file.
package powerlaw

import (
	"errors"
	"math"
	"slices"
	"sort"
	"strconv"
	"sync"

	"elites/internal/mathx"
	"elites/internal/parallel"
)

// ErrTooFewPoints indicates not enough tail data to fit (need >= 2 distinct
// values and >= 10 observations above xmin).
var ErrTooFewPoints = errors.New("powerlaw: too few data points")

// fitParams are the settings of one xmin scan. Every fit outside this
// package's tests uses defaultParams; a Fit keeps its own, so bootstrap
// replicates refit the way the observed fit was made.
type fitParams struct {
	// maxXminCandidates caps how many distinct values are scanned as
	// xmin candidates (log-spaced subsample when exceeded).
	maxXminCandidates int
	// minTail is the minimum number of observations that must lie at or
	// above xmin for a candidate to be considered.
	minTail int
	// alphaMax bounds the exponent search.
	alphaMax float64
	// fixedXmin, when > 0, skips the xmin scan and fits the tail at this
	// cutoff.
	fixedXmin float64
}

// defaultParams is the §IV-B setting: up to 100 xmin candidates, tails of
// at least 10 observations, α searched up to 8.
var defaultParams = fitParams{maxXminCandidates: 100, minTail: 10, alphaMax: 8}

// Fit is a fitted power-law model p(x) ∝ x^−α for x ≥ Xmin.
type Fit struct {
	// Discrete records whether the discrete (integer support) or
	// continuous MLE was used.
	Discrete bool
	// Alpha is the density exponent estimate.
	Alpha float64
	// Xmin is the fitted lower cutoff of power-law behaviour.
	Xmin float64
	// KS is the Kolmogorov–Smirnov distance between the empirical tail
	// CDF and the fitted CDF.
	KS float64
	// NTail is the number of observations at or above Xmin.
	NTail int
	// N is the total number of observations supplied.
	N int
	// LogLik is the tail log-likelihood at the MLE.
	LogLik float64
	// AlphaStdErr is the asymptotic standard error (α−1)/√n_tail.
	AlphaStdErr float64

	sorted []float64 // full sorted data, ascending
	logSuf []float64 // suffix sums of ln(sorted): logSuf[i] = Σ_{j≥i} ln sorted[j]
	params fitParams
}

// tailStart returns the index of the first observation at or above Xmin.
func (f *Fit) tailStart() int { return sort.SearchFloat64s(f.sorted, f.Xmin) }

// tailView returns the tail as a view into the fit's sorted data — no copy.
// Callers must not mutate it; it is how the bootstrap and the Vuong
// comparisons share one tail instead of re-materializing it per use.
func (f *Fit) tailView() []float64 { return f.sorted[f.tailStart():] }

// tailLogSum returns Σ ln x over sorted[i:]. A fitted value reads the
// kernel's suffix sums; a fit decoded from the result cache carries none
// and takes the fallback on purpose: one O(tail) pass per Vuong
// alternative, summed in the same descending order, so the bits are
// identical and a decode pays for no table.
func (f *Fit) tailLogSum(i int) float64 {
	if f.logSuf != nil {
		return f.logSuf[i]
	}
	s := 0.0
	for j := len(f.sorted) - 1; j >= i; j-- {
		s += math.Log(f.sorted[j])
	}
	return s
}

// FitDiscrete fits a discrete power law to integer-valued data (degrees,
// counts). Zero and negative values are ignored (a node of degree zero
// cannot participate in a power-law tail).
func FitDiscrete(xs []int) (*Fit, error) { return fitDiscrete(xs, defaultParams) }

func fitDiscrete(xs []int, p fitParams) (*Fit, error) {
	data := make([]float64, 0, len(xs))
	for _, x := range xs {
		if x > 0 {
			data = append(data, float64(x))
		}
	}
	return fit(data, true, p)
}

// FitContinuous fits a continuous power law to positive real data
// (eigenvalues). Non-positive values are ignored.
func FitContinuous(xs []float64) (*Fit, error) { return fitContinuous(xs, defaultParams) }

func fitContinuous(xs []float64, p fitParams) (*Fit, error) {
	data := make([]float64, 0, len(xs))
	for _, x := range xs {
		if x > 0 && !math.IsNaN(x) && !math.IsInf(x, 0) {
			data = append(data, x)
		}
	}
	return fit(data, false, p)
}

func fit(data []float64, discrete bool, p fitParams) (*Fit, error) {
	if len(data) < p.minTail {
		return nil, ErrTooFewPoints
	}
	// slices.Sort (pdqsort, no interface boxing) — replicate data is
	// NaN-free by construction, so the order matches sort.Float64s.
	slices.Sort(data)
	var fc fitCore
	fc.prepare(data)
	res, err := fc.run(data, discrete, p)
	if err != nil {
		return nil, err
	}
	return &Fit{
		Discrete:    discrete,
		Alpha:       res.alpha,
		Xmin:        res.xmin,
		KS:          res.ks,
		NTail:       res.nTail,
		N:           len(data),
		LogLik:      res.logLik,
		AlphaStdErr: (res.alpha - 1) / math.Sqrt(float64(res.nTail)),
		sorted:      data,
		logSuf:      fc.logSuf,
		params:      p,
	}, nil
}

// fitResult is the winning candidate of one xmin scan.
type fitResult struct {
	alpha, xmin, ks, logLik float64
	nTail                   int
}

// fitCore holds the reusable kernel state for one fit: the suffix log-sums,
// the distinct-value index, the candidate list and the zeta memo. The
// observed fit builds one on the stack; bootstrap replicates reuse one per
// worker scratch so the steady-state replicate path allocates nothing.
type fitCore struct {
	// logSuf[i] = Σ_{j≥i} ln data[j], accumulated descending (the kernel's
	// canonical log-sum order); logSuf[len(data)] = 0.
	logSuf []float64
	// distinct holds the last-occurrence index of each distinct value,
	// ascending. A tail starting at i owns exactly the suffix of entries
	// with index ≥ i, so every candidate shares one list.
	distinct []int
	// cand / candX are the xmin scan's candidate start indices and values.
	cand  []int
	candX []float64
	// zeta memoizes ζ(α, xmin) across the Brent search and the KS re-read.
	zeta mathx.ZetaCache
}

// prepare (re)builds the suffix log-sums and distinct-value index for
// sorted data, reusing buffer capacity.
func (fc *fitCore) prepare(data []float64) {
	n := len(data)
	if cap(fc.logSuf) < n+1 {
		fc.logSuf = make([]float64, n+1)
	}
	fc.logSuf = fc.logSuf[:n+1]
	fc.logSuf[n] = 0
	for i := n - 1; i >= 0; i-- {
		fc.logSuf[i] = fc.logSuf[i+1] + math.Log(data[i])
	}
	fc.distinct = fc.distinct[:0]
	for i := 0; i < n; i++ {
		if i+1 == n || data[i+1] != data[i] {
			fc.distinct = append(fc.distinct, i)
		}
	}
}

// candidates fills fc.cand/fc.candX with the xmin candidates to scan: every
// distinct value except the largest, log-subsampled down to the configured
// cap; a fixed xmin short-circuits the scan.
func (fc *fitCore) candidates(data []float64, p fitParams) {
	fc.cand = fc.cand[:0]
	fc.candX = fc.candX[:0]
	if p.fixedXmin > 0 {
		fc.cand = append(fc.cand, sort.SearchFloat64s(data, p.fixedXmin))
		fc.candX = append(fc.candX, p.fixedXmin)
		return
	}
	// Never use the largest value as xmin (tail would be tiny).
	m := len(fc.distinct)
	if m > 1 {
		m--
	}
	// first-occurrence index of the j-th distinct value.
	first := func(j int) int {
		if j == 0 {
			return 0
		}
		return fc.distinct[j-1] + 1
	}
	if m <= p.maxXminCandidates {
		for j := 0; j < m; j++ {
			fc.cand = append(fc.cand, first(j))
			fc.candX = append(fc.candX, data[fc.distinct[j]])
		}
		return
	}
	// Log-spaced subsample over the index range preserves resolution at
	// the small-x end where candidate density matters most.
	last := -1
	for k := 0; k < p.maxXminCandidates; k++ {
		f := float64(k) / float64(p.maxXminCandidates-1)
		idx := int(math.Round(math.Pow(float64(m-1), f)))
		if idx >= m {
			idx = m - 1
		}
		if idx != last {
			fc.cand = append(fc.cand, first(idx))
			fc.candX = append(fc.candX, data[fc.distinct[idx]])
			last = idx
		}
	}
}

// run scans the candidates and returns the KS-minimizing fit.
func (fc *fitCore) run(data []float64, discrete bool, p fitParams) (fitResult, error) {
	fc.candidates(data, p)
	n := len(data)
	best := fitResult{ks: math.Inf(1)}
	for c := range fc.cand {
		i := fc.cand[c]
		xmin := fc.candX[c]
		nt := n - i
		if nt < p.minTail {
			continue
		}
		var alpha, ll float64
		if discrete {
			alpha, ll = fc.mleDiscrete(i, nt, xmin, p.alphaMax)
		} else {
			alpha, ll = fc.mleContinuous(i, nt, xmin)
		}
		if math.IsNaN(alpha) || alpha <= 1 {
			continue
		}
		ks := fc.ksDistance(data, i, nt, xmin, alpha, discrete)
		if ks < best.ks {
			best = fitResult{alpha: alpha, xmin: xmin, ks: ks, logLik: ll, nTail: nt}
		}
	}
	if math.IsInf(best.ks, 1) {
		return best, ErrTooFewPoints
	}
	return best, nil
}

// mleContinuous returns the closed-form Hill estimator and log-likelihood
// for a continuous power law on [xmin, ∞); the tail log-sum is an O(1)
// suffix-sum lookup.
func (fc *fitCore) mleContinuous(i, nt int, xmin float64) (alpha, logLik float64) {
	n := float64(nt)
	s := fc.logSuf[i] - n*math.Log(xmin)
	if s <= 0 {
		return math.NaN(), math.NaN()
	}
	alpha = 1 + n/s
	logLik = n*math.Log((alpha-1)/xmin) - alpha*s
	return alpha, logLik
}

// brentTol / brentIters are the α search tolerances (part of the kernel's
// numeric contract; the reference implementation uses the same values).
const (
	brentTol   = 1e-8
	brentIters = 200
	alphaFloor = 1.0001
	// brentWarmRadius is the half-width of the warm bracket around the
	// closed-form continuous estimate; brentEdge is the pin margin that
	// triggers the full-range fallback.
	brentWarmRadius = 1.5
	brentEdge       = 1e-6
)

// mleDiscrete maximizes the zeta likelihood with Brent's method, bracketing
// warm around the closed-form continuous estimate on xmin−½ (Clauset et
// al.'s eq. 3.7 approximation). If the minimizer lands pinned to an
// interior edge of the warm bracket, the search reruns over the full
// [alphaFloor, alphaMax] range, so warm-starting can never change which
// optimum is found — only how many ζ evaluations reaching it costs.
func (fc *fitCore) mleDiscrete(i, nt int, xmin, alphaMax float64) (alpha, logLik float64) {
	n := float64(nt)
	sumLog := fc.logSuf[i]
	neg := func(a float64) float64 {
		z := fc.zeta.Get(a, xmin)
		if math.IsNaN(z) || z <= 0 {
			return math.Inf(1)
		}
		return n*math.Log(z) + a*sumLog
	}
	lo, hi := alphaFloor, alphaMax
	if xmin > 0.5 {
		if s0 := sumLog - n*math.Log(xmin-0.5); s0 > 0 {
			a0 := 1 + n/s0
			wlo := math.Max(alphaFloor, a0-brentWarmRadius)
			whi := math.Min(alphaMax, a0+brentWarmRadius)
			if wlo < whi {
				lo, hi = wlo, whi
			}
		}
	}
	a, nll := mathx.MinimizeBrent(neg, lo, hi, brentTol, brentIters)
	if (a-lo < brentEdge && lo > alphaFloor) || (hi-a < brentEdge && hi < alphaMax) {
		a, nll = mathx.MinimizeBrent(neg, alphaFloor, alphaMax, brentTol, brentIters)
	}
	return a, -nll
}

// ksDistance computes the KS statistic between the empirical CDF of the
// tail starting at index i and the fitted model CDF, evaluated at the last
// occurrence of each distinct value. The discrete model CDF walks the
// distinct values descending through a zeta ladder — one Euler–Maclaurin
// anchor per α plus one pow per unit of support crossed — instead of one
// full zeta evaluation per distinct value.
func (fc *fitCore) ksDistance(data []float64, i, nt int, xmin, alpha float64, discrete bool) float64 {
	n := float64(nt)
	j0 := sort.SearchInts(fc.distinct, i)
	d := 0.0
	if discrete {
		zden := fc.zeta.Get(alpha, xmin)
		ladder := mathx.NewZetaLadder(alpha)
		for j := len(fc.distinct) - 1; j >= j0; j-- {
			pos := fc.distinct[j]
			x := data[pos]
			// P(X <= x) = 1 - ζ(α, x+1)/ζ(α, xmin)
			modelCDF := 1 - ladder.At(x+1)/zden
			empCDF := float64(pos-i+1) / n
			if diff := math.Abs(empCDF - modelCDF); diff > d {
				d = diff
			}
		}
		return d
	}
	for j := j0; j < len(fc.distinct); j++ {
		pos := fc.distinct[j]
		x := data[pos]
		modelCDF := 1 - math.Pow(x/xmin, 1-alpha)
		empCDF := float64(pos-i+1) / n
		if diff := math.Abs(empCDF - modelCDF); diff > d {
			d = diff
		}
	}
	return d
}

// GoFResult reports one bootstrap goodness-of-fit estimate.
type GoFResult struct {
	// P is the p-value: the fraction of successfully refitted replicates
	// whose KS distance met or exceeded the observed fit's.
	P float64
	// B is the number of replicates attempted.
	B int
	// Exceed is the number of replicates with KS >= the observed KS.
	Exceed int
	// Dropped counts replicates whose refit failed (ErrTooFewPoints on a
	// degenerate resample). They are excluded from the denominator —
	// counting them as non-exceedances would silently bias P downward.
	Dropped int
}

// GoodnessOfFitWorkers estimates the bootstrap p-value of the power-law
// hypothesis with B semiparametric replicates (Clauset et al. §4.1): each
// replicate draws below-xmin values from the empirical body and tail values
// from the fitted law, refits (including the xmin scan), and compares KS
// distances. p is the fraction of replicates whose KS exceeds the observed
// one; p > 0.1 supports the power law. B = 100 gives ±0.05 resolution.
//
// Replicates run concurrently on the shared worker pool within a budget of
// workers (<= 0 means GOMAXPROCS). Replicate b draws from its own RNG
// stream derived from rng as "gof/b" — rng itself is never advanced — so
// the p-value is a pure function of the fit, B and the rng state:
// bit-identical at every worker count and schedule, and unaffected by
// other consumers of rng. For a second independent estimate, pass a
// different generator (or Split).
func (f *Fit) GoodnessOfFitWorkers(B int, rng *mathx.RNG, workers int) float64 {
	return f.Bootstrap(B, rng, workers).P
}

// Bootstrap runs the goodness-of-fit bootstrap and returns the full
// accounting: p-value, exceedance count and how many replicates were
// dropped because their refit failed. It shares GoodnessOfFitWorkers'
// determinism contract. Replicates refit through per-worker reusable
// scratch, so the steady-state path allocates nothing per replicate.
func (f *Fit) Bootstrap(B int, rng *mathx.RNG, workers int) GoFResult {
	if B <= 0 {
		B = 100
	}
	i := f.tailStart()
	body := f.sorted[:i]
	pTail := float64(f.N-i) / float64(f.N)
	type part struct{ exceed, dropped int }
	// One replicate per chunk: each refit dominates the Derive cost, and
	// exceedance/drop counts are integers, so any summation order is exact.
	parts := parallel.ChunkReduce(B, 1, workers, func(lo, hi int) part {
		sc := gofScratchPool.Get().(*gofScratch)
		var p part
		for b := lo; b < hi; b++ {
			ks, ok := f.replicateKS(b, rng, body, pTail, sc)
			if !ok {
				p.dropped++
				continue
			}
			if ks >= f.KS {
				p.exceed++
			}
		}
		gofScratchPool.Put(sc)
		return p
	})
	res := GoFResult{B: B}
	for _, p := range parts {
		res.Exceed += p.exceed
		res.Dropped += p.dropped
	}
	if den := res.B - res.Dropped; den > 0 {
		res.P = float64(res.Exceed) / float64(den)
	} else {
		res.P = math.NaN()
	}
	return res
}

// gofScratch is one worker's reusable bootstrap state. Everything a
// replicate touches lives here, so the steady-state replicate path performs
// zero heap allocations (guarded by TestReplicateSteadyStateAllocs).
type gofScratch struct {
	rng      mathx.RNG
	label    []byte
	data     []float64
	counts   []int32
	overflow []float64
	core     fitCore
}

var gofScratchPool = sync.Pool{New: func() any { return new(gofScratch) }}

// replicateKS draws and refits semiparametric replicate b, returning its KS
// distance (ok=false when the refit failed). The replicate is a pure
// function of (f, b, rng state): the derived stream, the draw order and the
// refit are all deterministic, so results are identical whichever worker's
// scratch runs it.
func (f *Fit) replicateKS(b int, rng *mathx.RNG, body []float64, pTail float64, sc *gofScratch) (float64, bool) {
	sc.label = append(sc.label[:0], "gof/"...)
	sc.label = strconv.AppendInt(sc.label, int64(b), 10)
	rng.DeriveInto(&sc.rng, sc.label)
	r := &sc.rng
	if cap(sc.data) < f.N {
		sc.data = make([]float64, f.N)
	}
	data := sc.data[:f.N]
	for j := range data {
		if len(body) == 0 || r.Bool(pTail) {
			data[j] = f.sample(r)
		} else {
			data[j] = body[r.Intn(len(body))]
		}
	}
	sc.sortReplicate(data, f.Discrete)
	sc.core.prepare(data)
	res, err := sc.core.run(data, f.Discrete, f.params)
	if err != nil {
		return 0, false
	}
	return res.ks, true
}

// countingSortSpan bounds the counting-sort bucket array for discrete
// replicates: values below the span are bucket-counted, the rare larger
// draws (a heavy tail's extremes) go through a comparison sort of the tiny
// overflow slice. 64Ki buckets cover every realistic degree replicate while
// keeping the per-replicate reset walk trivial.
const countingSortSpan = 1 << 16

// sortReplicate sorts replicate data ascending: comparison sort for
// continuous data, counting sort for the bounded-integer bulk of discrete
// data. The output is the sorted multiset either way, so the choice of path
// can never change a fit.
func (sc *gofScratch) sortReplicate(data []float64, discrete bool) {
	if !discrete {
		slices.Sort(data)
		return
	}
	// Discrete replicates are positive integers by construction (empirical
	// body values and ParetoInt draws); verify before trusting truncation,
	// and fall back to the comparison sort if anything else shows up.
	for _, x := range data {
		if v := int(x); v <= 0 || float64(v) != x {
			slices.Sort(data)
			return
		}
	}
	if sc.counts == nil {
		sc.counts = make([]int32, countingSortSpan)
	}
	sc.overflow = sc.overflow[:0]
	minV, maxV := countingSortSpan, -1
	for _, x := range data {
		v := int(x)
		if v < countingSortSpan {
			sc.counts[v]++
			if v < minV {
				minV = v
			}
			if v > maxV {
				maxV = v
			}
		} else {
			sc.overflow = append(sc.overflow, x)
		}
	}
	idx := 0
	for k := minV; k <= maxV; k++ {
		for c := sc.counts[k]; c > 0; c-- {
			data[idx] = float64(k)
			idx++
		}
		sc.counts[k] = 0
	}
	if len(sc.overflow) > 0 {
		// Every overflow value is >= countingSortSpan > every bucketed one.
		slices.Sort(sc.overflow)
		copy(data[idx:], sc.overflow)
	}
}

// sample draws one value from the fitted tail distribution.
func (f *Fit) sample(rng *mathx.RNG) float64 {
	if f.Discrete {
		return float64(rng.ParetoInt(int(f.Xmin), f.Alpha))
	}
	return rng.Pareto(f.Xmin, f.Alpha)
}
