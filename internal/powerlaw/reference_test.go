package powerlaw

// Test-only reference implementation of the power-law kernel's numeric
// contract (see the package comment in fit.go). It computes exactly the
// same floating-point operations as the optimized kernel — descending tail
// log-sums, the warm-bracketed Brent search, the descending zeta-ladder
// walk for discrete model CDFs — but does everything the slow, obvious way:
// fresh allocations per candidate, per-candidate re-summation instead of
// suffix sums, binary search instead of shared distinct indices, comparison
// sort instead of counting sort, string-label Derive instead of scratch
// reuse. The equivalence tests assert the optimized kernel is bit-identical
// to this reference on fixed seeds, which pins every indexing and reuse
// shortcut in fit.go without freezing the (deliberately unspecified)
// last-ulp behaviour against unrelated refactors.

import (
	"math"
	"slices"
	"sort"
	"strconv"
	"testing"

	"elites/internal/mathx"
)

type refFit struct {
	alpha, xmin, ks, logLik float64
	nTail, n                int
}

// refSumLogDesc is the contract's canonical tail log-sum: a right-to-left
// (descending-index) sum.
func refSumLogDesc(tail []float64) float64 {
	s := 0.0
	for j := len(tail) - 1; j >= 0; j-- {
		s += math.Log(tail[j])
	}
	return s
}

// pinnedXmin is defaultParams with the xmin scan replaced by one cutoff.
func pinnedXmin(xmin float64) fitParams {
	p := defaultParams
	p.fixedXmin = xmin
	return p
}

// cappedScan is defaultParams scanning at most n xmin candidates.
func cappedScan(n int) fitParams {
	p := defaultParams
	p.maxXminCandidates = n
	return p
}

func referenceFit(input []float64, discrete bool, o fitParams) (refFit, bool) {
	if len(input) < o.minTail {
		return refFit{}, false
	}
	data := append([]float64(nil), input...)
	slices.Sort(data)
	// Candidate selection, restated naively.
	var candidates []float64
	if o.fixedXmin > 0 {
		candidates = []float64{o.fixedXmin}
	} else {
		var uniq []float64
		for i, v := range data {
			if i == 0 || v != data[i-1] {
				uniq = append(uniq, v)
			}
		}
		if len(uniq) > 1 {
			uniq = uniq[:len(uniq)-1]
		}
		if len(uniq) <= o.maxXminCandidates {
			candidates = uniq
		} else {
			last := -1
			for k := 0; k < o.maxXminCandidates; k++ {
				f := float64(k) / float64(o.maxXminCandidates-1)
				idx := int(math.Round(math.Pow(float64(len(uniq)-1), f)))
				if idx >= len(uniq) {
					idx = len(uniq) - 1
				}
				if idx != last {
					candidates = append(candidates, uniq[idx])
					last = idx
				}
			}
		}
	}
	best := refFit{ks: math.Inf(1)}
	for _, xmin := range candidates {
		i := sort.SearchFloat64s(data, xmin)
		tail := data[i:]
		if len(tail) < o.minTail {
			continue
		}
		var alpha, ll float64
		if discrete {
			alpha, ll = refMleDiscrete(tail, xmin, o.alphaMax)
		} else {
			alpha, ll = refMleContinuous(tail, xmin)
		}
		if math.IsNaN(alpha) || alpha <= 1 {
			continue
		}
		ks := refKSDistance(tail, xmin, alpha, discrete)
		if ks < best.ks {
			best = refFit{alpha: alpha, xmin: xmin, ks: ks, logLik: ll, nTail: len(tail), n: len(data)}
		}
	}
	if math.IsInf(best.ks, 1) {
		return refFit{}, false
	}
	return best, true
}

func refMleContinuous(tail []float64, xmin float64) (alpha, logLik float64) {
	n := float64(len(tail))
	s := refSumLogDesc(tail) - n*math.Log(xmin)
	if s <= 0 {
		return math.NaN(), math.NaN()
	}
	alpha = 1 + n/s
	logLik = n*math.Log((alpha-1)/xmin) - alpha*s
	return alpha, logLik
}

func refMleDiscrete(tail []float64, xmin, alphaMax float64) (alpha, logLik float64) {
	n := float64(len(tail))
	sumLog := refSumLogDesc(tail)
	neg := func(a float64) float64 {
		z := mathx.HurwitzZeta(a, xmin)
		if math.IsNaN(z) || z <= 0 {
			return math.Inf(1)
		}
		return n*math.Log(z) + a*sumLog
	}
	// Same warm-bracket rule as the kernel (the shared constants are the
	// contract).
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

func refKSDistance(tail []float64, xmin, alpha float64, discrete bool) float64 {
	n := float64(len(tail))
	d := 0.0
	if discrete {
		zden := mathx.HurwitzZeta(alpha, xmin)
		// The contract's descending ladder walk, restated inline: recur
		// ζ(α,q) = ζ(α,q+1) + q^−α across integer gaps up to
		// ZetaLadderMaxStep, re-anchor with HurwitzZeta beyond.
		var lastQ, lastZ float64
		valid := false
		zeta := func(q float64) float64 {
			if valid {
				gap := lastQ - q
				if gap == 0 {
					return lastZ
				}
				if gap > 0 && gap <= mathx.ZetaLadderMaxStep && gap == math.Trunc(gap) {
					z := lastZ
					qq := lastQ
					for i := 0; i < int(gap); i++ {
						qq--
						z += math.Pow(qq, -alpha)
					}
					lastQ, lastZ = q, z
					return z
				}
			}
			z := mathx.HurwitzZeta(alpha, q)
			lastQ, lastZ, valid = q, z, true
			return z
		}
		for i := len(tail) - 1; i >= 0; i-- {
			// Descending, the first index of a run of equal values we meet
			// is the run's last occurrence — skip the rest of the run.
			if i+1 < len(tail) && tail[i+1] == tail[i] {
				continue
			}
			modelCDF := 1 - zeta(tail[i]+1)/zden
			empCDF := float64(i+1) / n
			if diff := math.Abs(empCDF - modelCDF); diff > d {
				d = diff
			}
		}
		return d
	}
	for i := 0; i < len(tail); i++ {
		if i+1 < len(tail) && tail[i+1] == tail[i] {
			continue
		}
		modelCDF := 1 - math.Pow(tail[i]/xmin, 1-alpha)
		empCDF := float64(i+1) / n
		if diff := math.Abs(empCDF - modelCDF); diff > d {
			d = diff
		}
	}
	return d
}

// referenceBootstrap mirrors Bootstrap naively: fresh slices per replicate,
// string-label stream derivation, comparison sort, reference refit.
func referenceBootstrap(f *Fit, B int, rng *mathx.RNG) GoFResult {
	i := f.tailStart()
	body := f.sorted[:i]
	pTail := float64(f.N-i) / float64(f.N)
	res := GoFResult{B: B}
	for b := 0; b < B; b++ {
		r := rng.Derive("gof/" + strconv.Itoa(b))
		data := make([]float64, f.N)
		for j := range data {
			if len(body) == 0 || r.Bool(pTail) {
				data[j] = f.sample(r)
			} else {
				data[j] = body[r.Intn(len(body))]
			}
		}
		rf, ok := referenceFit(data, f.Discrete, f.params)
		if !ok {
			res.Dropped++
			continue
		}
		if rf.ks >= f.KS {
			res.Exceed++
		}
	}
	if den := res.B - res.Dropped; den > 0 {
		res.P = float64(res.Exceed) / float64(den)
	} else {
		res.P = math.NaN()
	}
	return res
}

// referenceVuong mirrors compareAlternative with a copied tail and a naive
// descending tail log-sum instead of the fit's shared views.
func referenceVuong(f *Fit, alt Alternative) (*VuongResult, error) {
	tail := slices.Clone(f.tailView())
	n := len(tail)
	if n < 3 {
		return nil, ErrTooFewPoints
	}
	plLL := make([]float64, n)
	if f.Discrete {
		lz := math.Log(mathx.HurwitzZeta(f.Alpha, f.Xmin))
		for i, x := range tail {
			plLL[i] = -f.Alpha*math.Log(x) - lz
		}
	} else {
		la := math.Log(f.Alpha - 1)
		lx := math.Log(f.Xmin)
		for i, x := range tail {
			plLL[i] = la - lx - f.Alpha*(math.Log(x)-lx)
		}
	}
	altLL, params, err := alternativeLogLik(tail, f.Xmin, refSumLogDesc(tail), alt, f.Discrete)
	if err != nil {
		return nil, err
	}
	var sum, sumSq float64
	for i := range plLL {
		d := plLL[i] - altLL[i]
		sum += d
		sumSq += d * d
	}
	mean := sum / float64(n)
	variance := sumSq/float64(n) - mean*mean
	if variance <= 1e-18 {
		return nil, ErrDegenerate
	}
	stat := sum / (math.Sqrt(variance) * math.Sqrt(float64(n)))
	return &VuongResult{
		Alternative: alt,
		LogLikRatio: sum,
		Statistic:   stat,
		PValue:      2 * mathx.NormalSF(math.Abs(stat)),
		AltParams:   params,
	}, nil
}

// --- fixtures ----------------------------------------------------------------

// discreteMixture builds body-noise + power-law-tail integer data, the shape
// that exercises the full xmin scan.
func discreteMixture(seed uint64, n int) []int {
	rng := mathx.NewRNG(seed)
	out := make([]int, n)
	for i := range out {
		if i%3 == 0 {
			out[i] = 1 + rng.Intn(20)
		} else {
			out[i] = rng.ParetoInt(20, 2.5)
		}
	}
	return out
}

func continuousMixture(seed uint64, n int) []float64 {
	rng := mathx.NewRNG(seed)
	out := make([]float64, n)
	for i := range out {
		if i%3 == 0 {
			out[i] = 1 + 19*rng.Float64()
		} else {
			out[i] = rng.Pareto(20, 2.8)
		}
	}
	return out
}

func assertFitMatchesReference(t *testing.T, f *Fit, rf refFit) {
	t.Helper()
	if f.Alpha != rf.alpha {
		t.Errorf("Alpha %v != reference %v", f.Alpha, rf.alpha)
	}
	if f.Xmin != rf.xmin {
		t.Errorf("Xmin %v != reference %v", f.Xmin, rf.xmin)
	}
	if f.KS != rf.ks {
		t.Errorf("KS %v != reference %v", f.KS, rf.ks)
	}
	if f.LogLik != rf.logLik {
		t.Errorf("LogLik %v != reference %v", f.LogLik, rf.logLik)
	}
	if f.NTail != rf.nTail || f.N != rf.n {
		t.Errorf("NTail/N %d/%d != reference %d/%d", f.NTail, f.N, rf.nTail, rf.n)
	}
}

// --- equivalence tests -------------------------------------------------------

func TestFitMatchesReferenceDiscrete(t *testing.T) {
	cases := []struct {
		name   string
		params fitParams
		data   []int
	}{
		{"mixture full scan", defaultParams, discreteMixture(101, 4000)},
		{"many distinct (log subsample)", defaultParams, func() []int {
			rng := mathx.NewRNG(102)
			out := make([]int, 6000)
			for i := range out {
				out[i] = rng.ParetoInt(1, 2.2)
			}
			return out
		}()},
		{"few candidates", cappedScan(15), discreteMixture(103, 2000)},
		{"fixed xmin", pinnedXmin(20), discreteMixture(104, 2000)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f, err := fitDiscrete(tc.data, tc.params)
			if err != nil {
				t.Fatal(err)
			}
			floats := make([]float64, 0, len(tc.data))
			for _, x := range tc.data {
				if x > 0 {
					floats = append(floats, float64(x))
				}
			}
			rf, ok := referenceFit(floats, true, tc.params)
			if !ok {
				t.Fatal("reference fit failed where kernel succeeded")
			}
			assertFitMatchesReference(t, f, rf)
		})
	}
}

func TestFitMatchesReferenceContinuous(t *testing.T) {
	data := continuousMixture(201, 5000)
	f, err := FitContinuous(data)
	if err != nil {
		t.Fatal(err)
	}
	rf, ok := referenceFit(data, false, defaultParams)
	if !ok {
		t.Fatal("reference fit failed where kernel succeeded")
	}
	assertFitMatchesReference(t, f, rf)
}

func TestBootstrapMatchesReference(t *testing.T) {
	const B = 20
	t.Run("discrete", func(t *testing.T) {
		f, err := FitDiscrete(discreteMixture(301, 1500))
		if err != nil {
			t.Fatal(err)
		}
		base := mathx.NewRNG(31)
		want := referenceBootstrap(f, B, base)
		for _, workers := range []int{1, 4} {
			if got := f.Bootstrap(B, base, workers); got != want {
				t.Fatalf("workers=%d: Bootstrap %+v != reference %+v", workers, got, want)
			}
		}
	})
	t.Run("continuous", func(t *testing.T) {
		f, err := FitContinuous(continuousMixture(302, 1500))
		if err != nil {
			t.Fatal(err)
		}
		base := mathx.NewRNG(33)
		want := referenceBootstrap(f, B, base)
		for _, workers := range []int{1, 4} {
			if got := f.Bootstrap(B, base, workers); got != want {
				t.Fatalf("workers=%d: Bootstrap %+v != reference %+v", workers, got, want)
			}
		}
	})
}

func TestVuongMatchesReference(t *testing.T) {
	fd, err := FitDiscrete(discreteMixture(401, 2500))
	if err != nil {
		t.Fatal(err)
	}
	fc, err := FitContinuous(continuousMixture(402, 2500))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []*Fit{fd, fc} {
		for _, alt := range []Alternative{AltLognormal, AltExponential, AltPoisson} {
			want, werr := referenceVuong(f, alt)
			got, gerr := f.compareAlternative(f.tailView(), alt)
			if (werr == nil) != (gerr == nil) {
				t.Fatalf("discrete=%v %v: err %v vs reference %v", f.Discrete, alt, gerr, werr)
			}
			if gerr != nil {
				continue
			}
			if got.LogLikRatio != want.LogLikRatio || got.Statistic != want.Statistic ||
				got.PValue != want.PValue || !slices.Equal(got.AltParams, want.AltParams) {
				t.Errorf("discrete=%v %v: %+v != reference %+v", f.Discrete, alt, got, want)
			}
		}
	}
}

// TestBootstrapDroppedReplicates forces degenerate replicates (a fixed xmin
// with a tiny tail, so many resamples land under the minimum tail) and checks the
// accounting: drops are counted, excluded from the denominator, identical
// to the reference and invariant across worker budgets.
func TestBootstrapDroppedReplicates(t *testing.T) {
	rng := mathx.NewRNG(55)
	data := make([]int, 30)
	for i := range data {
		if i < 25 {
			data[i] = 1 + rng.Intn(40)
		} else {
			data[i] = rng.ParetoInt(50, 2.5)
		}
	}
	p := pinnedXmin(50)
	p.minTail = 5
	f, err := fitDiscrete(data, p)
	if err != nil {
		t.Fatal(err)
	}
	base := mathx.NewRNG(7)
	const B = 40
	res := f.Bootstrap(B, base, 1)
	if res.Dropped == 0 {
		t.Fatal("expected dropped replicates on a 5-point tail; got none (weaken the fixture?)")
	}
	if res.B != B || res.Exceed > B-res.Dropped {
		t.Fatalf("inconsistent accounting: %+v", res)
	}
	if want := float64(res.Exceed) / float64(B-res.Dropped); res.P != want {
		t.Fatalf("P=%v, want Exceed/(B-Dropped)=%v", res.P, want)
	}
	if ref := referenceBootstrap(f, B, base); res != ref {
		t.Fatalf("Bootstrap %+v != reference %+v", res, ref)
	}
	for _, workers := range []int{4, 7} {
		if got := f.Bootstrap(B, base, workers); got != res {
			t.Fatalf("workers=%d: %+v != sequential %+v", workers, got, res)
		}
	}
}

// --- steady-state allocation guards ------------------------------------------

// TestReplicateSteadyStateAllocs pins the zero-alloc contract of the
// bootstrap replicate path: with a warmed per-worker scratch, a replicate
// performs no heap allocations — not for the sample buffer, the sort, the
// candidate scan, the zeta evaluations or the derived RNG stream.
func TestReplicateSteadyStateAllocs(t *testing.T) {
	run := func(t *testing.T, f *Fit) {
		i := f.tailStart()
		body := f.sorted[:i]
		pTail := float64(f.N-i) / float64(f.N)
		base := mathx.NewRNG(17)
		sc := new(gofScratch)
		for b := 0; b < 4; b++ { // warm every buffer the labels touch
			f.replicateKS(b, base, body, pTail, sc)
		}
		b := 0
		allocs := testing.AllocsPerRun(25, func() {
			f.replicateKS(b%4, base, body, pTail, sc)
			b++
		})
		if allocs != 0 {
			t.Fatalf("steady-state replicate allocates %.1f times per run, want 0", allocs)
		}
	}
	t.Run("discrete", func(t *testing.T) {
		f, err := FitDiscrete(discreteMixture(501, 1200))
		if err != nil {
			t.Fatal(err)
		}
		run(t, f)
	})
	t.Run("continuous", func(t *testing.T) {
		f, err := FitContinuous(continuousMixture(502, 1200))
		if err != nil {
			t.Fatal(err)
		}
		run(t, f)
	})
}
