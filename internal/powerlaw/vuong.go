package powerlaw

import (
	"errors"
	"fmt"
	"math"

	"elites/internal/mathx"
)

// Alternative identifies a competing heavy- or thin-tailed model for the
// Vuong comparison.
type Alternative int

// Supported alternatives, the three the paper tests against.
const (
	AltLognormal Alternative = iota
	AltExponential
	AltPoisson
)

// String names the alternative.
func (a Alternative) String() string {
	switch a {
	case AltLognormal:
		return "lognormal"
	case AltExponential:
		return "exponential"
	case AltPoisson:
		return "poisson"
	}
	return fmt.Sprintf("Alternative(%d)", int(a))
}

// ErrDegenerate indicates the likelihood comparison is degenerate (zero
// variance of pointwise log-likelihood ratios).
var ErrDegenerate = errors.New("powerlaw: degenerate likelihood comparison")

// VuongResult reports a Vuong likelihood-ratio test between the fitted power
// law and an alternative distribution fitted to the same tail.
type VuongResult struct {
	Alternative Alternative
	// LogLikRatio is Σ (ln p_PL(x_i) − ln p_alt(x_i)); positive favours
	// the power law. The paper reports "2–3 digit" values for the
	// out-degree distribution.
	LogLikRatio float64
	// Statistic is the normalized Vuong statistic R/(σ√n), asymptotically
	// standard normal under the null of indistinguishable fits.
	Statistic float64
	// PValue is the two-sided p-value of the null.
	PValue float64
	// AltParams holds the fitted alternative's parameters for reporting:
	// lognormal (μ, σ); exponential (λ); Poisson (μ).
	AltParams []float64
}

// Favours reports which model the test prefers at the 0.05 level:
// +1 power law, −1 alternative, 0 inconclusive.
func (v *VuongResult) Favours() int {
	if v.PValue > 0.05 {
		return 0
	}
	if v.Statistic > 0 {
		return 1
	}
	return -1
}

// compareAlternative fits the alternative to the tail of f (same xmin,
// truncated support) by maximum likelihood and runs the Vuong test. tail is
// f's tail view, read-only, so CompareAll shares one view across all three
// alternatives instead of copying the tail per comparison.
func (f *Fit) compareAlternative(tail []float64, alt Alternative) (*VuongResult, error) {
	n := len(tail)
	if n < 3 {
		return nil, ErrTooFewPoints
	}
	// Pointwise log-likelihoods under the fitted power law.
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
	altLL, params, err := alternativeLogLik(tail, f.Xmin, f.tailLogSum(f.tailStart()), alt, f.Discrete)
	if err != nil {
		return nil, err
	}
	// Vuong statistic.
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
	p := 2 * mathx.NormalSF(math.Abs(stat))
	return &VuongResult{
		Alternative: alt,
		LogLikRatio: sum,
		Statistic:   stat,
		PValue:      p,
		AltParams:   params,
	}, nil
}

// CompareAll runs the Vuong test against every supported alternative,
// returning results keyed in order lognormal, exponential, poisson.
// Degenerate comparisons are skipped. All three comparisons share one tail
// view into the fit's sorted data — the tail is never copied.
func (f *Fit) CompareAll() []*VuongResult {
	tail := f.tailView()
	var out []*VuongResult
	for _, alt := range []Alternative{AltLognormal, AltExponential, AltPoisson} {
		if r, err := f.compareAlternative(tail, alt); err == nil {
			out = append(out, r)
		}
	}
	return out
}

// alternativeLogLik fits the alternative distribution truncated to
// [xmin, ∞) and returns the pointwise log-likelihoods and parameters. For
// discrete data the alternatives are discretized (probability mass on the
// integer bins), matching Clauset et al.'s treatment — comparing a discrete
// pmf against a continuous density would systematically mis-score ties at
// small integers. sumLogTail is Σ ln x over the tail (the fit's suffix-sum
// view), which seeds the lognormal location estimate without another pass.
func alternativeLogLik(tail []float64, xmin, sumLogTail float64, alt Alternative, discrete bool) ([]float64, []float64, error) {
	n := len(tail)
	ll := make([]float64, n)
	switch alt {
	case AltExponential:
		if discrete {
			// Geometric-type pmf p(k) = (1−e^−λ)·e^{−λ(k−xmin)} on
			// {xmin, xmin+1, ...}; MLE λ = ln(1 + 1/mean(k−xmin)).
			mean := 0.0
			for _, x := range tail {
				mean += x - xmin
			}
			mean /= float64(n)
			if mean <= 0 {
				return nil, nil, ErrDegenerate
			}
			lambda := math.Log(1 + 1/mean)
			l1m := math.Log(1 - math.Exp(-lambda))
			for i, x := range tail {
				ll[i] = l1m - lambda*(x-xmin)
			}
			return ll, []float64{lambda}, nil
		}
		// Truncated exponential on [xmin, ∞): MLE λ = 1/(mean − xmin).
		mean := 0.0
		for _, x := range tail {
			mean += x
		}
		mean /= float64(n)
		if mean <= xmin {
			return nil, nil, ErrDegenerate
		}
		lambda := 1 / (mean - xmin)
		for i, x := range tail {
			ll[i] = math.Log(lambda) - lambda*(x-xmin)
		}
		return ll, []float64{lambda}, nil

	case AltLognormal:
		logs := make([]float64, n)
		for i, x := range tail {
			logs[i] = math.Log(x)
		}
		mu0 := sumLogTail / float64(n)
		var var0 float64
		for _, lx := range logs {
			var0 += (lx - mu0) * (lx - mu0)
		}
		sigma0 := math.Sqrt(var0/float64(n)) + 1e-3
		var neg func(p []float64) float64
		if discrete {
			// Discretized lognormal: p(k) ∝ Φ((ln(k+0.5)−μ)/σ) −
			// Φ((ln(k−0.5)−μ)/σ), normalized by the mass on
			// [xmin−0.5, ∞).
			lo := math.Log(xmin - 0.5)
			neg = func(p []float64) float64 {
				mu, sigma := p[0], p[1]
				if sigma <= 1e-6 {
					return math.Inf(1)
				}
				tailMass := mathx.NormalSF((lo - mu) / sigma)
				if tailMass <= 1e-300 {
					return math.Inf(1)
				}
				s := 0.0
				for _, x := range tail {
					pm := mathx.NormalCDF((math.Log(x+0.5)-mu)/sigma) -
						mathx.NormalCDF((math.Log(x-0.5)-mu)/sigma)
					if pm <= 1e-300 {
						return math.Inf(1)
					}
					s += math.Log(pm)
				}
				s -= float64(n) * math.Log(tailMass)
				return -s
			}
		} else {
			lxmin := math.Log(xmin)
			neg = func(p []float64) float64 {
				mu, sigma := p[0], p[1]
				if sigma <= 1e-6 {
					return math.Inf(1)
				}
				tailMass := mathx.NormalSF((lxmin - mu) / sigma)
				if tailMass <= 1e-300 {
					return math.Inf(1)
				}
				s := 0.0
				for _, lx := range logs {
					z := (lx - mu) / sigma
					s += -lx - math.Log(sigma) - 0.5*math.Log(2*math.Pi) - 0.5*z*z
				}
				s -= float64(n) * math.Log(tailMass)
				return -s
			}
		}
		best, _ := mathx.MinimizeNelderMead(neg,
			[]float64{mu0, sigma0}, []float64{1, 0.5}, 1e-12, 2000)
		mu, sigma := best[0], best[1]
		if sigma <= 0 {
			return nil, nil, ErrDegenerate
		}
		if discrete {
			lo := math.Log(xmin - 0.5)
			tailMass := mathx.NormalSF((lo - mu) / sigma)
			if tailMass <= 0 {
				return nil, nil, ErrDegenerate
			}
			lt := math.Log(tailMass)
			for i, x := range tail {
				pm := mathx.NormalCDF((math.Log(x+0.5)-mu)/sigma) -
					mathx.NormalCDF((math.Log(x-0.5)-mu)/sigma)
				if pm <= 1e-300 {
					pm = 1e-300
				}
				ll[i] = math.Log(pm) - lt
			}
			return ll, []float64{mu, sigma}, nil
		}
		tailMass := mathx.NormalSF((math.Log(xmin) - mu) / sigma)
		if tailMass <= 0 {
			return nil, nil, ErrDegenerate
		}
		lt := math.Log(tailMass)
		for i, x := range tail {
			ll[i] = mathx.LogNormalLogPDF(x, mu, sigma) - lt
		}
		return ll, []float64{mu, sigma}, nil

	case AltPoisson:
		if !discrete {
			return nil, nil, fmt.Errorf("powerlaw: poisson alternative requires discrete data")
		}
		// Truncated Poisson on {xmin, xmin+1, ...}: maximize
		// Σ ln pmf(x;μ) − n·ln P(X ≥ xmin) over μ with Brent.
		// P(X ≥ k) for Poisson(μ) equals the regularized lower
		// incomplete gamma P(k, μ).
		k := math.Ceil(xmin)
		mean := 0.0
		for _, x := range tail {
			mean += x
		}
		mean /= float64(n)
		neg := func(mu float64) float64 {
			if mu <= 0 {
				return math.Inf(1)
			}
			tailMass := mathx.GammaRegP(k, mu)
			if tailMass <= 1e-300 {
				return math.Inf(1)
			}
			s := 0.0
			for _, x := range tail {
				s += mathx.PoissonLogPMF(int(x), mu)
			}
			s -= float64(n) * math.Log(tailMass)
			return -s
		}
		lo := math.Max(mean/100, 1e-6)
		hi := mean * 3
		mu, _ := mathx.MinimizeBrent(neg, lo, hi, 1e-9, 300)
		tailMass := mathx.GammaRegP(k, mu)
		if tailMass <= 0 {
			return nil, nil, ErrDegenerate
		}
		lt := math.Log(tailMass)
		for i, x := range tail {
			ll[i] = mathx.PoissonLogPMF(int(x), mu) - lt
		}
		return ll, []float64{mu}, nil
	}
	return nil, nil, fmt.Errorf("powerlaw: unknown alternative %v", alt)
}
