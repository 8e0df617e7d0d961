package mathx

import "math"

// NormalCDF returns the standard normal cumulative distribution function
// Φ(x).
func NormalCDF(x float64) float64 {
	return 0.5 * math.Erfc(-x/math.Sqrt2)
}

// NormalSF returns the standard normal survival function 1 - Φ(x), computed
// without cancellation for large x.
func NormalSF(x float64) float64 {
	return 0.5 * math.Erfc(x/math.Sqrt2)
}

// NormalQuantile returns Φ⁻¹(p) using the Acklam rational approximation
// refined by one Halley step, accurate to ~1e-15 over (0, 1).
func NormalQuantile(p float64) float64 {
	if math.IsNaN(p) || p <= 0 || p >= 1 {
		switch {
		case p == 0:
			return math.Inf(-1)
		case p == 1:
			return math.Inf(1)
		}
		return math.NaN()
	}
	// Coefficients for the central and tail rational approximations.
	a := [6]float64{-3.969683028665376e+01, 2.209460984245205e+02,
		-2.759285104469687e+02, 1.383577518672690e+02,
		-3.066479806614716e+01, 2.506628277459239e+00}
	b := [5]float64{-5.447609879822406e+01, 1.615858368580409e+02,
		-1.556989798598866e+02, 6.680131188771972e+01,
		-1.328068155288572e+01}
	c := [6]float64{-7.784894002430293e-03, -3.223964580411365e-01,
		-2.400758277161838e+00, -2.549732539343734e+00,
		4.374664141464968e+00, 2.938163982698783e+00}
	d := [4]float64{7.784695709041462e-03, 3.224671290700398e-01,
		2.445134137142996e+00, 3.754408661907416e+00}
	const plow = 0.02425
	var x float64
	switch {
	case p < plow:
		q := math.Sqrt(-2 * math.Log(p))
		x = (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p <= 1-plow:
		q := p - 0.5
		r := q * q
		x = (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		x = -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	}
	// One Halley refinement using the exact CDF.
	e := NormalCDF(x) - p
	u := e * math.Sqrt(2*math.Pi) * math.Exp(x*x/2)
	x = x - u/(1+x*u/2)
	return x
}

// ChiSquareSF returns P(X > x) for a chi-square distribution with k degrees
// of freedom; this is the p-value of portmanteau statistics such as
// Ljung–Box.
func ChiSquareSF(x float64, k float64) float64 {
	if x <= 0 {
		return 1
	}
	return GammaRegQ(k/2, x/2)
}

// StudentTCDF returns P(T <= t) for Student's t distribution with nu degrees
// of freedom, via the regularized incomplete beta function.
func StudentTCDF(t, nu float64) float64 {
	if nu <= 0 {
		return math.NaN()
	}
	if t == 0 {
		return 0.5
	}
	x := nu / (nu + t*t)
	ib := BetaRegI(x, nu/2, 0.5)
	if t > 0 {
		return 1 - 0.5*ib
	}
	return 0.5 * ib
}

// StudentTSF returns P(T > t).
func StudentTSF(t, nu float64) float64 { return 1 - StudentTCDF(t, nu) }

// PoissonLogPMF returns ln P(X = k) for a Poisson distribution with mean mu.
func PoissonLogPMF(k int, mu float64) float64 {
	if mu <= 0 || k < 0 {
		return math.Inf(-1)
	}
	return float64(k)*math.Log(mu) - mu - LogFactorial(k)
}

// LogNormalLogPDF returns the log density of a lognormal distribution with
// location mu and scale sigma at x.
func LogNormalLogPDF(x, mu, sigma float64) float64 {
	if x <= 0 || sigma <= 0 {
		return math.Inf(-1)
	}
	lx := math.Log(x)
	z := (lx - mu) / sigma
	return -lx - math.Log(sigma) - 0.5*math.Log(2*math.Pi) - 0.5*z*z
}
