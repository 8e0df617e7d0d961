// Package mathx provides the special functions, probability distributions,
// random samplers and scalar optimizers that the rest of the library builds
// on. Everything is implemented from scratch on top of the Go standard
// library's math package; no third-party numerical code is used.
//
// The precision targets are those needed by the statistical procedures in the
// paper reproduction: regularized incomplete gamma/beta functions accurate to
// ~1e-12 over the ranges exercised by chi-square, Student-t and F statistics,
// and a Hurwitz zeta accurate to ~1e-10 for power-law maximum-likelihood
// estimation.
package mathx

import "math"

// eps is the convergence tolerance used by the continued-fraction and series
// expansions below.
const eps = 1e-15

// GammaRegP computes the regularized lower incomplete gamma function
// P(a, x) = γ(a, x) / Γ(a) for a > 0, x >= 0.
//
// For x < a+1 the series expansion is used; otherwise the continued fraction
// for Q(a, x) is evaluated and P = 1 - Q. This is the classic split from
// Numerical Recipes and keeps both expansions in their regions of rapid
// convergence.
func GammaRegP(a, x float64) float64 {
	switch {
	case a <= 0 || math.IsNaN(a) || math.IsNaN(x):
		return math.NaN()
	case x < 0:
		return math.NaN()
	case x == 0:
		return 0
	}
	if x < a+1 {
		return gammaSeriesP(a, x)
	}
	return 1 - gammaContFracQ(a, x)
}

// GammaRegQ computes the regularized upper incomplete gamma function
// Q(a, x) = 1 - P(a, x).
func GammaRegQ(a, x float64) float64 {
	switch {
	case a <= 0 || math.IsNaN(a) || math.IsNaN(x):
		return math.NaN()
	case x < 0:
		return math.NaN()
	case x == 0:
		return 1
	}
	if x < a+1 {
		return 1 - gammaSeriesP(a, x)
	}
	return gammaContFracQ(a, x)
}

// gammaSeriesP evaluates P(a,x) by its power series, valid for x < a+1.
func gammaSeriesP(a, x float64) float64 {
	lg, _ := math.Lgamma(a)
	ap := a
	sum := 1.0 / a
	del := sum
	for i := 0; i < 1000; i++ {
		ap++
		del *= x / ap
		sum += del
		if math.Abs(del) < math.Abs(sum)*eps {
			break
		}
	}
	v := sum * math.Exp(-x+a*math.Log(x)-lg)
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// gammaContFracQ evaluates Q(a,x) by the Lentz continued fraction, valid for
// x >= a+1.
func gammaContFracQ(a, x float64) float64 {
	lg, _ := math.Lgamma(a)
	const tiny = 1e-300
	b := x + 1 - a
	c := 1 / tiny
	d := 1 / b
	h := d
	for i := 1; i < 1000; i++ {
		an := -float64(i) * (float64(i) - a)
		b += 2
		d = an*d + b
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = b + an/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	v := math.Exp(-x+a*math.Log(x)-lg) * h
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// BetaRegI computes the regularized incomplete beta function I_x(a, b) for
// a, b > 0 and x in [0, 1], using the continued fraction expansion with the
// symmetry transformation for x > (a+1)/(a+b+2).
func BetaRegI(x, a, b float64) float64 {
	switch {
	case a <= 0 || b <= 0 || math.IsNaN(x):
		return math.NaN()
	case x <= 0:
		return 0
	case x >= 1:
		return 1
	}
	lga, _ := math.Lgamma(a)
	lgb, _ := math.Lgamma(b)
	lgab, _ := math.Lgamma(a + b)
	front := math.Exp(lgab - lga - lgb + a*math.Log(x) + b*math.Log(1-x))
	if x < (a+1)/(a+b+2) {
		return front * betaContFrac(x, a, b) / a
	}
	return 1 - front*betaContFrac(1-x, b, a)/b
}

// betaContFrac evaluates the continued fraction for the incomplete beta
// function by the modified Lentz method.
func betaContFrac(x, a, b float64) float64 {
	const tiny = 1e-300
	qab := a + b
	qap := a + 1
	qam := a - 1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < tiny {
		d = tiny
	}
	d = 1 / d
	h := d
	for m := 1; m <= 500; m++ {
		fm := float64(m)
		m2 := 2 * fm
		aa := fm * (b - fm) * x / ((qam + m2) * (a + m2))
		d = 1 + aa*d
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = 1 + aa/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		h *= d * c
		aa = -(a + fm) * (qab + fm) * x / ((a + m2) * (qap + m2))
		d = 1 + aa*d
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = 1 + aa/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return h
}

// HurwitzZeta computes the Hurwitz zeta function ζ(s, q) = Σ_{k>=0} (k+q)^-s
// for s > 1 and q > 0, by direct summation of the first terms followed by an
// Euler–Maclaurin tail correction. The power-law discrete MLE evaluates this
// with q = xmin, s = alpha.
func HurwitzZeta(s, q float64) float64 {
	if s <= 1 || q <= 0 {
		return math.NaN()
	}
	// Sum the first n terms directly; pick n so the asymptotic tail is
	// well inside its region of validity.
	const n = 16
	sum := 0.0
	for k := 0; k < n; k++ {
		sum += math.Pow(q+float64(k), -s)
	}
	a := q + n
	// Euler–Maclaurin: ∫_a^∞ x^-s dx + 0.5 a^-s + Bernoulli corrections.
	sum += math.Pow(a, 1-s) / (s - 1)
	sum += 0.5 * math.Pow(a, -s)
	// Bernoulli numbers B2=1/6, B4=-1/30, B6=1/42, B8=-1/30.
	term := s * math.Pow(a, -s-1)
	sum += term * (1.0 / 12.0)
	term *= (s + 1) * (s + 2) / (a * a)
	sum -= term * (1.0 / 720.0)
	term *= (s + 3) * (s + 4) / (a * a)
	sum += term * (1.0 / 30240.0)
	term *= (s + 5) * (s + 6) / (a * a)
	sum -= term * (1.0 / 1209600.0)
	return sum
}

// LogFactorial returns ln(n!) via Lgamma.
func LogFactorial(n int) float64 {
	if n < 0 {
		return math.NaN()
	}
	lg, _ := math.Lgamma(float64(n) + 1)
	return lg
}
