// Package stats provides the descriptive and regression statistics behind
// the paper's figures: quantiles, linear and logarithmic histograms
// (Figure 1), complementary CDFs (Figure 2), Pearson and Spearman
// correlations, ordinary least squares (the building block of the ADF test),
// and a penalized B-spline "GAM-style" smoother with GCV-chosen smoothing
// and ±1.96·SE confidence bands (the regression splines of Figure 5).
package stats

import (
	"errors"
	"math"
	"sort"

	"elites/internal/mathx"
)

// ErrEmpty indicates an empty input sample.
var ErrEmpty = errors.New("stats: empty sample")

// ErrMismatch indicates paired samples of different lengths.
var ErrMismatch = errors.New("stats: length mismatch")

// Quantile returns the p-quantile (linear interpolation, type-7) of an
// ascending-sorted sample.
func Quantile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 1 {
		return sorted[n-1]
	}
	h := p * float64(n-1)
	i := int(math.Floor(h))
	frac := h - float64(i)
	if i+1 >= n {
		return sorted[n-1]
	}
	return sorted[i]*(1-frac) + sorted[i+1]*frac
}

// Pearson returns the Pearson correlation coefficient of paired samples.
func Pearson(x, y []float64) (float64, error) {
	if len(x) != len(y) {
		return 0, ErrMismatch
	}
	n := len(x)
	if n < 2 {
		return 0, ErrEmpty
	}
	var sx, sy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
	}
	mx, my := sx/float64(n), sy/float64(n)
	var cov, vx, vy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		cov += dx * dy
		vx += dx * dx
		vy += dy * dy
	}
	if vx == 0 || vy == 0 {
		return 0, nil
	}
	return cov / math.Sqrt(vx*vy), nil
}

// Spearman returns the Spearman rank correlation (Pearson on midranks; ties
// receive the average of the ranks they span).
func Spearman(x, y []float64) (float64, error) {
	if len(x) != len(y) {
		return 0, ErrMismatch
	}
	rx := Ranks(x)
	ry := Ranks(y)
	return Pearson(rx, ry)
}

// Ranks returns 1-based midranks of the sample.
func Ranks(x []float64) []float64 {
	n := len(x)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return x[idx[a]] < x[idx[b]] })
	ranks := make([]float64, n)
	for i := 0; i < n; {
		j := i
		for j+1 < n && x[idx[j+1]] == x[idx[i]] {
			j++
		}
		// Average rank for the tie group [i, j].
		avg := (float64(i+1) + float64(j+1)) / 2
		for k := i; k <= j; k++ {
			ranks[idx[k]] = avg
		}
		i = j + 1
	}
	return ranks
}

// CorrelationTest reports the t-test p-value for H0: ρ=0 given a Pearson
// correlation r on n pairs.
func CorrelationTest(r float64, n int) float64 {
	if n < 3 || math.Abs(r) >= 1 {
		if math.Abs(r) >= 1 {
			return 0
		}
		return 1
	}
	t := r * math.Sqrt(float64(n-2)/(1-r*r))
	return 2 * mathx.StudentTSF(math.Abs(t), float64(n-2))
}
