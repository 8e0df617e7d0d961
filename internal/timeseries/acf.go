// Package timeseries implements the activity-analysis toolkit of the paper's
// §V: autocorrelation and the Ljung–Box / Box–Pierce portmanteau tests, the
// Augmented Dickey–Fuller unit-root test with MacKinnon critical values, the
// PELT change-point algorithm (with a binary-segmentation baseline and the
// paper's penalty-sweep protocol), and a calendar heatmap renderer for daily
// activity series (Figure 6).
package timeseries

import (
	"errors"

	"elites/internal/mathx"
)

// ErrShortSeries indicates the series is too short for the requested
// analysis.
var ErrShortSeries = errors.New("timeseries: series too short")

// ACF returns the sample autocorrelation function ρ̂_1..ρ̂_maxLag (index 0 of
// the result is lag 1). The denominator is the lag-0 autocovariance, the
// standard biased estimator used by portmanteau statistics.
func ACF(x []float64, maxLag int) ([]float64, error) {
	n := len(x)
	if n < 2 {
		return nil, ErrShortSeries
	}
	if maxLag >= n {
		maxLag = n - 1
	}
	if maxLag < 1 {
		return nil, ErrShortSeries
	}
	mean := 0.0
	for _, v := range x {
		mean += v
	}
	mean /= float64(n)
	c0 := 0.0
	for _, v := range x {
		d := v - mean
		c0 += d * d
	}
	if c0 == 0 {
		return make([]float64, maxLag), nil
	}
	out := make([]float64, maxLag)
	for k := 1; k <= maxLag; k++ {
		s := 0.0
		for t := k; t < n; t++ {
			s += (x[t] - mean) * (x[t-k] - mean)
		}
		out[k-1] = s / c0
	}
	return out, nil
}

// PortmanteauResult reports a Ljung–Box or Box–Pierce test at a single lag
// horizon.
type PortmanteauResult struct {
	Lag       int
	Statistic float64
	PValue    float64 // chi-square survival with Lag dof
}

// LjungBox runs the Ljung–Box test for every horizon h = 1..maxLag:
// Q(h) = n(n+2) Σ_{k≤h} ρ̂_k²/(n−k), compared to χ²_h. Small p-values reject
// the null of no autocorrelation. The paper evaluates horizons up to 185
// days and reports a maximum p of 3.81e-38.
func LjungBox(x []float64, maxLag int) ([]PortmanteauResult, error) {
	rho, err := ACF(x, maxLag)
	if err != nil {
		return nil, err
	}
	n := float64(len(x))
	out := make([]PortmanteauResult, len(rho))
	q := 0.0
	for k := 1; k <= len(rho); k++ {
		q += rho[k-1] * rho[k-1] / (n - float64(k))
		stat := n * (n + 2) * q
		out[k-1] = PortmanteauResult{
			Lag:       k,
			Statistic: stat,
			PValue:    mathx.ChiSquareSF(stat, float64(k)),
		}
	}
	return out, nil
}

// BoxPierce runs the Box–Pierce test Q(h) = n Σ_{k≤h} ρ̂_k² for every
// horizon up to maxLag.
func BoxPierce(x []float64, maxLag int) ([]PortmanteauResult, error) {
	rho, err := ACF(x, maxLag)
	if err != nil {
		return nil, err
	}
	n := float64(len(x))
	out := make([]PortmanteauResult, len(rho))
	q := 0.0
	for k := 1; k <= len(rho); k++ {
		q += rho[k-1] * rho[k-1]
		stat := n * q
		out[k-1] = PortmanteauResult{
			Lag:       k,
			Statistic: stat,
			PValue:    mathx.ChiSquareSF(stat, float64(k)),
		}
	}
	return out, nil
}

// MaxPValue returns the largest p-value across horizons — the summary the
// paper reports ("maximum p value of 3.81e-38").
func MaxPValue(results []PortmanteauResult) float64 {
	m := 0.0
	for _, r := range results {
		if r.PValue > m {
			m = r.PValue
		}
	}
	return m
}

// Difference returns the first difference x_t − x_{t−1} (length n−1).
func Difference(x []float64) []float64 {
	if len(x) < 2 {
		return nil
	}
	out := make([]float64, len(x)-1)
	for i := 1; i < len(x); i++ {
		out[i-1] = x[i] - x[i-1]
	}
	return out
}
