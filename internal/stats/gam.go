package stats

import (
	"errors"
	"math"

	"elites/internal/linalg"
	"elites/internal/mathx"
)

// ErrBadSpline flags input the smoother cannot fit.
var ErrBadSpline = errors.New("stats: bad spline configuration")

// The smoother's settings: a cubic B-spline basis over 20 segments (fewer
// on samples too small for it) with a second-order difference penalty on
// curvature. GCV scans λ = 10^e for e = −4, −3.5, …, 6.
const (
	splineSegments = 20
	splineDegree   = 3
	penaltyOrder   = 2
)

// Spline is a fitted penalized regression spline (P-spline, Eilers & Marx):
// a cubic B-spline basis with a difference penalty on adjacent coefficients,
// the smoothing parameter chosen by generalized cross-validation. It plays
// the role of the "regression splines computed using a generalized additive
// model" in the paper's Figure 5.
type Spline struct {
	// Lambda is the GCV-selected smoothing parameter.
	Lambda float64
	// EDF is the effective degrees of freedom tr(H) at Lambda.
	EDF float64
	// GCV is the criterion value at Lambda.
	GCV float64
	// Sigma2 is the residual variance estimate RSS/(n − EDF).
	Sigma2 float64

	coef     []float64
	covB     *linalg.Matrix // Bayesian covariance σ²·(BᵀB+λP)⁻¹
	lo, hi   float64
	segments int
}

// FitSpline fits the smoother to (x, y). x need not be sorted; degenerate
// inputs (fewer points than basis functions, or zero x-range) reduce the
// basis automatically.
func FitSpline(x, y []float64) (*Spline, error) {
	if len(x) != len(y) {
		return nil, ErrMismatch
	}
	n := len(x)
	if n < 4 {
		return nil, ErrEmpty
	}
	lo, hi := x[0], x[0]
	for _, v := range x {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if hi-lo <= 0 {
		return nil, ErrBadSpline
	}
	// Basis must be smaller than the sample.
	segments := splineSegments
	for segments+splineDegree >= n && segments > 2 {
		segments--
	}
	nb := segments + splineDegree
	b := bsplineBasis(x, lo, hi, segments, splineDegree)
	// Difference penalty matrix P = DᵀD.
	d := diffMatrix(nb, penaltyOrder)
	pen := linalg.TMul(d, d)
	btb := linalg.TMul(b, b)
	bty := b.TMulVec(y)

	var best *Spline
	for e := -4.0; e <= 6.0; e += 0.5 {
		lambda := math.Pow(10, e)
		a := btb.Clone()
		a.AddScaled(lambda, pen)
		// Tiny ridge for numerical definiteness with sparse data.
		a.AddScaledIdentity(1e-9)
		ch, err := linalg.NewCholesky(a)
		if err != nil {
			continue
		}
		coef := ch.Solve(bty)
		fitted := b.MulVec(coef)
		rss := 0.0
		for i := range y {
			r := y[i] - fitted[i]
			rss += r * r
		}
		// Effective df: tr(H) = tr((BᵀB+λP)⁻¹ BᵀB).
		ainvBtb := ch.SolveMatrix(btb)
		edf := 0.0
		for i := 0; i < nb; i++ {
			edf += ainvBtb.At(i, i)
		}
		den := 1 - edf/float64(n)
		if den <= 0 {
			continue
		}
		gcv := rss / (float64(n) * den * den)
		if best == nil || gcv < best.GCV {
			sigma2 := rss / math.Max(float64(n)-edf, 1)
			covB := ch.Inverse()
			for i := range covB.Data {
				covB.Data[i] *= sigma2
			}
			best = &Spline{
				Lambda:   lambda,
				EDF:      edf,
				GCV:      gcv,
				Sigma2:   sigma2,
				coef:     coef,
				covB:     covB,
				lo:       lo,
				hi:       hi,
				segments: segments,
			}
		}
	}
	if best == nil {
		return nil, ErrBadSpline
	}
	return best, nil
}

// Eval returns the fitted mean at x0 (clamped into the fit range).
func (s *Spline) Eval(x0 float64) float64 {
	row := bsplineBasis([]float64{mathx.Clamp(x0, s.lo, s.hi)}, s.lo, s.hi, s.segments, splineDegree)
	v := 0.0
	for j := 0; j < row.Cols; j++ {
		v += row.At(0, j) * s.coef[j]
	}
	return v
}

// SE returns the pointwise standard error of the fitted mean at x0.
func (s *Spline) SE(x0 float64) float64 {
	row := bsplineBasis([]float64{mathx.Clamp(x0, s.lo, s.hi)}, s.lo, s.hi, s.segments, splineDegree)
	b := make([]float64, row.Cols)
	for j := range b {
		b[j] = row.At(0, j)
	}
	cv := s.covB.MulVec(b)
	return math.Sqrt(math.Max(linalg.Dot(b, cv), 0))
}

// CurvePoint is one evaluation of the smoother with its 95% band.
type CurvePoint struct {
	X, Y, Lo, Hi float64
}

// Curve evaluates the smoother with ±1.96·SE bands on k points spanning the
// fitted range.
func (s *Spline) Curve(k int) []CurvePoint {
	if k < 2 {
		k = 2
	}
	out := make([]CurvePoint, k)
	for i := 0; i < k; i++ {
		x := s.lo + (s.hi-s.lo)*float64(i)/float64(k-1)
		y := s.Eval(x)
		se := s.SE(x)
		out[i] = CurvePoint{X: x, Y: y, Lo: y - 1.96*se, Hi: y + 1.96*se}
	}
	return out
}

// bsplineBasis evaluates the B-spline basis matrix (Cox–de Boor recursion)
// for the given points over [lo, hi] with nseg equal segments and the given
// degree. Rows are points, columns the nseg+degree basis functions.
func bsplineBasis(xs []float64, lo, hi float64, nseg, degree int) *linalg.Matrix {
	nb := nseg + degree
	h := (hi - lo) / float64(nseg)
	// Extended knot vector with degree extra knots on each side.
	nKnots := nseg + 2*degree + 1
	knots := make([]float64, nKnots)
	for i := range knots {
		knots[i] = lo + h*float64(i-degree)
	}
	m := linalg.NewMatrix(len(xs), nb)
	basis := make([]float64, nKnots-1)
	for r, x := range xs {
		if x < lo {
			x = lo
		}
		if x > hi {
			x = hi
		}
		// Degree-0 basis: indicator of the knot span, with the right
		// edge folded into the last interior span.
		span := int((x - lo) / h)
		if span >= nseg {
			span = nseg - 1
		}
		for i := range basis {
			basis[i] = 0
		}
		basis[span+degree] = 1
		// Raise the degree.
		for d := 1; d <= degree; d++ {
			for i := 0; i < nKnots-d-1; i++ {
				var left, right float64
				if den := knots[i+d] - knots[i]; den > 0 && basis[i] != 0 {
					left = (x - knots[i]) / den * basis[i]
				}
				if den := knots[i+d+1] - knots[i+1]; den > 0 && basis[i+1] != 0 {
					right = (knots[i+d+1] - x) / den * basis[i+1]
				}
				basis[i] = left + right
			}
		}
		for j := 0; j < nb; j++ {
			m.Set(r, j, basis[j])
		}
	}
	return m
}

// diffMatrix returns the order-k difference operator D with shape
// (n−k)×n (D1 = first differences, D2 = second differences, ...).
func diffMatrix(n, k int) *linalg.Matrix {
	// Start with identity and difference k times.
	cur := linalg.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		cur.Set(i, i, 1)
	}
	for step := 0; step < k; step++ {
		rows := cur.Rows - 1
		next := linalg.NewMatrix(rows, n)
		for i := 0; i < rows; i++ {
			for j := 0; j < n; j++ {
				next.Set(i, j, cur.At(i+1, j)-cur.At(i, j))
			}
		}
		cur = next
	}
	return cur
}
