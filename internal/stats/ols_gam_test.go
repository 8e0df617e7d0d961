package stats

import (
	"math"
	"testing"

	"elites/internal/linalg"
	"elites/internal/mathx"
)

// designWithIntercept assembles a design matrix [1 | cols...] from column
// vectors of equal length.
func designWithIntercept(cols ...[]float64) *linalg.Matrix {
	m := linalg.NewMatrix(len(cols[0]), len(cols)+1)
	for i := range cols[0] {
		m.Set(i, 0, 1)
		for j, c := range cols {
			m.Set(i, j+1, c[i])
		}
	}
	return m
}

func TestOLSRecoversCoefficients(t *testing.T) {
	rng := mathx.NewRNG(1)
	n := 500
	x1 := make([]float64, n)
	x2 := make([]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		x1[i] = rng.Normal()
		x2[i] = rng.Normal()
		y[i] = 2 + 3*x1[i] - 1.5*x2[i] + 0.1*rng.Normal()
	}
	design := designWithIntercept(x1, x2)
	res, err := OLS(design, y)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 3, -1.5}
	for j, w := range want {
		if math.Abs(res.Coef[j]-w) > 0.05 {
			t.Fatalf("β[%d] = %v, want %v", j, res.Coef[j], w)
		}
		if res.PValue[j] > 1e-10 {
			t.Fatalf("p[%d] = %v, want tiny", j, res.PValue[j])
		}
	}
	if res.R2 < 0.99 {
		t.Fatalf("R² = %v", res.R2)
	}
	if res.DF != n-3 {
		t.Fatalf("DF = %d", res.DF)
	}
}

func TestOLSNullCoefficientPValue(t *testing.T) {
	// x2 unrelated to y: its p-value should usually be > 0.05.
	rng := mathx.NewRNG(2)
	reject := 0
	const trials = 40
	for trial := 0; trial < trials; trial++ {
		n := 200
		x1 := make([]float64, n)
		x2 := make([]float64, n)
		y := make([]float64, n)
		for i := 0; i < n; i++ {
			x1[i] = rng.Normal()
			x2[i] = rng.Normal()
			y[i] = 1 + 2*x1[i] + rng.Normal()
		}
		design := designWithIntercept(x1, x2)
		res, err := OLS(design, y)
		if err != nil {
			t.Fatal(err)
		}
		if res.PValue[2] < 0.05 {
			reject++
		}
	}
	// 5% level: expect ~2 rejections in 40; allow up to 8.
	if reject > 8 {
		t.Fatalf("null coefficient rejected %d/%d times", reject, trials)
	}
}

func TestOLSSingular(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	design := designWithIntercept(x, x) // perfectly collinear
	if _, err := OLS(design, []float64{1, 2, 3, 4}); err != ErrSingular {
		t.Fatalf("want ErrSingular, got %v", err)
	}
}

func TestOLSDimensionErrors(t *testing.T) {
	design := designWithIntercept([]float64{1, 2})
	if _, err := OLS(design, []float64{1, 2, 3}); err != ErrMismatch {
		t.Fatal("length mismatch should error")
	}
}

func TestSplineFitsLinearExactly(t *testing.T) {
	// A heavily penalized 2nd-order P-spline shrinks to a line; a linear
	// signal should be recovered essentially exactly at any lambda.
	rng := mathx.NewRNG(3)
	n := 300
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = rng.Float64() * 10
		y[i] = 1 + 2*x[i]
	}
	sp, err := FitSpline(x, y)
	if err != nil {
		t.Fatal(err)
	}
	for _, x0 := range []float64{0.5, 3, 7.5, 9.5} {
		if math.Abs(sp.Eval(x0)-(1+2*x0)) > 0.05 {
			t.Fatalf("Eval(%v) = %v, want %v", x0, sp.Eval(x0), 1+2*x0)
		}
	}
}

func TestSplineRecoverySine(t *testing.T) {
	rng := mathx.NewRNG(4)
	n := 1500
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = rng.Float64() * 2 * math.Pi
		y[i] = math.Sin(x[i]) + 0.2*rng.Normal()
	}
	sp, err := FitSpline(x, y)
	if err != nil {
		t.Fatal(err)
	}
	maxErr := 0.0
	for _, x0 := range []float64{0.5, 1.5, 2.5, 3.5, 4.5, 5.5} {
		e := math.Abs(sp.Eval(x0) - math.Sin(x0))
		if e > maxErr {
			maxErr = e
		}
	}
	if maxErr > 0.12 {
		t.Fatalf("sine recovery error %v", maxErr)
	}
	if sp.EDF < 4 || sp.EDF > 25 {
		t.Fatalf("EDF = %v, implausible for a sine", sp.EDF)
	}
}

func TestSplineBandsCoverTruth(t *testing.T) {
	rng := mathx.NewRNG(5)
	n := 800
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = rng.Float64() * 4
		y[i] = x[i]*x[i] + rng.Normal()
	}
	sp, err := FitSpline(x, y)
	if err != nil {
		t.Fatal(err)
	}
	curve := sp.Curve(30)
	covered := 0
	for _, cp := range curve {
		truth := cp.X * cp.X
		if truth >= cp.Lo && truth <= cp.Hi {
			covered++
		}
		if cp.Hi < cp.Lo {
			t.Fatal("band inverted")
		}
	}
	// Pointwise 95% bands should cover the truth at most points.
	if covered < 24 {
		t.Fatalf("bands cover truth at only %d/30 points", covered)
	}
}

func TestSplineErrors(t *testing.T) {
	if _, err := FitSpline([]float64{1, 2}, []float64{1}); err != ErrMismatch {
		t.Fatal("mismatch should error")
	}
	if _, err := FitSpline([]float64{1, 2, 3}, []float64{1, 2, 3}); err != ErrEmpty {
		t.Fatal("too few points should error")
	}
	if _, err := FitSpline([]float64{2, 2, 2, 2, 2}, []float64{1, 2, 3, 4, 5}); err != ErrBadSpline {
		t.Fatal("zero x-range should error")
	}
}

func TestSplineSmallSampleShrinksBasis(t *testing.T) {
	rng := mathx.NewRNG(6)
	n := 12 // far fewer than the default 23 basis functions
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = float64(i)
		y[i] = 3 * x[i]
		_ = rng
	}
	sp, err := FitSpline(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sp.Eval(5)-15) > 0.5 {
		t.Fatalf("small-sample fit Eval(5) = %v", sp.Eval(5))
	}
}
