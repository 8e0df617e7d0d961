package mathx

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNormalCDFKnownValues(t *testing.T) {
	cases := []struct{ x, want float64 }{
		{0, 0.5},
		{1, 0.8413447460685429},
		{-1, 0.15865525393145707},
		{1.959963984540054, 0.975},
		{-3, 0.0013498980316300933},
		{5, 0.9999997133484281},
	}
	for _, c := range cases {
		if got := NormalCDF(c.x); !almostEqual(got, c.want, 1e-10) {
			t.Errorf("NormalCDF(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestNormalQuantileRoundTrip(t *testing.T) {
	f := func(p float64) bool {
		p = math.Abs(math.Mod(p, 1))
		if p < 1e-10 || p > 1-1e-10 {
			return true
		}
		x := NormalQuantile(p)
		return almostEqual(NormalCDF(x), p, 1e-10)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestNormalQuantileTails(t *testing.T) {
	for _, p := range []float64{1e-12, 1e-8, 1e-4, 0.5, 0.9999, 1 - 1e-8} {
		x := NormalQuantile(p)
		if got := NormalCDF(x); !almostEqual(got, p, 1e-8) {
			t.Errorf("round trip at p=%v: got %v", p, got)
		}
	}
	if !math.IsInf(NormalQuantile(0), -1) || !math.IsInf(NormalQuantile(1), 1) {
		t.Error("quantile at 0/1 should be infinite")
	}
}

func TestChiSquareCDF(t *testing.T) {
	// Reference values from R pchisq.
	cases := []struct {
		x, k, want float64
	}{
		{3.841458820694124, 1, 0.95},
		{5.991464547107979, 2, 0.95},
		{18.307038053275146, 10, 0.95},
		{10, 10, 0.5595067149347875},
		{185, 185, 0.5138274914069601},
	}
	for _, c := range cases {
		if got := 1 - ChiSquareSF(c.x, c.k); !almostEqual(got, c.want, 1e-8) {
			t.Errorf("1 - ChiSquareSF(%v, %v) = %v, want %v", c.x, c.k, got, c.want)
		}
	}
}

func TestChiSquareSFComplement(t *testing.T) {
	f := func(x, k float64) bool {
		x = math.Abs(math.Mod(x, 300))
		k = 1 + math.Abs(math.Mod(k, 200))
		return almostEqual(GammaRegP(k/2, x/2)+ChiSquareSF(x, k), 1, 1e-10)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestStudentTCDF(t *testing.T) {
	// Reference values from R pt.
	cases := []struct{ t, nu, want float64 }{
		{0, 5, 0.5},
		{1, 1, 0.75},
		{2.0, 10, 0.96330598},
		{-2.0, 10, 0.03669402},
		{1.96, 1000, 0.97486341},
		{-3.86, 300, 0.00006944}, // deep left tail like the ADF statistic
	}
	for _, c := range cases {
		if got := StudentTCDF(c.t, c.nu); !almostEqual(got, c.want, 1e-4) {
			t.Errorf("StudentTCDF(%v, %v) = %v, want %v", c.t, c.nu, got, c.want)
		}
	}
}

func TestStudentTApproachesNormal(t *testing.T) {
	for _, x := range []float64{-2, -1, 0, 0.5, 1.5, 3} {
		tv := StudentTCDF(x, 1e7)
		nv := NormalCDF(x)
		if !almostEqual(tv, nv, 1e-5) {
			t.Errorf("t(1e7) at %v: %v vs normal %v", x, tv, nv)
		}
	}
}

func TestPoissonLogPMFSumsToOne(t *testing.T) {
	for _, mu := range []float64{0.5, 3, 20} {
		sum := 0.0
		for k := 0; k < 200; k++ {
			sum += math.Exp(PoissonLogPMF(k, mu))
		}
		if !almostEqual(sum, 1, 1e-9) {
			t.Errorf("Poisson pmf(mu=%v) sums to %v", mu, sum)
		}
	}
}

func TestLogNormalLogPDFIntegratesToOne(t *testing.T) {
	// Trapezoid integration over a wide support.
	mu, sigma := 0.7, 0.9
	sum := 0.0
	dx := 0.001
	for x := dx; x < 200; x += dx {
		sum += math.Exp(LogNormalLogPDF(x, mu, sigma)) * dx
	}
	if !almostEqual(sum, 1, 1e-3) {
		t.Errorf("lognormal pdf integrates to %v", sum)
	}
}
