package mathx

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	diff := math.Abs(a - b)
	if diff <= tol {
		return true
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= tol*scale
}

func TestGammaRegPKnownValues(t *testing.T) {
	// Reference values computed with mpmath.
	cases := []struct{ a, x, want float64 }{
		{1, 1, 0.6321205588285577},     // 1 - e^-1
		{0.5, 0.5, 0.6826894921370859}, // P(chi2_1 <= 1) interior
		{2, 2, 0.5939941502901616},
		{5, 2, 0.052653017343711174},
		{5, 10, 0.9707473119230389},
		{10, 10, 0.5420702855281478},
		{100, 90, 0.15822098918643017},
		{100, 110, 0.8417213299399129},
		{3, 1e-8, 1.6666666625e-25},
	}
	for _, c := range cases {
		got := GammaRegP(c.a, c.x)
		if !almostEqual(got, c.want, 1e-9) {
			t.Errorf("GammaRegP(%v, %v) = %v, want %v", c.a, c.x, got, c.want)
		}
	}
}

func TestGammaRegComplementarity(t *testing.T) {
	f := func(a, x float64) bool {
		a = 0.1 + math.Abs(math.Mod(a, 50))
		x = math.Abs(math.Mod(x, 100))
		p := GammaRegP(a, x)
		q := GammaRegQ(a, x)
		return almostEqual(p+q, 1, 1e-10) && p >= 0 && p <= 1 && q >= 0 && q <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestGammaRegMonotonicInX(t *testing.T) {
	for _, a := range []float64{0.5, 1, 3, 10, 42} {
		prev := -1.0
		for x := 0.0; x < 4*a; x += a / 10 {
			p := GammaRegP(a, x)
			if p < prev-1e-12 {
				t.Fatalf("GammaRegP(%v, ·) not monotone at x=%v: %v < %v", a, x, p, prev)
			}
			prev = p
		}
	}
}

func TestGammaRegEdgeCases(t *testing.T) {
	if v := GammaRegP(1, 0); v != 0 {
		t.Errorf("P(a,0) = %v, want 0", v)
	}
	if v := GammaRegQ(1, 0); v != 1 {
		t.Errorf("Q(a,0) = %v, want 1", v)
	}
	if !math.IsNaN(GammaRegP(-1, 1)) {
		t.Error("P(-1,1) should be NaN")
	}
	if !math.IsNaN(GammaRegP(1, -1)) {
		t.Error("P(1,-1) should be NaN")
	}
}

func TestBetaRegIKnownValues(t *testing.T) {
	cases := []struct{ x, a, b, want float64 }{
		{0.5, 1, 1, 0.5},
		{0.5, 2, 2, 0.5},
		{0.25, 2, 2, 0.15625},
		{0.5, 0.5, 0.5, 0.5},
		{0.9, 2, 5, 0.999945},
		{0.1, 5, 2, 5.5e-05},
		{0.3, 10, 10, 0.03255335740399916},
	}
	for _, c := range cases {
		got := BetaRegI(c.x, c.a, c.b)
		if !almostEqual(got, c.want, 1e-6) {
			t.Errorf("BetaRegI(%v, %v, %v) = %v, want %v", c.x, c.a, c.b, got, c.want)
		}
	}
}

func TestBetaRegISymmetry(t *testing.T) {
	// I_x(a,b) = 1 - I_{1-x}(b,a)
	f := func(x, a, b float64) bool {
		x = math.Abs(math.Mod(x, 1))
		a = 0.2 + math.Abs(math.Mod(a, 20))
		b = 0.2 + math.Abs(math.Mod(b, 20))
		lhs := BetaRegI(x, a, b)
		rhs := 1 - BetaRegI(1-x, b, a)
		return almostEqual(lhs, rhs, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestHurwitzZetaKnownValues(t *testing.T) {
	// ζ(s, 1) is the Riemann zeta function.
	cases := []struct{ s, q, want float64 }{
		{2, 1, math.Pi * math.Pi / 6},
		{4, 1, math.Pow(math.Pi, 4) / 90},
		{2, 2, math.Pi*math.Pi/6 - 1},
		{3, 1, 1.2020569031595943}, // Apery's constant
		{2.5, 10, 0.022728699194534540},
		{3.24, 1334, 4.4644456778097897e-08},
	}
	for _, c := range cases {
		got := HurwitzZeta(c.s, c.q)
		if !almostEqual(got, c.want, 1e-8) {
			t.Errorf("HurwitzZeta(%v, %v) = %v, want %v", c.s, c.q, got, c.want)
		}
	}
}

func TestHurwitzZetaRecurrence(t *testing.T) {
	// ζ(s, q) = ζ(s, q+1) + q^-s
	f := func(s, q float64) bool {
		s = 1.1 + math.Abs(math.Mod(s, 5))
		q = 0.5 + math.Abs(math.Mod(q, 1000))
		lhs := HurwitzZeta(s, q)
		rhs := HurwitzZeta(s, q+1) + math.Pow(q, -s)
		return almostEqual(lhs, rhs, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestLogFactorialAndChoose(t *testing.T) {
	if !almostEqual(LogFactorial(5), math.Log(120), 1e-12) {
		t.Error("LogFactorial(5) wrong")
	}
	if !math.IsNaN(LogFactorial(-1)) {
		t.Error("LogFactorial(-1) should be NaN")
	}
}
