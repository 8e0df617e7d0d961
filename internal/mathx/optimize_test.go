package mathx

import (
	"math"
	"testing"
)

func TestMinimizeBrentQuadratic(t *testing.T) {
	f := func(x float64) float64 { return (x - 3.7) * (x - 3.7) }
	x, fx := MinimizeBrent(f, -10, 10, 1e-10, 200)
	if math.Abs(x-3.7) > 1e-7 {
		t.Errorf("minimum at %v, want 3.7", x)
	}
	if fx > 1e-12 {
		t.Errorf("f(min) = %v, want ~0", fx)
	}
}

func TestMinimizeBrentNonSymmetric(t *testing.T) {
	// Negative log-likelihood-like shape: x - ln(x) has min at x=1.
	f := func(x float64) float64 { return x - math.Log(x) }
	x, _ := MinimizeBrent(f, 0.01, 50, 1e-10, 200)
	if math.Abs(x-1) > 1e-6 {
		t.Errorf("minimum at %v, want 1", x)
	}
}

func TestMinimizeBrentSwappedBounds(t *testing.T) {
	f := func(x float64) float64 { return x * x }
	x, _ := MinimizeBrent(f, 5, -5, 1e-9, 200)
	if math.Abs(x) > 1e-6 {
		t.Errorf("minimum at %v, want 0", x)
	}
}

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 1) != 1 || Clamp(-5, 0, 1) != 0 || Clamp(0.5, 0, 1) != 0.5 {
		t.Error("Clamp misbehaves")
	}
}
