package stats

import (
	"math"
	"testing"
	"testing/quick"

	"elites/internal/mathx"
)

func TestQuantile(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5}
	cases := []struct{ p, want float64 }{
		{0, 1}, {1, 5}, {0.5, 3}, {0.25, 2}, {0.75, 4}, {0.1, 1.4},
	}
	for _, c := range cases {
		if got := Quantile(sorted, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Fatalf("Quantile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Fatal("empty quantile should be NaN")
	}
}

func TestPearsonPerfect(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	y := []float64{2, 4, 6, 8}
	r, err := Pearson(x, y)
	if err != nil || math.Abs(r-1) > 1e-12 {
		t.Fatalf("r = %v, err %v", r, err)
	}
	yn := []float64{-1, -2, -3, -4}
	r, _ = Pearson(x, yn)
	if math.Abs(r+1) > 1e-12 {
		t.Fatalf("r = %v, want -1", r)
	}
}

func TestPearsonConstantIsZero(t *testing.T) {
	r, err := Pearson([]float64{1, 1, 1}, []float64{1, 2, 3})
	if err != nil || r != 0 {
		t.Fatalf("constant series: r=%v err=%v", r, err)
	}
}

func TestSpearmanMonotone(t *testing.T) {
	// Any monotone transform has Spearman 1.
	x := []float64{1, 5, 2, 8, 3}
	y := make([]float64, len(x))
	for i, v := range x {
		y[i] = math.Exp(v)
	}
	r, err := Spearman(x, y)
	if err != nil || math.Abs(r-1) > 1e-12 {
		t.Fatalf("Spearman = %v, err %v", r, err)
	}
}

func TestRanksWithTies(t *testing.T) {
	r := Ranks([]float64{10, 20, 20, 30})
	want := []float64{1, 2.5, 2.5, 4}
	for i := range want {
		if r[i] != want[i] {
			t.Fatalf("ranks = %v", r)
		}
	}
}

func TestCorrelationTest(t *testing.T) {
	// Strong correlation on decent n: tiny p.
	if p := CorrelationTest(0.9, 100); p > 1e-10 {
		t.Fatalf("p = %v, want tiny", p)
	}
	// Zero correlation: p = 1.
	if p := CorrelationTest(0, 100); math.Abs(p-1) > 1e-9 {
		t.Fatalf("p = %v, want 1", p)
	}
	if p := CorrelationTest(1, 50); p != 0 {
		t.Fatalf("perfect r: p = %v", p)
	}
}

func TestPearsonPropertySymmetricBounded(t *testing.T) {
	rng := mathx.NewRNG(2)
	f := func(seed uint32) bool {
		n := 3 + rng.Intn(50)
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = rng.Normal()
			y[i] = rng.Normal()
		}
		rxy, _ := Pearson(x, y)
		ryx, _ := Pearson(y, x)
		return math.Abs(rxy-ryx) < 1e-12 && rxy >= -1-1e-12 && rxy <= 1+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
