package mathx

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must produce same stream")
		}
	}
	c := NewRNG(43)
	same := 0
	a = NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds should diverge, %d collisions", same)
	}
}

func TestIntnBounds(t *testing.T) {
	r := NewRNG(1)
	f := func(n uint16) bool {
		m := int(n%1000) + 1
		v := r.Intn(m)
		return v >= 0 && v < m
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) should panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	r := NewRNG(99)
	const n, trials = 10, 100000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(trials) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d count %d deviates from %v", i, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestNormalMoments(t *testing.T) {
	r := NewRNG(5)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.Normal()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.01 {
		t.Errorf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Errorf("normal variance = %v, want ~1", variance)
	}
}

func TestParetoTailIndex(t *testing.T) {
	// Hill estimator on Pareto(1, alpha) samples should recover alpha.
	r := NewRNG(11)
	const n = 100000
	alpha := 3.2
	sumLog := 0.0
	for i := 0; i < n; i++ {
		sumLog += math.Log(r.Pareto(1, alpha))
	}
	// For density exponent alpha, E[ln(x/xmin)] = 1/(alpha-1).
	est := 1 + 1/(sumLog/float64(n))
	if math.Abs(est-alpha) > 0.05 {
		t.Errorf("Pareto MLE alpha = %v, want %v", est, alpha)
	}
}

func TestParetoIntSupport(t *testing.T) {
	r := NewRNG(13)
	for i := 0; i < 10000; i++ {
		v := r.ParetoInt(5, 2.5)
		if v < 5 {
			t.Fatalf("ParetoInt below xmin: %d", v)
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := NewRNG(23)
	f := func(n uint8) bool {
		m := int(n%50) + 1
		p := r.Perm(m)
		seen := make([]bool, m)
		for _, v := range p {
			if v < 0 || v >= m || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestZipfSamplerDistribution(t *testing.T) {
	r := NewRNG(29)
	z := NewZipfSampler(100, 1.5)
	const n = 100000
	counts := make([]int, 101)
	for i := 0; i < n; i++ {
		v := z.Sample(r)
		if v < 1 || v > 100 {
			t.Fatalf("Zipf out of range: %d", v)
		}
		counts[v]++
	}
	// P(1)/P(2) should be 2^1.5.
	ratio := float64(counts[1]) / float64(counts[2])
	if math.Abs(ratio-math.Pow(2, 1.5)) > 0.3 {
		t.Errorf("Zipf ratio P(1)/P(2) = %v, want %v", ratio, math.Pow(2, 1.5))
	}
}

func TestWeightedSamplerProportions(t *testing.T) {
	r := NewRNG(31)
	weights := []float64{1, 0, 3, 6}
	ws := NewWeightedSampler(weights)
	const n = 100000
	counts := make([]int, len(weights))
	for i := 0; i < n; i++ {
		counts[ws.Sample(r)]++
	}
	if counts[1] != 0 {
		t.Errorf("zero-weight index sampled %d times", counts[1])
	}
	total := 1.0 + 3 + 6
	for i, w := range weights {
		want := float64(n) * w / total
		if math.Abs(float64(counts[i])-want) > 5*math.Sqrt(want+1) {
			t.Errorf("index %d count %d, want ~%v", i, counts[i], want)
		}
	}
}

func TestWeightedSamplerPanics(t *testing.T) {
	for _, w := range [][]float64{{0, 0}, {-1, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("weights %v should panic", w)
				}
			}()
			NewWeightedSampler(w)
		}()
	}
}

func TestDeriveOrderIndependence(t *testing.T) {
	// Deriving does not consume from the parent, so label streams are the
	// same whatever order (or how often) they are derived.
	a := NewRNG(7)
	x1 := a.Derive("degree").Uint64()
	y1 := a.Derive("eigen").Uint64()
	b := NewRNG(7)
	y2 := b.Derive("eigen").Uint64()
	x2 := b.Derive("degree").Uint64()
	if x1 != x2 || y1 != y2 {
		t.Fatalf("derived streams depend on call order: (%d,%d) vs (%d,%d)", x1, y1, x2, y2)
	}
	if z := a.Derive("degree").Uint64(); z != x1 {
		t.Fatalf("re-deriving same label diverged: %d vs %d", z, x1)
	}
}

func TestDeriveDoesNotAdvanceParent(t *testing.T) {
	a, b := NewRNG(11), NewRNG(11)
	_ = a.Derive("anything")
	_ = a.Derive("else")
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("Derive advanced the parent stream")
		}
	}
}

func TestDeriveIndependentStreams(t *testing.T) {
	// Distinct labels and distinct parents must give distinct streams; the
	// same label on differently-positioned parents must too (Derive keys on
	// state, not the original seed).
	base := NewRNG(3)
	s1 := base.Derive("distances")
	s2 := base.Derive("centrality")
	if s1.Uint64() == s2.Uint64() && s1.Uint64() == s2.Uint64() {
		t.Fatal("distinct labels produced identical streams")
	}
	other := NewRNG(4)
	if base.Derive("x").Uint64() == other.Derive("x").Uint64() {
		t.Fatal("distinct parents produced identical streams")
	}
	advanced := NewRNG(3)
	advanced.Uint64()
	if base.Derive("x").Uint64() == advanced.Derive("x").Uint64() {
		t.Fatal("Derive ignored parent state position")
	}
	// Crude independence check: correlation of paired uniforms stays small.
	u, v := base.Derive("u"), base.Derive("v")
	n := 20000
	var sx, sy, sxy float64
	for i := 0; i < n; i++ {
		x, y := u.Float64(), v.Float64()
		sx += x
		sy += y
		sxy += x * y
	}
	cov := sxy/float64(n) - (sx/float64(n))*(sy/float64(n))
	if math.Abs(cov) > 0.01 {
		t.Fatalf("derived streams correlated: cov=%v", cov)
	}
}

func TestDeriveIntoMatchesDerive(t *testing.T) {
	base := NewRNG(77)
	var dst RNG
	for _, label := range []string{"gof/0", "gof/17", "", "x"} {
		want := base.Derive(label)
		base.DeriveInto(&dst, []byte(label))
		for i := 0; i < 16; i++ {
			if got, w := dst.Uint64(), want.Uint64(); got != w {
				t.Fatalf("label %q draw %d: DeriveInto %v != Derive %v", label, i, got, w)
			}
		}
	}
	// Reseeding must clear the cached normal spare: a generator that has
	// consumed one Normal draw and is then re-derived must match a fresh one.
	a := base.Derive("n")
	base.DeriveInto(&dst, []byte("n"))
	dst.Normal()
	base.DeriveInto(&dst, []byte("n"))
	if a.Normal() != dst.Normal() {
		t.Fatal("DeriveInto left stale Box-Muller spare state behind")
	}
}

func TestReseedMatchesNewRNG(t *testing.T) {
	r := NewRNG(1)
	r.Normal() // leave spare state behind
	r.Reseed(42)
	want := NewRNG(42)
	for i := 0; i < 8; i++ {
		if r.Uint64() != want.Uint64() {
			t.Fatalf("Reseed(42) draw %d diverges from NewRNG(42)", i)
		}
	}
}
