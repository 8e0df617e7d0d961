package linalg

import (
	"math"
	"testing"
	"testing/quick"

	"elites/internal/mathx"
)

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(0, 0, 1)
	m.Set(0, 2, 5)
	m.Set(1, 1, -2)
	if m.At(0, 2) != 5 || m.At(1, 1) != -2 || m.At(1, 0) != 0 {
		t.Fatal("At/Set broken")
	}
	m.Add(0, 0, 2)
	if m.At(0, 0) != 3 {
		t.Fatal("Add broken")
	}
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.At(0, 0) != 3 {
		t.Fatal("Clone aliases data")
	}
}

func TestMulVec(t *testing.T) {
	m := NewMatrix(2, 3)
	// [1 2 3; 4 5 6]
	for j := 0; j < 3; j++ {
		m.Set(0, j, float64(j+1))
		m.Set(1, j, float64(j+4))
	}
	y := m.MulVec([]float64{1, 1, 1})
	if y[0] != 6 || y[1] != 15 {
		t.Fatalf("MulVec = %v", y)
	}
	z := m.TMulVec([]float64{1, 1})
	if z[0] != 5 || z[1] != 7 || z[2] != 9 {
		t.Fatalf("TMulVec = %v", z)
	}
}

func TestMulAgainstManual(t *testing.T) {
	a := NewMatrix(2, 2)
	a.Set(0, 0, 1)
	a.Set(0, 1, 2)
	a.Set(1, 0, 3)
	a.Set(1, 1, 4)
	b := NewMatrix(2, 2)
	b.Set(0, 0, 5)
	b.Set(0, 1, 6)
	b.Set(1, 0, 7)
	b.Set(1, 1, 8)
	c := Mul(a, b)
	want := [][]float64{{19, 22}, {43, 50}}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if c.At(i, j) != want[i][j] {
				t.Fatalf("Mul[%d][%d] = %v, want %v", i, j, c.At(i, j), want[i][j])
			}
		}
	}
}

func TestTMulEqualsTransposeMul(t *testing.T) {
	r := mathx.NewRNG(1)
	a := randMatrix(r, 7, 4)
	b := randMatrix(r, 7, 5)
	c1 := TMul(a, b)
	c2 := Mul(a.Transpose(), b)
	assertMatrixEqual(t, c1, c2, 1e-12)
	d1 := MulT(a.Transpose(), b.Transpose())
	assertMatrixEqual(t, d1, c1, 1e-12)
}

func randMatrix(r *mathx.RNG, rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = r.Normal()
	}
	return m
}

func assertMatrixEqual(t *testing.T, a, b *Matrix, tol float64) {
	t.Helper()
	if a.Rows != b.Rows || a.Cols != b.Cols {
		t.Fatalf("shape mismatch %dx%d vs %dx%d", a.Rows, a.Cols, b.Rows, b.Cols)
	}
	for i := range a.Data {
		if math.Abs(a.Data[i]-b.Data[i]) > tol {
			t.Fatalf("entry %d: %v vs %v", i, a.Data[i], b.Data[i])
		}
	}
}

func spdMatrix(r *mathx.RNG, n int) *Matrix {
	g := randMatrix(r, n+3, n)
	a := TMul(g, g)
	a.AddScaledIdentity(0.5)
	return a
}

func TestCholeskySolve(t *testing.T) {
	r := mathx.NewRNG(2)
	for _, n := range []int{1, 2, 5, 20, 50} {
		a := spdMatrix(r, n)
		xTrue := make([]float64, n)
		for i := range xTrue {
			xTrue[i] = r.Normal()
		}
		ch, err := NewCholesky(a)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		x := ch.Solve(a.MulVec(xTrue))
		for i := range x {
			if math.Abs(x[i]-xTrue[i]) > 1e-8 {
				t.Fatalf("n=%d solution wrong at %d: %v vs %v", n, i, x[i], xTrue[i])
			}
		}
	}
}

func TestCholeskyReconstruction(t *testing.T) {
	r := mathx.NewRNG(3)
	a := spdMatrix(r, 8)
	ch, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	rec := MulT(ch.L, ch.L)
	assertMatrixEqual(t, a, rec, 1e-10)
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := NewMatrix(2, 2)
	a.Set(0, 0, 1)
	a.Set(0, 1, 5)
	a.Set(1, 0, 5)
	a.Set(1, 1, 1) // eigenvalues 6, -4
	if _, err := NewCholesky(a); err != ErrNotPositiveDefinite {
		t.Fatalf("expected ErrNotPositiveDefinite, got %v", err)
	}
}

func TestCholeskyInverseAndLogDet(t *testing.T) {
	r := mathx.NewRNG(4)
	a := spdMatrix(r, 6)
	ch, _ := NewCholesky(a)
	inv := ch.Inverse()
	prod := Mul(a, inv)
	eye := NewMatrix(6, 6)
	for i := 0; i < 6; i++ {
		eye.Set(i, i, 1)
	}
	assertMatrixEqual(t, prod, eye, 1e-8)

	// ln|A| = 2·Σ ln L_ii, against the Jacobi eigenvalues.
	logDet := 0.0
	for i := 0; i < 6; i++ {
		logDet += 2 * math.Log(ch.L.At(i, i))
	}
	vals, _, err := JacobiEigen(a)
	if err != nil {
		t.Fatal(err)
	}
	want := 0.0
	for _, v := range vals {
		want += math.Log(v)
	}
	if math.Abs(logDet-want) > 1e-8 {
		t.Fatalf("log-determinant %v, want %v", logDet, want)
	}
}

func TestVectorOps(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{4, 5, 6}
	if Dot(a, b) != 32 {
		t.Fatal("Dot wrong")
	}
	if math.Abs(Norm2([]float64{3, 4})-5) > 1e-15 {
		t.Fatal("Norm2 wrong")
	}
	y := []float64{1, 1}
	Axpy(2, []float64{1, 2}, y)
	if y[0] != 3 || y[1] != 5 {
		t.Fatal("Axpy wrong")
	}
}

// TestDotAxpyMatchPlainLoops pins the unrolled kernels to the one-element
// loops bit for bit, at every length around the unroll width. AxpyDot must
// equal the plain Axpy loop followed by the plain Dot loop, also when its
// dot operand is y itself.
func TestDotAxpyMatchPlainLoops(t *testing.T) {
	rng := mathx.NewRNG(17)
	for n := 0; n <= 13; n++ {
		a, b := make([]float64, n), make([]float64, n)
		for i := range a {
			a[i], b[i] = rng.Normal()*1e3, rng.Normal()*1e-3
		}
		want := 0.0
		for i := range a {
			want += a[i] * b[i]
		}
		if got := Dot(a, b); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("n=%d: Dot = %v, plain loop %v", n, got, want)
		}
		c := rng.Normal()
		y, wantY := append([]float64{}, b...), append([]float64{}, b...)
		for i := range a {
			wantY[i] += c * a[i]
		}
		Axpy(c, a, y)
		for i := range y {
			if math.Float64bits(y[i]) != math.Float64bits(wantY[i]) {
				t.Fatalf("n=%d: Axpy[%d] = %v, plain loop %v", n, i, y[i], wantY[i])
			}
		}
		z := make([]float64, n)
		for i := range z {
			z[i] = rng.Normal()
		}
		for _, alias := range []bool{false, true} {
			y := append([]float64{}, b...)
			zz := z
			if alias {
				zz = y
			}
			wantDot := 0.0
			for i := range wantY {
				if alias {
					wantDot += wantY[i] * wantY[i]
				} else {
					wantDot += wantY[i] * z[i]
				}
			}
			got := AxpyDot(c, a, y, zz)
			if math.Float64bits(got) != math.Float64bits(wantDot) {
				t.Fatalf("n=%d alias=%v: AxpyDot = %v, plain loops %v", n, alias, got, wantDot)
			}
			for i := range y {
				if math.Float64bits(y[i]) != math.Float64bits(wantY[i]) {
					t.Fatalf("n=%d alias=%v: AxpyDot y[%d] = %v, plain loop %v", n, alias, i, y[i], wantY[i])
				}
			}
		}
	}
}

func TestJacobiEigenDiagonal(t *testing.T) {
	a := NewMatrix(3, 3)
	a.Set(0, 0, 1)
	a.Set(1, 1, 5)
	a.Set(2, 2, 3)
	vals, _, err := JacobiEigen(a)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{5, 3, 1}
	for i := range want {
		if math.Abs(vals[i]-want[i]) > 1e-12 {
			t.Fatalf("vals = %v", vals)
		}
	}
}

func TestJacobiEigenProperty(t *testing.T) {
	// For random SPD matrices: A·v = λ·v per pair and trace = Σλ.
	r := mathx.NewRNG(5)
	f := func(seed uint32) bool {
		rr := mathx.NewRNG(uint64(seed) + 1)
		n := 2 + rr.Intn(8)
		a := spdMatrix(r, n)
		vals, vecs, err := JacobiEigen(a)
		if err != nil {
			return false
		}
		trace := 0.0
		for i := 0; i < n; i++ {
			trace += a.At(i, i)
		}
		sum := 0.0
		for _, v := range vals {
			sum += v
		}
		if math.Abs(trace-sum) > 1e-8*(1+math.Abs(trace)) {
			return false
		}
		for k := 0; k < n; k++ {
			v := make([]float64, n)
			for i := 0; i < n; i++ {
				v[i] = vecs.At(i, k)
			}
			av := a.MulVec(v)
			for i := 0; i < n; i++ {
				if math.Abs(av[i]-vals[k]*v[i]) > 1e-7 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestSymTridiagonalEigenvalues(t *testing.T) {
	// Known spectrum: tridiag with d=2, e=-1 (discrete Laplacian) has
	// eigenvalues 2-2cos(kπ/(n+1)).
	n := 12
	d := make([]float64, n)
	e := make([]float64, n-1)
	for i := range d {
		d[i] = 2
	}
	for i := range e {
		e[i] = -1
	}
	got, err := SymTridiagonalEigenvalues(d, e)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float64, n)
	for k := 1; k <= n; k++ {
		want[n-k] = 2 - 2*math.Cos(float64(k)*math.Pi/float64(n+1))
	}
	// got is descending; want built descending as well.
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-10 {
			t.Fatalf("eig[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestSymTridiagonalAgainstJacobi(t *testing.T) {
	r := mathx.NewRNG(6)
	for trial := 0; trial < 20; trial++ {
		n := 2 + r.Intn(15)
		d := make([]float64, n)
		e := make([]float64, n-1)
		for i := range d {
			d[i] = r.Normal() * 3
		}
		for i := range e {
			e[i] = r.Normal()
		}
		a := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			a.Set(i, i, d[i])
			if i+1 < n {
				a.Set(i, i+1, e[i])
				a.Set(i+1, i, e[i])
			}
		}
		want, _, err := JacobiEigen(a)
		if err != nil {
			t.Fatal(err)
		}
		got, err := SymTridiagonalEigenvalues(d, e)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-8 {
				t.Fatalf("trial %d eig[%d]: %v vs %v", trial, i, got[i], want[i])
			}
		}
	}
}

func TestSymTridiagonalEdge(t *testing.T) {
	got, err := SymTridiagonalEigenvalues([]float64{7}, nil)
	if err != nil || len(got) != 1 || got[0] != 7 {
		t.Fatalf("1x1 case: %v %v", got, err)
	}
	if _, err := SymTridiagonalEigenvalues([]float64{1, 2}, []float64{1, 2}); err != ErrShape {
		t.Fatal("shape error expected")
	}
}
