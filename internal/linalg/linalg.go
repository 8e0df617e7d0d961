// Package linalg supplies the small dense linear-algebra kernel used by the
// statistical routines: column-major dense matrices, Cholesky factorization
// for normal-equation solves (OLS, penalized splines), and a Jacobi
// eigensolver for small symmetric matrices that serves as the test oracle for
// the large-scale Lanczos code in internal/spectral.
//
// These routines target the "many small systems" regime (basis sizes of tens,
// regression designs of a few hundred columns at most); they are deliberately
// simple, allocation-conscious and dependency-free rather than tuned BLAS.
package linalg

import (
	"errors"
	"fmt"
	"math"
)

// ErrNotPositiveDefinite is returned by Cholesky when the input matrix is not
// (numerically) symmetric positive definite.
var ErrNotPositiveDefinite = errors.New("linalg: matrix not positive definite")

// ErrShape is returned when operand dimensions are incompatible.
var ErrShape = errors.New("linalg: incompatible shapes")

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len Rows*Cols, Data[i*Cols+j] = M[i,j]
}

// NewMatrix returns a zeroed r×c matrix.
func NewMatrix(r, c int) *Matrix {
	if r < 0 || c < 0 {
		panic("linalg: negative dimension")
	}
	return &Matrix{Rows: r, Cols: c, Data: make([]float64, r*c)}
}

// At returns M[i,j].
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns M[i,j] = v.
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Add accumulates M[i,j] += v.
func (m *Matrix) Add(i, j int, v float64) { m.Data[i*m.Cols+j] += v }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// String renders the matrix for debugging.
func (m *Matrix) String() string {
	s := ""
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			s += fmt.Sprintf("%10.4g ", m.At(i, j))
		}
		s += "\n"
	}
	return s
}

// MulVec computes y = M·x. It panics on shape mismatch.
func (m *Matrix) MulVec(x []float64) []float64 {
	if len(x) != m.Cols {
		panic(ErrShape)
	}
	y := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		s := 0.0
		for j, v := range row {
			s += v * x[j]
		}
		y[i] = s
	}
	return y
}

// TMulVec computes y = Mᵀ·x.
func (m *Matrix) TMulVec(x []float64) []float64 {
	if len(x) != m.Rows {
		panic(ErrShape)
	}
	y := make([]float64, m.Cols)
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		xi := x[i]
		if xi == 0 {
			continue
		}
		for j, v := range row {
			y[j] += v * xi
		}
	}
	return y
}

// Mul computes C = A·B.
func Mul(a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(ErrShape)
	}
	c := NewMatrix(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		arow := a.Data[i*a.Cols : (i+1)*a.Cols]
		crow := c.Data[i*c.Cols : (i+1)*c.Cols]
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Data[k*b.Cols : (k+1)*b.Cols]
			for j, bv := range brow {
				crow[j] += av * bv
			}
		}
	}
	return c
}

// MulT computes C = A·Bᵀ.
func MulT(a, b *Matrix) *Matrix {
	if a.Cols != b.Cols {
		panic(ErrShape)
	}
	c := NewMatrix(a.Rows, b.Rows)
	for i := 0; i < a.Rows; i++ {
		arow := a.Data[i*a.Cols : (i+1)*a.Cols]
		for j := 0; j < b.Rows; j++ {
			brow := b.Data[j*b.Cols : (j+1)*b.Cols]
			s := 0.0
			for k, av := range arow {
				s += av * brow[k]
			}
			c.Set(i, j, s)
		}
	}
	return c
}

// TMul computes C = Aᵀ·B (the Gram-matrix building block of normal
// equations).
func TMul(a, b *Matrix) *Matrix {
	if a.Rows != b.Rows {
		panic(ErrShape)
	}
	c := NewMatrix(a.Cols, b.Cols)
	for k := 0; k < a.Rows; k++ {
		arow := a.Data[k*a.Cols : (k+1)*a.Cols]
		brow := b.Data[k*b.Cols : (k+1)*b.Cols]
		for i, av := range arow {
			if av == 0 {
				continue
			}
			crow := c.Data[i*c.Cols : (i+1)*c.Cols]
			for j, bv := range brow {
				crow[j] += av * bv
			}
		}
	}
	return c
}

// Transpose returns Aᵀ.
func (m *Matrix) Transpose() *Matrix {
	t := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			t.Set(j, i, m.At(i, j))
		}
	}
	return t
}

// AddScaledIdentity adds s·I in place; the matrix must be square.
func (m *Matrix) AddScaledIdentity(s float64) {
	if m.Rows != m.Cols {
		panic(ErrShape)
	}
	for i := 0; i < m.Rows; i++ {
		m.Data[i*m.Cols+i] += s
	}
}

// AddScaled accumulates M += s·B.
func (m *Matrix) AddScaled(s float64, b *Matrix) {
	if m.Rows != b.Rows || m.Cols != b.Cols {
		panic(ErrShape)
	}
	for i := range m.Data {
		m.Data[i] += s * b.Data[i]
	}
}

// Cholesky holds the lower-triangular factor L with A = L·Lᵀ.
type Cholesky struct {
	L *Matrix
}

// NewCholesky factors the symmetric positive definite matrix A. Only the
// lower triangle of A is read.
func NewCholesky(a *Matrix) (*Cholesky, error) {
	if a.Rows != a.Cols {
		return nil, ErrShape
	}
	n := a.Rows
	l := NewMatrix(n, n)
	for j := 0; j < n; j++ {
		d := a.At(j, j)
		for k := 0; k < j; k++ {
			ljk := l.At(j, k)
			d -= ljk * ljk
		}
		if d <= 0 || math.IsNaN(d) {
			return nil, ErrNotPositiveDefinite
		}
		d = math.Sqrt(d)
		l.Set(j, j, d)
		for i := j + 1; i < n; i++ {
			s := a.At(i, j)
			for k := 0; k < j; k++ {
				s -= l.At(i, k) * l.At(j, k)
			}
			l.Set(i, j, s/d)
		}
	}
	return &Cholesky{L: l}, nil
}

// Solve solves A·x = b given the factorization.
func (c *Cholesky) Solve(b []float64) []float64 {
	n := c.L.Rows
	if len(b) != n {
		panic(ErrShape)
	}
	// Forward substitution L·y = b.
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		s := b[i]
		for k := 0; k < i; k++ {
			s -= c.L.At(i, k) * y[k]
		}
		y[i] = s / c.L.At(i, i)
	}
	// Back substitution Lᵀ·x = y.
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for k := i + 1; k < n; k++ {
			s -= c.L.At(k, i) * x[k]
		}
		x[i] = s / c.L.At(i, i)
	}
	return x
}

// SolveMatrix solves A·X = B column by column.
func (c *Cholesky) SolveMatrix(b *Matrix) *Matrix {
	if b.Rows != c.L.Rows {
		panic(ErrShape)
	}
	x := NewMatrix(b.Rows, b.Cols)
	col := make([]float64, b.Rows)
	for j := 0; j < b.Cols; j++ {
		for i := 0; i < b.Rows; i++ {
			col[i] = b.At(i, j)
		}
		sol := c.Solve(col)
		for i := 0; i < b.Rows; i++ {
			x.Set(i, j, sol[i])
		}
	}
	return x
}

// Inverse returns A⁻¹ from the factorization.
func (c *Cholesky) Inverse() *Matrix {
	n := c.L.Rows
	eye := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		eye.Set(i, i, 1)
	}
	return c.SolveMatrix(eye)
}

// Dot returns the inner product of two equal-length vectors.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(ErrShape)
	}
	// Four products per iteration, still added to the one accumulator in
	// index order, so the sum is bit-identical to a plain loop. The longer
	// body makes the speed insensitive to code alignment: the one-product
	// loop ran 10–20% slower at some function addresses on a 2-core Xeon
	// VM, and Dot is the inner loop of the Lanczos re-orthogonalisation.
	b = b[:len(a)]
	s := 0.0
	i := 0
	for ; i+4 <= len(a); i += 4 {
		s += a[i] * b[i]
		s += a[i+1] * b[i+1]
		s += a[i+2] * b[i+2]
		s += a[i+3] * b[i+3]
	}
	for ; i < len(a); i++ {
		s += a[i] * b[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of v.
func Norm2(v []float64) float64 { return math.Sqrt(Dot(v, v)) }

// Axpy computes y += a·x in place.
func Axpy(a float64, x, y []float64) {
	if len(x) != len(y) {
		panic(ErrShape)
	}
	// Unrolled like Dot; each element is updated once, so results match a
	// plain loop exactly.
	y = y[:len(x)]
	i := 0
	for ; i+4 <= len(x); i += 4 {
		y[i] += a * x[i]
		y[i+1] += a * x[i+1]
		y[i+2] += a * x[i+2]
		y[i+3] += a * x[i+3]
	}
	for ; i < len(x); i++ {
		y[i] += a * x[i]
	}
}

// AxpyDot computes y += a·x in place and returns the updated y·z. Each y[i]
// is updated before it enters the sum, and the sum runs in index order, so
// the result is bit-identical to Axpy(a, x, y) followed by Dot(y, z) while
// reading y once. z may alias y.
func AxpyDot(a float64, x, y, z []float64) float64 {
	if len(x) != len(y) || len(y) != len(z) {
		panic(ErrShape)
	}
	y, z = y[:len(x)], z[:len(x)]
	s := 0.0
	i := 0
	for ; i+4 <= len(x); i += 4 {
		y0 := y[i] + a*x[i]
		y[i] = y0
		s += y0 * z[i]
		y1 := y[i+1] + a*x[i+1]
		y[i+1] = y1
		s += y1 * z[i+1]
		y2 := y[i+2] + a*x[i+2]
		y[i+2] = y2
		s += y2 * z[i+2]
		y3 := y[i+3] + a*x[i+3]
		y[i+3] = y3
		s += y3 * z[i+3]
	}
	for ; i < len(x); i++ {
		yi := y[i] + a*x[i]
		y[i] = yi
		s += yi * z[i]
	}
	return s
}

// JacobiEigen computes all eigenvalues and eigenvectors of a small symmetric
// matrix by the cyclic Jacobi rotation method. Eigenvalues are returned in
// descending order with matching eigenvector columns. Intended for n up to a
// few hundred; it is the oracle against which the Lanczos solver is tested.
func JacobiEigen(a *Matrix) (values []float64, vectors *Matrix, err error) {
	if a.Rows != a.Cols {
		return nil, nil, ErrShape
	}
	n := a.Rows
	m := a.Clone()
	v := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		v.Set(i, i, 1)
	}
	const maxSweeps = 100
	for sweep := 0; sweep < maxSweeps; sweep++ {
		off := 0.0
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				off += m.At(i, j) * m.At(i, j)
			}
		}
		if off < 1e-22*float64(n*n) {
			break
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := m.At(p, q)
				if math.Abs(apq) < 1e-300 {
					continue
				}
				app := m.At(p, p)
				aqq := m.At(q, q)
				theta := (aqq - app) / (2 * apq)
				t := math.Copysign(1, theta) / (math.Abs(theta) + math.Sqrt(theta*theta+1))
				c := 1 / math.Sqrt(t*t+1)
				s := t * c
				for k := 0; k < n; k++ {
					akp := m.At(k, p)
					akq := m.At(k, q)
					m.Set(k, p, c*akp-s*akq)
					m.Set(k, q, s*akp+c*akq)
				}
				for k := 0; k < n; k++ {
					apk := m.At(p, k)
					aqk := m.At(q, k)
					m.Set(p, k, c*apk-s*aqk)
					m.Set(q, k, s*apk+c*aqk)
				}
				for k := 0; k < n; k++ {
					vkp := v.At(k, p)
					vkq := v.At(k, q)
					v.Set(k, p, c*vkp-s*vkq)
					v.Set(k, q, s*vkp+c*vkq)
				}
			}
		}
	}
	values = make([]float64, n)
	for i := 0; i < n; i++ {
		values[i] = m.At(i, i)
	}
	// Sort eigenpairs in descending eigenvalue order (selection sort keeps
	// vector columns aligned and n is small).
	for i := 0; i < n; i++ {
		best := i
		for j := i + 1; j < n; j++ {
			if values[j] > values[best] {
				best = j
			}
		}
		if best != i {
			values[i], values[best] = values[best], values[i]
			for k := 0; k < n; k++ {
				vi, vb := v.At(k, i), v.At(k, best)
				v.Set(k, i, vb)
				v.Set(k, best, vi)
			}
		}
	}
	return values, v, nil
}

// SymTridiagonalEigenvalues computes all eigenvalues of the symmetric
// tridiagonal matrix with diagonal d and off-diagonal e (len(e) = len(d)-1)
// using the implicit QL method with Wilkinson shifts. The input slices are
// not modified. Eigenvalues are returned in descending order. This is the
// final step of the Lanczos procedure in internal/spectral.
func SymTridiagonalEigenvalues(d, e []float64) ([]float64, error) {
	n := len(d)
	if n == 0 {
		return nil, nil
	}
	if len(e) != n-1 {
		return nil, ErrShape
	}
	dd := make([]float64, n)
	copy(dd, d)
	ee := make([]float64, n)
	copy(ee, e) // ee[n-1] spare zero
	for l := 0; l < n; l++ {
		iter := 0
		for {
			var m int
			for m = l; m < n-1; m++ {
				s := math.Abs(dd[m]) + math.Abs(dd[m+1])
				if math.Abs(ee[m]) <= 1e-16*s {
					break
				}
			}
			if m == l {
				break
			}
			iter++
			if iter > 50 {
				return nil, ErrNoConvergeTridiag
			}
			g := (dd[l+1] - dd[l]) / (2 * ee[l])
			r := math.Hypot(g, 1)
			g = dd[m] - dd[l] + ee[l]/(g+math.Copysign(r, g))
			s, c := 1.0, 1.0
			p := 0.0
			for i := m - 1; i >= l; i-- {
				f := s * ee[i]
				b := c * ee[i]
				r = math.Hypot(f, g)
				ee[i+1] = r
				if r == 0 {
					dd[i+1] -= p
					ee[m] = 0
					break
				}
				s = f / r
				c = g / r
				g = dd[i+1] - p
				r = (dd[i]-g)*s + 2*c*b
				p = s * r
				dd[i+1] = g + p
				g = c*r - b
			}
			if r == 0 && m-1 >= l {
				continue
			}
			dd[l] -= p
			ee[l] = g
			ee[m] = 0
		}
	}
	// Descending sort.
	for i := 0; i < n; i++ {
		best := i
		for j := i + 1; j < n; j++ {
			if dd[j] > dd[best] {
				best = j
			}
		}
		dd[i], dd[best] = dd[best], dd[i]
	}
	return dd, nil
}

// ErrNoConvergeTridiag is returned when the tridiagonal QL iteration fails to
// converge; in practice this indicates NaN contamination of the input.
var ErrNoConvergeTridiag = errors.New("linalg: tridiagonal QL did not converge")
