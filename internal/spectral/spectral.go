// Package spectral computes extremal eigenvalues of graph matrices without
// materializing them. The paper fits a power law to the largest Laplacian
// eigenvalues of the verified sub-graph (computed there "using the power
// iteration method in existing solvers"); we provide both a Lanczos solver
// with partial reorthogonalization (the workhorse; it stores the whole
// Krylov basis, O(n·iters) memory, but orthogonalizes against it only on
// the steps where Simon's ω-recurrence says orthogonality is being lost)
// and a power-iteration-with-deflation solver (the ablation baseline), on a
// matrix-free operator for the Laplacian of the symmetrized graph.
package spectral

import (
	"errors"
	"math"

	"elites/internal/graph"
	"elites/internal/linalg"
	"elites/internal/mathx"
)

// ErrBadParam flags invalid eigensolver parameters.
var ErrBadParam = errors.New("spectral: bad parameter")

// Operator is a symmetric linear operator y = A·x on R^n.
type Operator interface {
	Dim() int
	// Apply computes dst = A·src; dst and src have length Dim and do not
	// alias.
	Apply(dst, src []float64)
}

// LaplacianOperator applies L = D − A_sym of the undirected projection,
// where A_sym[u][v] = 1 iff u→v or v→u and D is the diagonal degree
// matrix. Symmetrization makes the spectrum real, matching how spectral
// analyses of directed social graphs are performed in practice (including
// the toolchains the paper used). Its largest eigenvalues track the
// largest degrees (for a star of degree d, λ_max = d+1), which couples the
// eigenvalue power law to the degree power law exactly as §IV-B observes.
type LaplacianOperator struct {
	und *graph.Digraph
	deg []float64
}

// NewLaplacianOperator builds the operator over g's cached undirected
// projection.
func NewLaplacianOperator(g *graph.Digraph) *LaplacianOperator {
	und := g.Undirected()
	deg := make([]float64, und.NumNodes())
	for u := 0; u < und.NumNodes(); u++ {
		deg[u] = float64(und.OutDegree(u))
	}
	return &LaplacianOperator{und: und, deg: deg}
}

// Dim returns the number of nodes.
func (l *LaplacianOperator) Dim() int { return l.und.NumNodes() }

// Apply computes dst = (D − A)·src.
func (l *LaplacianOperator) Apply(dst, src []float64) {
	for u := 0; u < l.und.NumNodes(); u++ {
		s := l.deg[u] * src[u]
		for _, v := range l.und.OutNeighbors(u) {
			s -= src[v]
		}
		dst[u] = s
	}
}

// MaxDegree returns the maximum undirected degree; λ_max of the Laplacian is
// bounded by 2·MaxDegree (and below by MaxDegree+1 for graphs with at least
// one edge), a sanity bound used in tests.
func (l *LaplacianOperator) MaxDegree() float64 {
	m := 0.0
	for _, d := range l.deg {
		if d > m {
			m = d
		}
	}
	return m
}

// TopEigenvaluesLanczos computes the k largest eigenvalues of the symmetric
// operator op by the Lanczos iteration with partial reorthogonalization
// (Simon 1984): every basis vector is stored, as full reorthogonalization
// would (O(n·iters) memory), but a step orthogonalizes against them only
// when Simon's ω-recurrence estimates that the basis has drifted past
// semi-orthogonality (√ε). That keeps the Ritz values accurate to working
// precision without the O(n·iters²) cost of a pass at every step. iters
// controls the Krylov dimension; it is clamped to [2k+10, n]. Eigenvalues
// return in descending order. The largest converge first: a Ritz value θ_i
// lies within its residual bound |β_m·s_{m,i}| of an eigenvalue (β_m the
// final residual norm, s_{m,i} the last component of the i-th eigenvector
// of the tridiagonal matrix), so callers requesting k values should allow
// iters ≈ 3k for power-law-tailed spectra. The package tests check that
// bound: on a generated 5k-user platform at k = 100 and 300 steps, the top
// 96 values reach 1e-8 relative and the last four 8e-7–4e-5.
func TopEigenvaluesLanczos(op Operator, k, iters int, rng *mathx.RNG) ([]float64, error) {
	n := op.Dim()
	if n == 0 {
		return nil, nil
	}
	if k <= 0 {
		return nil, ErrBadParam
	}
	if k > n {
		k = n
	}
	if iters < 2*k+10 {
		iters = 2*k + 10
	}
	if iters > n {
		iters = n
	}
	alpha, beta, _ := lanczos(op, iters, rng)
	evs, err := linalg.SymTridiagonalEigenvalues(alpha, beta[:len(alpha)-1])
	if err != nil {
		return nil, err
	}
	if k > len(evs) {
		k = len(evs)
	}
	return evs[:k], nil
}

// lanczos runs at most iters (1 ≤ iters ≤ n) Lanczos steps from a random
// start and returns the tridiagonal matrix T: its diagonal alpha and, in
// beta, the coupling beta[j] of v_j and v_{j+1} for j < len(alpha)-1 and the
// final residual norm β_m in the last slot (len(beta) == len(alpha)). A zero
// coupling marks an invariant subspace and a restart, so T splits into
// independent blocks there. reorths counts the steps that orthogonalized
// against the basis.
//
// The ω-recurrence (Simon 1984, as in Larsen's PROPACK) tracks estimates
// ω_{j,k} ≈ v_jᵀv_k, with ω_{j+1,j} = τ/β_j and
//
//	β_j·ω_{j+1,k} = β_k·ω_{j,k+1} + (α_k − α_j)·ω_{j,k} + β_{k−1}·ω_{j,k−1}
//	                − β_{j−1}·ω_{j−1,k} ± τ
//
// where τ = ε·‖T_j‖·√n/2 stands for the rounding error of one step (‖T_j‖
// by its Gershgorin bound) and takes the sign that grows |ω|. When some
// |ω_{j+1,k}| passes √ε the new vector, and the one after it (its
// predecessor's loss would otherwise feed straight back through the
// three-term recurrence), each get one modified Gram–Schmidt pass against
// the whole basis, and their ω rows are reset to ε.
func lanczos(op Operator, iters int, rng *mathx.RNG) (alpha, beta []float64, reorths int) {
	const eps = 0x1p-52
	tol := math.Sqrt(eps)
	n := op.Dim()
	basis := make([][]float64, 0, iters)
	alpha = make([]float64, 0, iters)
	beta = make([]float64, 0, iters)
	// Rows ω_{j−1,·}, ω_{j,·} and ω_{j+1,·} of the estimate; row j has
	// j+1 entries, the last being ω_{j,j} = 1.
	prev := make([]float64, 0, iters+1)
	cur := append(make([]float64, 0, iters+1), 1)
	next := make([]float64, 0, iters+1)
	// settle records that the new vector v_{j+1} has just been made
	// orthogonal to the basis.
	settle := func(j int) {
		next = next[:j+2]
		for k := 0; k <= j; k++ {
			next[k] = eps
		}
		next[j+1] = 1
	}
	tnorm := 0.0
	pairPending := false
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.Normal()
	}
	normalize(v)
	w := make([]float64, n)
	for j := 0; j < iters; j++ {
		basis = append(basis, append([]float64(nil), v...))
		op.Apply(w, v)
		// Each update is fused with the dot product that follows it
		// (w is read once per pass, with the bits of Axpy then Dot).
		bPrev := 0.0
		var a float64
		if j > 0 {
			bPrev = beta[j-1]
			a = linalg.AxpyDot(-bPrev, basis[j-1], w, v)
		} else {
			a = linalg.Dot(w, v)
		}
		b := math.Sqrt(linalg.AxpyDot(-a, v, w, w))
		alpha = append(alpha, a)
		if j == iters-1 {
			beta = append(beta, b)
			break
		}
		reorth := pairPending
		if b >= 1e-10 {
			tnorm = math.Max(tnorm, bPrev+math.Abs(a)+b)
			tau := eps * tnorm * math.Sqrt(float64(n)) / 2
			next = next[:j+2]
			for k := 0; k < j; k++ {
				t := beta[k]*cur[k+1] + (alpha[k]-a)*cur[k] - bPrev*prev[k]
				if k > 0 {
					t += beta[k-1] * cur[k-1]
				}
				next[k] = (t + math.Copysign(tau, t)) / b
				reorth = reorth || math.Abs(next[k]) > tol
			}
			next[j] = tau / b
			next[j+1] = 1
			reorth = reorth || next[j] > tol
		}
		if reorth {
			orthogonalize(w, basis)
			reorths++
			b = linalg.Norm2(w)
			settle(j)
			pairPending = !pairPending
		}
		if b < 1e-10 {
			// Invariant subspace found. Restart with a random vector
			// orthogonal to the basis and record a zero coupling so
			// the tridiagonal matrix splits into independent blocks
			// (keeping a nonzero β here would fabricate spurious
			// coupling between the blocks).
			for i := range w {
				w[i] = rng.Normal()
			}
			orthogonalize(w, basis)
			b2 := linalg.Norm2(w)
			if b2 < 1e-10 {
				beta = append(beta, b)
				break
			}
			beta = append(beta, 0)
			settle(j)
			b = b2
		} else {
			beta = append(beta, b)
		}
		for i := range v {
			v[i] = w[i] / b
		}
		prev, cur, next = cur, next, prev
	}
	return alpha, beta, reorths
}

// orthogonalize runs one modified Gram–Schmidt pass of w against basis:
// for each u in turn, c = w·u and, when c is nonzero, w -= c·u. Each update
// is fused with the next coefficient's dot product (AxpyDot), so w is read
// once per basis vector; the operations, and so the bits, are those of the
// plain Dot-then-Axpy pass.
func orthogonalize(w []float64, basis [][]float64) {
	if len(basis) == 0 {
		return
	}
	c := linalg.Dot(w, basis[0])
	for k := 1; k < len(basis); k++ {
		if c != 0 {
			c = linalg.AxpyDot(-c, basis[k-1], w, basis[k])
		} else {
			c = linalg.Dot(w, basis[k])
		}
	}
	if c != 0 {
		linalg.Axpy(-c, basis[len(basis)-1], w)
	}
}

// TopEigenvaluesPower computes the k largest eigenvalues by power iteration
// with Hotelling deflation: after each eigenpair (λ, v) converges, the
// operator is replaced by A − λ·v·vᵀ. It is O(k·iters·m) and degrades when
// eigenvalues cluster — precisely the regime the ablation bench exposes
// against Lanczos. Returns eigenvalues in the order found (descending in
// magnitude for PSD operators such as the Laplacian).
func TopEigenvaluesPower(op Operator, k, iters int, tol float64, rng *mathx.RNG) ([]float64, error) {
	n := op.Dim()
	if n == 0 {
		return nil, nil
	}
	if k <= 0 {
		return nil, ErrBadParam
	}
	if k > n {
		k = n
	}
	if iters <= 0 {
		iters = 300
	}
	if tol <= 0 {
		tol = 1e-10
	}
	var deflV [][]float64
	var deflL []float64
	values := make([]float64, 0, k)
	v := make([]float64, n)
	w := make([]float64, n)
	for j := 0; j < k; j++ {
		for i := range v {
			v[i] = rng.Normal()
		}
		// Orthogonalize against found eigenvectors.
		for _, u := range deflV {
			c := linalg.Dot(v, u)
			linalg.Axpy(-c, u, v)
		}
		normalize(v)
		lambda := 0.0
		for it := 0; it < iters; it++ {
			op.Apply(w, v)
			// Deflate: w ← w − Σ λ_i (v_iᵀ v) v_i.
			for d, u := range deflV {
				c := linalg.Dot(v, u)
				if c != 0 {
					linalg.Axpy(-deflL[d]*c, u, w)
				}
			}
			nl := linalg.Norm2(w)
			if nl == 0 {
				break
			}
			for i := range w {
				w[i] /= nl
			}
			diff := 0.0
			for i := range w {
				d := math.Abs(w[i]) - math.Abs(v[i])
				diff += d * d
			}
			copy(v, w)
			if math.Sqrt(diff) < tol && it > 3 {
				lambda = nl
				break
			}
			lambda = nl
		}
		// Rayleigh quotient for a signed eigenvalue.
		op.Apply(w, v)
		for d, u := range deflV {
			c := linalg.Dot(v, u)
			if c != 0 {
				linalg.Axpy(-deflL[d]*c, u, w)
			}
		}
		lambda = linalg.Dot(w, v)
		values = append(values, lambda)
		deflV = append(deflV, append([]float64(nil), v...))
		deflL = append(deflL, lambda)
	}
	return values, nil
}

func normalize(v []float64) {
	n := linalg.Norm2(v)
	if n == 0 {
		return
	}
	for i := range v {
		v[i] /= n
	}
}
