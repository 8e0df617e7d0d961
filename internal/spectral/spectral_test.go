package spectral

import (
	"math"
	"sort"
	"sync"
	"testing"

	"elites/internal/graph"
	"elites/internal/linalg"
	"elites/internal/mathx"
	"elites/internal/twitter"
)

func denseLaplacian(g *graph.Digraph) *linalg.Matrix {
	und := g.Undirected()
	n := und.NumNodes()
	m := linalg.NewMatrix(n, n)
	for u := 0; u < n; u++ {
		m.Set(u, u, float64(und.OutDegree(u)))
		for _, v := range und.OutNeighbors(u) {
			m.Set(u, int(v), -1)
		}
	}
	return m
}

func randomDigraph(rng *mathx.RNG, n int, p float64) *graph.Digraph {
	b := graph.NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u != v && rng.Bool(p) {
				b.AddEdge(u, v)
			}
		}
	}
	return b.Build()
}

func TestLaplacianOperatorMatchesDense(t *testing.T) {
	rng := mathx.NewRNG(1)
	g := randomDigraph(rng, 25, 0.1)
	op := NewLaplacianOperator(g)
	dense := denseLaplacian(g)
	x := make([]float64, op.Dim())
	for i := range x {
		x[i] = rng.Normal()
	}
	got := make([]float64, op.Dim())
	op.Apply(got, x)
	want := dense.MulVec(x)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-10 {
			t.Fatalf("Laplacian apply mismatch at %d: %v vs %v", i, got[i], want[i])
		}
	}
}

func TestLanczosAgainstJacobi(t *testing.T) {
	rng := mathx.NewRNG(3)
	for trial := 0; trial < 10; trial++ {
		g := randomDigraph(rng, 30, 0.12)
		dense := denseLaplacian(g)
		want, _, err := linalg.JacobiEigen(dense)
		if err != nil {
			t.Fatal(err)
		}
		op := NewLaplacianOperator(g)
		k := 5
		got, err := TopEigenvaluesLanczos(op, k, 30, rng)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) < k {
			t.Fatalf("got %d eigenvalues, want %d", len(got), k)
		}
		for i := 0; i < k; i++ {
			if math.Abs(got[i]-want[i]) > 1e-6*(1+math.Abs(want[i])) {
				t.Fatalf("trial %d λ[%d] = %v, want %v (all got %v want %v)",
					trial, i, got[i], want[i], got[:k], want[:k])
			}
		}
	}
}

func TestLanczosStarGraph(t *testing.T) {
	// Undirected star with d leaves: Laplacian eigenvalues are d+1 (once),
	// 1 (d-1 times), 0.
	d := 12
	b := graph.NewBuilder(d + 1)
	for i := 1; i <= d; i++ {
		b.AddEdge(0, i)
	}
	g := b.Build()
	rng := mathx.NewRNG(4)
	op := NewLaplacianOperator(g)
	got, err := TopEigenvaluesLanczos(op, 3, d+1, rng)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got[0]-float64(d+1)) > 1e-8 {
		t.Fatalf("star λ_max = %v, want %d", got[0], d+1)
	}
	if math.Abs(got[1]-1) > 1e-8 {
		t.Fatalf("star λ_2 = %v, want 1", got[1])
	}
}

func TestPowerIterationAgainstLanczos(t *testing.T) {
	rng := mathx.NewRNG(5)
	g := randomDigraph(rng, 40, 0.1)
	op := NewLaplacianOperator(g)
	k := 4
	lz, err := TopEigenvaluesLanczos(op, k, 40, rng)
	if err != nil {
		t.Fatal(err)
	}
	pw, err := TopEigenvaluesPower(op, k, 2000, 1e-12, rng)
	if err != nil {
		t.Fatal(err)
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(pw)))
	for i := 0; i < k; i++ {
		if math.Abs(lz[i]-pw[i]) > 1e-3*(1+lz[i]) {
			t.Fatalf("λ[%d]: Lanczos %v vs power %v", i, lz[i], pw[i])
		}
	}
}

func TestLaplacianEigenvaluesNonNegative(t *testing.T) {
	rng := mathx.NewRNG(6)
	g := randomDigraph(rng, 50, 0.05)
	op := NewLaplacianOperator(g)
	evs, err := TopEigenvaluesLanczos(op, 10, 60, rng)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range evs {
		if ev < -1e-8 {
			t.Fatalf("negative Laplacian eigenvalue: %v", ev)
		}
	}
	// λ_max ∈ [maxDeg+1, 2·maxDeg] for graphs with at least one edge.
	maxDeg := op.MaxDegree()
	if evs[0] < maxDeg+1-1e-6 || evs[0] > 2*maxDeg+1e-6 {
		t.Fatalf("λ_max = %v outside [%v, %v]", evs[0], maxDeg+1, 2*maxDeg)
	}
}

func TestEigSolverEdgeCases(t *testing.T) {
	rng := mathx.NewRNG(7)
	empty := graph.NewBuilder(0).Build()
	if evs, err := TopEigenvaluesLanczos(NewLaplacianOperator(empty), 3, 10, rng); err != nil || evs != nil {
		t.Fatalf("empty graph: %v %v", evs, err)
	}
	g := graph.FromEdges(3, [][2]int{{0, 1}})
	if _, err := TopEigenvaluesLanczos(NewLaplacianOperator(g), 0, 10, rng); err != ErrBadParam {
		t.Fatal("k=0 should be rejected")
	}
	// k > n clamps.
	evs, err := TopEigenvaluesLanczos(NewLaplacianOperator(g), 10, 10, rng)
	if err != nil || len(evs) > 3 {
		t.Fatalf("clamp failed: %v %v", evs, err)
	}
	if _, err := TopEigenvaluesPower(NewLaplacianOperator(g), -1, 10, 0, rng); err != ErrBadParam {
		t.Fatal("power k<0 should be rejected")
	}
}

// denseOperator wraps a dense symmetric matrix as an Operator.
type denseOperator struct{ m *linalg.Matrix }

func (d *denseOperator) Dim() int { return d.m.Rows }

func (d *denseOperator) Apply(dst, src []float64) { copy(dst, d.m.MulVec(src)) }

func TestDenseOperator(t *testing.T) {
	m := linalg.NewMatrix(2, 2)
	m.Set(0, 0, 2)
	m.Set(1, 1, 7)
	op := &denseOperator{m: m}
	rng := mathx.NewRNG(8)
	evs, err := TopEigenvaluesLanczos(op, 2, 2, rng)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(evs[0]-7) > 1e-9 || math.Abs(evs[1]-2) > 1e-9 {
		t.Fatalf("dense eigs = %v", evs)
	}
}

func TestLanczosDisconnectedGraph(t *testing.T) {
	// Two disjoint triangles: Laplacian spectrum {3,3,3,3,0,0}; the
	// invariant-subspace restart must find eigenvalues across components.
	g := graph.FromEdges(6, [][2]int{
		{0, 1}, {1, 2}, {2, 0},
		{3, 4}, {4, 5}, {5, 3},
	})
	rng := mathx.NewRNG(9)
	evs, err := TopEigenvaluesLanczos(NewLaplacianOperator(g), 4, 6, rng)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if math.Abs(evs[i]-3) > 1e-7 {
			t.Fatalf("disconnected spectrum = %v, want four 3s", evs)
		}
	}
}

// platformGraph is the verified sub-graph the pipeline analyses, for a
// generated platform of n users.
func platformGraph(t *testing.T, n int) *graph.Digraph {
	t.Helper()
	p, err := twitter.NewPlatform(twitter.DefaultPlatformConfig(n))
	if err != nil {
		t.Fatal(err)
	}
	ds, err := twitter.DatasetFromPlatform(p)
	if err != nil {
		t.Fatal(err)
	}
	return ds.Graph
}

// ritzBounds returns the Ritz values θ_i of the Lanczos tridiagonal
// (descending) and their residual bounds |β_m·s_{m,i}|, where s_{m,i} is the
// last component of the i-th eigenvector of T: ‖A·y_i − θ_i·y_i‖ for the
// Ritz vector y_i, so some eigenvalue of A lies within it of θ_i.
func ritzBounds(t *testing.T, alpha, beta []float64) (theta, bound []float64) {
	t.Helper()
	m := len(alpha)
	tri := linalg.NewMatrix(m, m)
	for i := 0; i < m; i++ {
		tri.Set(i, i, alpha[i])
		if i+1 < m {
			tri.Set(i, i+1, beta[i])
			tri.Set(i+1, i, beta[i])
		}
	}
	theta, vecs, err := linalg.JacobiEigen(tri)
	if err != nil {
		t.Fatal(err)
	}
	bound = make([]float64, m)
	for i := range bound {
		bound[i] = math.Abs(beta[m-1] * vecs.At(m-1, i))
	}
	return theta, bound
}

// ritzTol is the relative residual bound under which a Ritz value counts
// as converged.
const ritzTol = 1e-8

func TestLanczosPartialReorthMatchesJacobi(t *testing.T) {
	g := platformGraph(t, 400)
	n := g.NumNodes()
	if n < 250 || n > 380 {
		t.Fatalf("fixture has %d nodes, want 250–380", n)
	}
	want, _, err := linalg.JacobiEigen(denseLaplacian(g))
	if err != nil {
		t.Fatal(err)
	}
	const k, iters = 20, 60
	alpha, beta, reorths := lanczos(NewLaplacianOperator(g), iters, mathx.NewRNG(13))
	if len(alpha) != iters {
		t.Fatalf("ran %d steps, want %d", len(alpha), iters)
	}
	// The partial path must actually skip work here (the last step never
	// needs a pass, so full reorthogonalization would count iters−1),
	// and must still have had to act.
	if reorths == 0 || reorths >= iters-1 {
		t.Fatalf("reorthogonalized on %d of %d steps", reorths, iters)
	}
	theta, bound := ritzBounds(t, alpha, beta)
	// The solver's own output, from the same start vector.
	got, err := TopEigenvaluesLanczos(NewLaplacianOperator(g), k, iters, mathx.NewRNG(13))
	if err != nil {
		t.Fatal(err)
	}
	converged := 0
	for i := 0; i < k; i++ {
		// Converged or not, the bound must enclose an eigenvalue.
		gap := math.Inf(1)
		for _, l := range want {
			gap = math.Min(gap, math.Abs(theta[i]-l))
		}
		if gap > bound[i]+1e-9*theta[i] {
			t.Errorf("θ[%d] = %.17g is %.3g from the spectrum, past its bound %.3g", i, theta[i], gap, bound[i])
		}
		if bound[i] > ritzTol*theta[i] {
			continue
		}
		converged++
		if math.Abs(got[i]-want[i]) > 1e-9*want[i] {
			t.Errorf("converged λ[%d] = %.17g, Jacobi %.17g (bound %.3g)", i, got[i], want[i], bound[i])
		}
	}
	if converged == 0 {
		t.Fatal("no Ritz value converged")
	}
	t.Logf("n=%d: %d of top %d converged, %d of %d steps reorthogonalized", n, converged, k, reorths, iters)
}

func TestLanczosRestartMatchesJacobi(t *testing.T) {
	// A sparse random digraph with several components and isolated nodes:
	// at iters == n the Krylov space goes invariant, so the solver must
	// restart (a zero coupling in T) and still recover the full top of the
	// spectrum.
	g := randomDigraph(mathx.NewRNG(14), 80, 0.015)
	n := g.NumNodes()
	want, _, err := linalg.JacobiEigen(denseLaplacian(g))
	if err != nil {
		t.Fatal(err)
	}
	alpha, beta, _ := lanczos(NewLaplacianOperator(g), n, mathx.NewRNG(15))
	restarts := 0
	for _, b := range beta[:len(beta)-1] {
		if b == 0 {
			restarts++
		}
	}
	if restarts == 0 {
		t.Fatal("no invariant-subspace restart")
	}
	got, err := TopEigenvaluesLanczos(NewLaplacianOperator(g), 10, n, mathx.NewRNG(15))
	if err != nil {
		t.Fatal(err)
	}
	for i, ev := range got {
		if math.Abs(ev-want[i]) > 1e-9*want[i] {
			t.Fatalf("λ[%d] = %.17g, Jacobi %.17g (%d restarts)", i, ev, want[i], restarts)
		}
	}
	t.Logf("%d steps, %d restarts", len(alpha), restarts)
}

func TestLanczosRitzConvergenceAtEigenK(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 5k-user platform")
	}
	// The battery's EigenK with its default Krylov dimension of 3·EigenK.
	g := platformGraph(t, 5000)
	const k, iters = 100, 300
	alpha, beta, reorths := lanczos(NewLaplacianOperator(g), iters, mathx.NewRNG(16))
	theta, bound := ritzBounds(t, alpha, beta)
	converged := 0
	for i := 0; i < k; i++ {
		if bound[i] <= ritzTol*theta[i] {
			converged++
		}
	}
	// The top 96 converge. The last four (λ ≈ 304–307, closely spaced)
	// are still settling at 3·EigenK steps: their bounds are 8e-7–4e-5.
	if converged != 96 {
		t.Fatalf("%d of the top %d Ritz values converged to %g, want 96", converged, k, ritzTol)
	}
	// The ω-recurrence with the pair rule and the reset to ε picks 84
	// steps. Without the reset 284 would re-orthogonalize, and without
	// the pair rule 142 (the unreset predecessor row trips the test
	// again on the following steps).
	if reorths != 84 {
		t.Fatalf("reorthogonalized on %d of %d steps, want 84", reorths, iters)
	}
}

// TestLanczosConcurrentCallsOwnTheirBasis runs lanczos on one operator
// from four goroutines at once, each from its own start vector. Each call
// carves its basis from its own off-heap slab (or heap vectors where the
// platform has none), so every run must return the alpha and beta of a
// serial run from the same start bit for bit; a shared or early-released
// slab would corrupt the re-orthogonalized steps.
func TestLanczosConcurrentCallsOwnTheirBasis(t *testing.T) {
	op := NewLaplacianOperator(platformGraph(t, 400))
	const iters, runs = 60, 4
	type result struct {
		alpha, beta []float64
		reorths     int
	}
	run := func(i int) result {
		a, b, r := lanczos(op, iters, mathx.NewRNG(uint64(40+i)))
		return result{a, b, r}
	}
	want := make([]result, runs)
	for i := range want {
		if want[i] = run(i); want[i].reorths == 0 {
			t.Fatalf("serial run %d never read its basis back", i)
		}
	}
	got := make([]result, runs)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = run(i)
		}()
	}
	wg.Wait()
	for i := range got {
		g, w := got[i], want[i]
		if g.reorths != w.reorths || len(g.alpha) != len(w.alpha) || len(g.beta) != len(w.beta) {
			t.Fatalf("run %d: %d steps, %d reorthogonalized; serial %d, %d", i, len(g.alpha), g.reorths, len(w.alpha), w.reorths)
		}
		for j := range g.alpha {
			if math.Float64bits(g.alpha[j]) != math.Float64bits(w.alpha[j]) || math.Float64bits(g.beta[j]) != math.Float64bits(w.beta[j]) {
				t.Fatalf("run %d, step %d: α=%v β=%v, serial α=%v β=%v", i, j, g.alpha[j], g.beta[j], w.alpha[j], w.beta[j])
			}
		}
	}
}

// TestOrthogonalizeMatchesPlainPass pins the fused Gram–Schmidt pass to the
// plain one (a Dot, then an Axpy when the coefficient is nonzero) bit for
// bit, at basis lengths 0, 1, 2 and 5 and every length mod 4. Each subset
// of the basis is in turn supported away from w, so every position meets
// an exactly zero coefficient, whose update both passes skip.
func TestOrthogonalizeMatchesPlainPass(t *testing.T) {
	rng := mathx.NewRNG(29)
	for _, n := range []int{8, 9, 10, 11} {
		half := n / 2
		for _, m := range []int{0, 1, 2, 5} {
			for mask := 0; mask < 1<<m; mask++ {
				// w and the basis vectors outside the mask live on
				// [0, half); those in the mask on [half, n). w is -0
				// off its support, so an update by a zero coefficient
				// would show: -0 + (-0)·u is +0 where u < 0.
				w := make([]float64, n)
				for i := range w {
					w[i] = math.Copysign(0, -1)
					if i < half {
						w[i] = rng.Normal()
					}
				}
				basis := make([][]float64, m)
				for k := range basis {
					lo, hi := 0, half
					if mask&(1<<k) != 0 {
						lo, hi = half, n
					}
					basis[k] = make([]float64, n)
					for i := lo; i < hi; i++ {
						basis[k][i] = rng.Normal()
					}
				}
				want := append([]float64(nil), w...)
				for _, u := range basis {
					c := 0.0
					for i := range want {
						c += want[i] * u[i]
					}
					if c != 0 {
						for i := range want {
							want[i] += -c * u[i]
						}
					}
				}
				orthogonalize(w, basis)
				for i := range w {
					if math.Float64bits(w[i]) != math.Float64bits(want[i]) {
						t.Fatalf("n=%d m=%d mask=%b: w[%d] = %v, plain pass %v", n, m, mask, i, w[i], want[i])
					}
				}
			}
		}
	}
}
