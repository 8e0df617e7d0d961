package gen

import (
	"math"
	"testing"

	"elites/internal/graph"
	"elites/internal/mathx"
	"elites/internal/powerlaw"
)

// The calibration tests pin the verified-network fingerprint to bands around
// the paper's measurements. They run at n=6,000 to stay fast; the full-size
// comparison lives in the bench harness.

func genVerifiedSmall(t *testing.T) *Result {
	t.Helper()
	res, err := Verified(6000, 7)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestVerifiedReciprocityBand(t *testing.T) {
	res := genVerifiedSmall(t)
	r := graph.Reciprocity(res.Graph)
	// Paper: 33.7%.
	if r < 0.30 || r > 0.38 {
		t.Fatalf("reciprocity = %v, want ≈0.337", r)
	}
}

func TestVerifiedGiantSCC(t *testing.T) {
	res := genVerifiedSmall(t)
	scc := graph.StronglyConnectedComponents(res.Graph)
	_, size := scc.Largest()
	frac := float64(size) / float64(res.Graph.NumNodes())
	// Paper: 97.24%.
	if frac < 0.94 || frac > 0.985 {
		t.Fatalf("giant SCC fraction = %v, want ≈0.97", frac)
	}
}

func TestVerifiedIsolatedAndSinks(t *testing.T) {
	res := genVerifiedSmall(t)
	iso := graph.IsolatedNodes(res.Graph)
	wantIso := int(math.Round(0.0261 * 6000))
	if math.Abs(float64(len(iso)-wantIso)) > 3 {
		t.Fatalf("isolated = %d, want ≈%d", len(iso), wantIso)
	}
	// Attracting components = isolated + celebrity sinks (echoing the
	// paper's 6,091 ≈ 6,027 + 64).
	scc := graph.StronglyConnectedComponents(res.Graph)
	ac := graph.AttractingComponents(res.Graph, scc)
	sinks := 0
	for _, role := range res.Roles {
		if role == RoleCelebritySink {
			sinks++
		}
	}
	want := len(iso) + sinks
	if math.Abs(float64(len(ac)-want)) > 2 {
		t.Fatalf("attracting components = %d, want ≈ isolated+sinks = %d", len(ac), want)
	}
	// Sinks must have zero out-degree and high in-degree.
	in := res.Graph.InDegrees()
	for v, role := range res.Roles {
		if role == RoleCelebritySink {
			if res.Graph.OutDegree(v) != 0 {
				t.Fatalf("sink %d has out-degree %d", v, res.Graph.OutDegree(v))
			}
			if in[v] < 50 {
				t.Fatalf("sink %d in-degree %d, want large", v, in[v])
			}
		}
		if role == RoleIsolated && (res.Graph.OutDegree(v) != 0 || in[v] != 0) {
			t.Fatalf("isolated node %d has edges", v)
		}
	}
}

func TestVerifiedDissortative(t *testing.T) {
	res := genVerifiedSmall(t)
	r := graph.DegreeAssortativity(res.Graph)
	// Paper: −0.04 ("slight dissortativity"); allow a small-n band but
	// demand the sign.
	if r > 0 || r < -0.15 {
		t.Fatalf("assortativity = %v, want slightly negative", r)
	}
}

func TestVerifiedShortDistances(t *testing.T) {
	res := genVerifiedSmall(t)
	rng := mathx.NewRNG(3)
	dd := graph.SampledDistances(res.Graph, 80, rng)
	// Paper: 2.74 at n=231k. Smaller graphs are slightly tighter; accept
	// the small-world band.
	if dd.Mean() < 2.0 || dd.Mean() > 3.3 {
		t.Fatalf("mean distance = %v, want ≈2.7", dd.Mean())
	}
}

func TestVerifiedClusteringLowButPresent(t *testing.T) {
	res := genVerifiedSmall(t)
	c := graph.AverageLocalClustering(res.Graph)
	// Paper: 0.1583 ("low").
	if c < 0.06 || c > 0.25 {
		t.Fatalf("clustering = %v, want ≈0.1–0.2", c)
	}
}

func TestVerifiedOutDegreePowerLaw(t *testing.T) {
	res, err := Verified(12000, 11)
	if err != nil {
		t.Fatal(err)
	}
	fit, err := powerlaw.FitDiscrete(res.Graph.OutDegrees(), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Paper: α = 3.24.
	if fit.Alpha < 2.8 || fit.Alpha > 3.8 {
		t.Fatalf("alpha = %v, want ≈3.24", fit.Alpha)
	}
	rng := mathx.NewRNG(5)
	if p := fit.GoodnessOfFit(40, rng); p <= 0.1 {
		t.Fatalf("power-law GoF p = %v, want > 0.1", p)
	}
}

func TestTwitterBaselineContrast(t *testing.T) {
	v, err := Verified(6000, 1)
	if err != nil {
		t.Fatal(err)
	}
	tw, err := Twitter(6000, 2)
	if err != nil {
		t.Fatal(err)
	}
	rv := graph.Reciprocity(v.Graph)
	rt := graph.Reciprocity(tw.Graph)
	if rt < 0.18 || rt > 0.27 {
		t.Fatalf("twitter reciprocity = %v, want ≈0.221", rt)
	}
	if rv <= rt {
		t.Fatalf("verified reciprocity (%v) must exceed generic (%v)", rv, rt)
	}
	rng := mathx.NewRNG(4)
	dv := graph.SampledDistances(v.Graph, 60, rng)
	dt := graph.SampledDistances(tw.Graph, 60, rng)
	if dv.Mean() >= dt.Mean() {
		t.Fatalf("verified distances (%v) must undercut generic (%v)", dv.Mean(), dt.Mean())
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Verified(2000, 99)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Verified(2000, 99)
	if err != nil {
		t.Fatal(err)
	}
	if a.Graph.NumEdges() != b.Graph.NumEdges() {
		t.Fatal("same seed, different edge count")
	}
	equal := true
	a.Graph.Edges(func(u, v int) bool {
		if !b.Graph.HasEdge(u, v) {
			equal = false
			return false
		}
		return true
	})
	if !equal {
		t.Fatal("same seed, different edges")
	}
	c, err := Verified(2000, 100)
	if err != nil {
		t.Fatal(err)
	}
	if c.Graph.NumEdges() == a.Graph.NumEdges() {
		// Same count is possible but all-edges-equal is not.
		same := true
		a.Graph.Edges(func(u, v int) bool {
			if !c.Graph.HasEdge(u, v) {
				same = false
				return false
			}
			return true
		})
		if same {
			t.Fatal("different seeds produced identical graphs")
		}
	}
}

func TestGenerateConfigValidation(t *testing.T) {
	bad := []Config{
		{N: 0, MeanDegree: 10},
		{N: 10, MeanDegree: 0},
		{N: 10, MeanDegree: 5, MutualFraction: 1.5},
		{N: 10, MeanDegree: 5, IsolatedFraction: 0.4, CelebrityFraction: 0.2},
		{N: 10, MeanDegree: 5, IsolatedFraction: -0.1},
	}
	for i, cfg := range bad {
		if _, err := Generate(cfg); err == nil {
			t.Fatalf("config %d should be rejected", i)
		}
	}
}

func TestRoleString(t *testing.T) {
	if RoleRegular.String() != "regular" || RoleIsolated.String() != "isolated" ||
		RoleCelebritySink.String() != "celebrity-sink" || Role(9).String() != "unknown" {
		t.Fatal("role names wrong")
	}
}

func TestErdosRenyi(t *testing.T) {
	g := ErdosRenyi(500, 0.01, 3)
	want := 0.01 * 500 * 499
	got := float64(g.NumEdges())
	if math.Abs(got-want) > 5*math.Sqrt(want) {
		t.Fatalf("ER edges = %v, want ≈%v", got, want)
	}
	if ErdosRenyi(10, 0, 1).NumEdges() != 0 {
		t.Fatal("p=0 should be empty")
	}
	if ErdosRenyi(5, 1, 1).NumEdges() != 20 {
		t.Fatal("p=1 should be complete")
	}
}

func TestBarabasiAlbertHubs(t *testing.T) {
	g := BarabasiAlbert(2000, 3, 0.3, 5)
	in := g.InDegrees()
	maxIn := 0
	for _, d := range in {
		if d > maxIn {
			maxIn = d
		}
	}
	// Preferential attachment must grow hubs far beyond m.
	if maxIn < 30 {
		t.Fatalf("BA max in-degree = %d, want hubs", maxIn)
	}
	// Early nodes should on average be richer than late ones.
	early, late := 0, 0
	for v := 0; v < 100; v++ {
		early += in[v]
	}
	for v := 1900; v < 2000; v++ {
		late += in[v]
	}
	if early <= late {
		t.Fatalf("rich-get-richer violated: early %d vs late %d", early, late)
	}
}

func TestWattsStrogatz(t *testing.T) {
	g := WattsStrogatz(300, 4, 0, 7)
	if g.NumEdges() != 1200 {
		t.Fatalf("ring edges = %d", g.NumEdges())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(0, 4) || g.HasEdge(0, 5) {
		t.Fatal("ring structure wrong")
	}
	// With rewiring, distances shrink.
	rng := mathx.NewRNG(8)
	d0 := graph.SampledDistances(g, 40, rng).Mean()
	g2 := WattsStrogatz(300, 4, 0.2, 7)
	d2 := graph.SampledDistances(g2, 40, rng).Mean()
	if d2 >= d0 {
		t.Fatalf("rewiring should shorten paths: %v vs %v", d2, d0)
	}
}
