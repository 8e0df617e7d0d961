package graph

import (
	"fmt"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"elites/internal/mathx"
)

func TestBuilderBasics(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(0, 1) // duplicate
	b.AddEdge(1, 2)
	b.AddEdge(2, 2) // self-loop dropped
	b.AddEdge(3, 0)
	g := b.Build()
	if g.NumNodes() != 4 {
		t.Fatalf("NumNodes = %d", g.NumNodes())
	}
	if g.NumEdges() != 3 {
		t.Fatalf("NumEdges = %d, want 3 (dedup + self-loop drop)", g.NumEdges())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 2) || !g.HasEdge(3, 0) {
		t.Fatal("missing expected edges")
	}
	if g.HasEdge(1, 0) || g.HasEdge(2, 2) {
		t.Fatal("unexpected edges")
	}
	if g.OutDegree(0) != 1 || g.OutDegree(2) != 0 {
		t.Fatal("OutDegree wrong")
	}
}

func TestBuilderPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewBuilder(2).AddEdge(0, 5)
}

func TestAdjacencySorted(t *testing.T) {
	b := NewBuilder(5)
	b.AddEdge(0, 4)
	b.AddEdge(0, 1)
	b.AddEdge(0, 3)
	b.AddEdge(0, 2)
	g := b.Build()
	row := g.OutNeighbors(0)
	for i := 1; i < len(row); i++ {
		if row[i-1] >= row[i] {
			t.Fatalf("row not sorted: %v", row)
		}
	}
}

func TestInDegrees(t *testing.T) {
	g := FromEdges(3, [][2]int{{0, 1}, {2, 1}, {1, 0}})
	in := g.InDegrees()
	if in[0] != 1 || in[1] != 2 || in[2] != 0 {
		t.Fatalf("InDegrees = %v", in)
	}
}

func TestReverse(t *testing.T) {
	g := FromEdges(4, [][2]int{{0, 1}, {1, 2}, {2, 0}, {3, 1}})
	r := g.Reverse()
	if r.NumEdges() != g.NumEdges() {
		t.Fatal("edge count changed")
	}
	g.Edges(func(u, v int) bool {
		if !r.HasEdge(v, u) {
			t.Fatalf("missing reversed edge %d->%d", v, u)
		}
		return true
	})
}

func TestReversePropertyRandom(t *testing.T) {
	rng := mathx.NewRNG(1)
	f := func(seed uint32) bool {
		g := randomDigraph(rng, 30, 0.1)
		rr := g.Reverse().Reverse()
		if rr.NumEdges() != g.NumEdges() {
			return false
		}
		equal := true
		g.Edges(func(u, v int) bool {
			if !rr.HasEdge(u, v) {
				equal = false
				return false
			}
			return true
		})
		return equal
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func randomDigraph(rng *mathx.RNG, n int, p float64) *Digraph {
	b := NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u != v && rng.Bool(p) {
				b.AddEdge(u, v)
			}
		}
	}
	return b.Build()
}

func TestDensity(t *testing.T) {
	g := FromEdges(3, [][2]int{{0, 1}, {1, 2}})
	want := 2.0 / 6.0
	if g.Density() != want {
		t.Fatalf("Density = %v, want %v", g.Density(), want)
	}
	empty := NewBuilder(0).Build()
	if empty.Density() != 0 {
		t.Fatal("empty density")
	}
}

func TestInducedSubgraph(t *testing.T) {
	g := FromEdges(5, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}, {1, 3}})
	sub, orig, err := g.InducedSubgraph([]int{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if sub.NumNodes() != 3 {
		t.Fatalf("sub nodes = %d", sub.NumNodes())
	}
	// Edges among {1,2,3}: 1->2, 2->3, 1->3.
	if sub.NumEdges() != 3 {
		t.Fatalf("sub edges = %d", sub.NumEdges())
	}
	find := func(old int) int {
		for i, o := range orig {
			if o == old {
				return i
			}
		}
		return -1
	}
	if !sub.HasEdge(find(1), find(2)) || !sub.HasEdge(find(2), find(3)) || !sub.HasEdge(find(1), find(3)) {
		t.Fatal("subgraph edges wrong")
	}
	if _, _, err := g.InducedSubgraph([]int{99}); err == nil {
		t.Fatal("expected range error")
	}
}

func TestInducedSubgraphDuplicates(t *testing.T) {
	g := FromEdges(3, [][2]int{{0, 1}})
	sub, orig, err := g.InducedSubgraph([]int{0, 0, 1})
	if err != nil || sub.NumNodes() != 2 || len(orig) != 2 {
		t.Fatalf("dup collapse failed: %v nodes=%d", err, sub.NumNodes())
	}
}

func TestUndirected(t *testing.T) {
	g := FromEdges(3, [][2]int{{0, 1}, {1, 0}, {1, 2}})
	u := g.Undirected()
	if u.NumEdges() != 4 { // {0,1} and {1,2} each twice
		t.Fatalf("undirected edges = %d", u.NumEdges())
	}
	if !u.HasEdge(2, 1) || !u.HasEdge(0, 1) {
		t.Fatal("undirected symmetry broken")
	}
}

// builderProjection is the reference undirected projection: every edge
// added in both directions through a Builder, which sorts and dedups.
func builderProjection(g *Digraph) *Digraph {
	b := NewBuilder(g.NumNodes())
	g.Edges(func(u, v int) bool {
		b.AddEdge(u, v)
		b.AddEdge(v, u)
		return true
	})
	return b.Build()
}

// sameCSR fails unless got and want have identical CSR arrays, so every
// row holds the same neighbours in the same order.
func sameCSR(t *testing.T, name string, got, want *Digraph) {
	t.Helper()
	gotOff, gotAdj := got.CSR()
	wantOff, wantAdj := want.CSR()
	if got.NumNodes() != want.NumNodes() || !slices.Equal(gotOff, wantOff) || !slices.Equal(gotAdj, wantAdj) {
		t.Fatalf("%s: CSR (%v, %v), want (%v, %v)", name, gotOff, gotAdj, wantOff, wantAdj)
	}
}

func TestUndirectedMatchesBuilderProjection(t *testing.T) {
	rng := mathx.NewRNG(11)
	cases := map[string]*Digraph{
		"n=0":          NewBuilder(0).Build(),
		"n=1":          NewBuilder(1).Build(),
		"zero value":   &Digraph{},
		"edgeless":     NewBuilder(7).Build(),
		"all mutual":   FromEdges(4, [][2]int{{0, 1}, {1, 0}, {2, 3}, {3, 2}, {1, 3}, {3, 1}}),
		"one way star": FromEdges(6, [][2]int{{0, 1}, {0, 2}, {3, 0}, {4, 0}, {0, 4}}),
	}
	for trial := 0; trial < 12; trial++ {
		n := 1 + rng.Intn(150)
		p := []float64{0.01, 0.05, 0.2, 0.6}[trial%4]
		g := randomDigraph(rng, n, p)
		cases[fmt.Sprintf("random n=%d p=%v", n, p)] = g
		cases[fmt.Sprintf("reverse n=%d p=%v", n, p)] = g.Reverse()
		// A graph from NewFromCSR over copies of the arrays shares no
		// cached state with g.
		off, adj := g.CSR()
		fromCSR, err := NewFromCSR(n, append([]int64(nil), off...), append([]int32(nil), adj...))
		if err != nil {
			t.Fatal(err)
		}
		cases[fmt.Sprintf("csr n=%d p=%v", n, p)] = fromCSR
	}
	for name, g := range cases {
		want := builderProjection(g)
		und := g.Undirected()
		sameCSR(t, name, und, want)
		if g.Undirected() != und {
			t.Fatalf("%s: second call rebuilt the projection", name)
		}
	}
}

func TestUndirectedConcurrentFirstCall(t *testing.T) {
	g := randomDigraph(mathx.NewRNG(12), 300, 0.05)
	const callers = 8
	got := make([]*Digraph, callers)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = g.Undirected()
		}(i)
	}
	wg.Wait()
	for i, u := range got {
		if u != got[0] {
			t.Fatalf("caller %d got a different projection", i)
		}
	}
	sameCSR(t, "concurrent", got[0], builderProjection(g))
}

func TestNewFromCSRRoundTrip(t *testing.T) {
	rng := mathx.NewRNG(7)
	g := randomDigraph(rng, 50, 0.07)
	off, adj := g.CSR()
	g2, err := NewFromCSR(g.NumNodes(), off, adj)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumEdges() != g.NumEdges() {
		t.Fatal("round trip changed edges")
	}
}

func TestNewFromCSRValidation(t *testing.T) {
	// Unsorted row.
	if _, err := NewFromCSR(2, []int64{0, 2, 2}, []int32{1, 1}); err == nil {
		t.Fatal("duplicate should fail")
	}
	// Self-loop.
	if _, err := NewFromCSR(2, []int64{0, 1, 1}, []int32{0}); err == nil {
		t.Fatal("self-loop should fail")
	}
	// Out of range.
	if _, err := NewFromCSR(2, []int64{0, 1, 1}, []int32{5}); err == nil {
		t.Fatal("range should fail")
	}
	// Bad offsets.
	if _, err := NewFromCSR(2, []int64{0, 2, 1}, []int32{1, 0}); err == nil {
		t.Fatal("decreasing offsets should fail")
	}
}

func TestEdgesEarlyStop(t *testing.T) {
	g := FromEdges(4, [][2]int{{0, 1}, {0, 2}, {1, 2}, {2, 3}})
	seen := 0
	g.Edges(func(u, v int) bool {
		seen++
		return seen < 2
	})
	if seen != 2 {
		t.Fatalf("early stop failed, saw %d", seen)
	}
}
