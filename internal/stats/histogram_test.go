package stats

import (
	"math"
	"testing"
)

func TestLogHistogram(t *testing.T) {
	xs := []float64{1, 10, 100, 1000, -5, 0}
	h := NewLogHistogram(xs, 3)
	if h.Total() != 4 {
		t.Fatalf("non-positive not dropped: total=%d", h.Total())
	}
	// Edges should be geometric.
	ratio1 := h.Edges[1] / h.Edges[0]
	ratio2 := h.Edges[2] / h.Edges[1]
	if math.Abs(ratio1-ratio2) > 1e-9 {
		t.Fatalf("edges not geometric: %v", h.Edges)
	}
	gc := h.GeometricCenters()
	if len(gc) != 3 || gc[0] <= h.Edges[0] || gc[0] >= h.Edges[1] {
		t.Fatalf("geometric centers wrong: %v", gc)
	}
}

func TestDegreeFrequency(t *testing.T) {
	pts := DegreeFrequency([]int{1, 1, 2, 0, -3})
	if len(pts) != 2 {
		t.Fatalf("points = %v", pts)
	}
	if pts[0].X != 1 || math.Abs(pts[0].P-2.0/3) > 1e-12 {
		t.Fatalf("freq = %v", pts)
	}
	sum := 0.0
	for _, p := range pts {
		sum += p.P
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("frequencies sum to %v", sum)
	}
}
