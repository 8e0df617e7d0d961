package mathx

import (
	"math"
	"testing"
)

// TestZetaLadderMatchesDirect: a ladder walk must agree with direct
// Euler–Maclaurin evaluation to near machine precision at every point of a
// descending integer scan, whatever mix of recurrence steps and re-anchors
// the gaps trigger.
func TestZetaLadderMatchesDirect(t *testing.T) {
	for _, s := range []float64{1.5, 2.0, 2.74, 3.24, 6.5} {
		l := NewZetaLadder(s)
		// Descending scan with unit steps, small gaps and one gap beyond
		// ZetaLadderMaxStep (forces a re-anchor).
		qs := []float64{2000, 1999, 1995, 1800, 1799, 1798, 120, 119, 90, 41, 40, 12, 11, 10, 5, 4, 3, 2, 1}
		for _, q := range qs {
			got := l.At(q)
			want := HurwitzZeta(s, q)
			if rel := math.Abs(got-want) / want; rel > 1e-12 {
				t.Errorf("s=%v q=%v: ladder %v vs direct %v (rel %.2e)", s, q, got, want, rel)
			}
		}
	}
}

// TestZetaLadderNonIntegerOffsets: integer-spaced but non-integer arguments
// (pinned-xmin fits at e.g. q=2.5) must ride the recurrence too.
func TestZetaLadderNonIntegerOffsets(t *testing.T) {
	l := NewZetaLadder(2.5)
	for q := 30.5; q >= 1.5; q-- {
		got := l.At(q)
		want := HurwitzZeta(2.5, q)
		if rel := math.Abs(got-want) / want; rel > 1e-12 {
			t.Errorf("q=%v: ladder %v vs direct %v (rel %.2e)", q, got, want, rel)
		}
	}
}

// TestZetaLadderReanchorsOnAscent: moving up (or jumping far down) must give
// the same values as direct evaluation — the ladder only shortcuts
// descending small gaps.
func TestZetaLadderReanchorsOnAscent(t *testing.T) {
	l := NewZetaLadder(3)
	seq := []float64{10, 50, 49, 1000, 30, 29, 29}
	for _, q := range seq {
		got := l.At(q)
		want := HurwitzZeta(3, q)
		if rel := math.Abs(got-want) / want; rel > 1e-12 {
			t.Errorf("q=%v: ladder %v vs direct %v (rel %.2e)", q, got, want, rel)
		}
	}
}

// TestZetaCacheTransparent: a cache hit must return the bit-identical value
// a fresh HurwitzZeta call would — the kernel routes every ζ(α, xmin)
// evaluation through one cache relying on exactly this.
func TestZetaCacheTransparent(t *testing.T) {
	var c ZetaCache
	pairs := [][2]float64{{2.5, 1}, {2.5, 2}, {3.24, 7}, {1.0001, 3}, {8, 1334}}
	for round := 0; round < 3; round++ {
		for _, p := range pairs {
			got := c.Get(p[0], p[1])
			want := HurwitzZeta(p[0], p[1])
			if got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
				t.Fatalf("round %d: Get(%v,%v)=%v, want bit-identical %v", round, p[0], p[1], got, want)
			}
		}
	}
	// Collision stress: many distinct keys through 64 slots must still be
	// transparent (evict, never corrupt).
	for i := 0; i < 1000; i++ {
		s := 1.1 + float64(i%50)*0.13
		q := float64(1 + i%97)
		if got, want := c.Get(s, q), HurwitzZeta(s, q); got != want {
			t.Fatalf("collision stress: Get(%v,%v)=%v, want %v", s, q, got, want)
		}
	}
}
