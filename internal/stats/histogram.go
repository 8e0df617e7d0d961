package stats

import (
	"math"
	"sort"
)

// Histogram is a binned frequency distribution. Bins are [Edges[i],
// Edges[i+1]) with the final bin closed on the right.
type Histogram struct {
	Edges  []float64 // len = len(Counts)+1, ascending
	Counts []int
}

// Total returns the number of binned observations.
func (h *Histogram) Total() int {
	t := 0
	for _, c := range h.Counts {
		t += c
	}
	return t
}

// GeometricCenters returns sqrt(lo·hi) per bin, the natural x-coordinate for
// log-binned data.
func (h *Histogram) GeometricCenters() []float64 {
	out := make([]float64, len(h.Counts))
	for i := range out {
		out[i] = math.Sqrt(h.Edges[i] * h.Edges[i+1])
	}
	return out
}

// NewLogHistogram bins positive values into k logarithmically spaced bins —
// the binning used by the Figure 1 "log-scaled number of users vs metric"
// panels. Non-positive values are dropped (callers report them separately as
// the zero bucket).
func NewLogHistogram(xs []float64, k int) *Histogram {
	var pos []float64
	for _, x := range xs {
		if x > 0 {
			pos = append(pos, x)
		}
	}
	if k <= 0 || len(pos) == 0 {
		return &Histogram{Edges: []float64{1, 10}, Counts: make([]int, 1)}
	}
	lo, hi := pos[0], pos[0]
	for _, x := range pos {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	if hi == lo {
		hi = lo * 10
	}
	lLo, lHi := math.Log(lo), math.Log(hi)
	h := &Histogram{Edges: make([]float64, k+1), Counts: make([]int, k)}
	for i := 0; i <= k; i++ {
		h.Edges[i] = math.Exp(lLo + (lHi-lLo)*float64(i)/float64(k))
	}
	w := (lHi - lLo) / float64(k)
	for _, x := range pos {
		i := int((math.Log(x) - lLo) / w)
		if i < 0 {
			i = 0
		}
		if i >= k {
			i = k - 1
		}
		h.Counts[i]++
	}
	return h
}

// CCDFPoint is one point of an empirical complementary CDF.
type CCDFPoint struct {
	X float64 // value
	P float64 // fraction of observations >= X
}

// DegreeFrequency returns, for each distinct positive value, the fraction of
// observations equal to it — the "proportion of users vs out-degree" series
// of Figure 2.
func DegreeFrequency(xs []int) []CCDFPoint {
	if len(xs) == 0 {
		return nil
	}
	counts := map[int]int{}
	total := 0
	for _, x := range xs {
		if x > 0 {
			counts[x]++
			total++
		}
	}
	keys := make([]int, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	out := make([]CCDFPoint, len(keys))
	for i, k := range keys {
		out[i] = CCDFPoint{X: float64(k), P: float64(counts[k]) / float64(total)}
	}
	return out
}
