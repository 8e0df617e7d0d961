package timeseries

import (
	"testing"
	"time"

	"elites/internal/mathx"
)

func plantedSeries(rng *mathx.RNG, segMeans []float64, segLen int) []float64 {
	var x []float64
	for _, m := range segMeans {
		for i := 0; i < segLen; i++ {
			x = append(x, m+rng.Normal())
		}
	}
	return x
}

func TestPELTFindsPlantedMeanShifts(t *testing.T) {
	rng := mathx.NewRNG(1)
	x := plantedSeries(rng, []float64{0, 5, -3}, 100)
	cps := PELT(x, BICPenalty(len(x)), 5)
	if len(cps) != 2 {
		t.Fatalf("found %d change-points %v, want 2", len(cps), cps)
	}
	for i, want := range []int{100, 200} {
		if abs(cps[i]-want) > 3 {
			t.Fatalf("cp[%d] = %d, want ≈%d", i, cps[i], want)
		}
	}
}

func TestPELTFindsVarianceShift(t *testing.T) {
	rng := mathx.NewRNG(2)
	var x []float64
	for i := 0; i < 150; i++ {
		x = append(x, rng.Normal())
	}
	for i := 0; i < 150; i++ {
		x = append(x, 5*rng.Normal())
	}
	cps := PELT(x, BICPenalty(len(x)), 5)
	if len(cps) != 1 || abs(cps[0]-150) > 8 {
		t.Fatalf("variance shift: cps = %v, want ≈[150]", cps)
	}
}

func TestPELTNoChangeOnStationary(t *testing.T) {
	rng := mathx.NewRNG(3)
	x := make([]float64, 400)
	for i := range x {
		x[i] = rng.Normal()
	}
	cps := PELT(x, BICPenalty(len(x)), 5)
	if len(cps) > 1 {
		t.Fatalf("stationary noise produced %v", cps)
	}
}

func TestPELTMatchesBinSegOnCleanData(t *testing.T) {
	rng := mathx.NewRNG(4)
	x := plantedSeries(rng, []float64{0, 8, 0, 8}, 80)
	pelt := PELT(x, BICPenalty(len(x)), 5)
	bs := BinarySegmentation(x, BICPenalty(len(x)), 5)
	if len(pelt) != 3 || len(bs) != 3 {
		t.Fatalf("pelt=%v binseg=%v, want 3 cps each", pelt, bs)
	}
	for i := range pelt {
		if abs(pelt[i]-bs[i]) > 5 {
			t.Fatalf("disagreement: pelt=%v binseg=%v", pelt, bs)
		}
	}
}

func TestPELTMinSegRespected(t *testing.T) {
	rng := mathx.NewRNG(5)
	x := plantedSeries(rng, []float64{0, 6}, 50)
	cps := PELT(x, BICPenalty(len(x)), 30)
	for _, cp := range cps {
		if cp < 30 || len(x)-cp < 30 {
			t.Fatalf("cp %d violates minSeg", cp)
		}
	}
}

func TestPELTPenaltyMonotone(t *testing.T) {
	// Higher penalty → no more change-points than lower penalty.
	rng := mathx.NewRNG(6)
	x := plantedSeries(rng, []float64{0, 2, 4, 1}, 60)
	low := PELT(x, 5, 5)
	high := PELT(x, 100, 5)
	if len(high) > len(low) {
		t.Fatalf("penalty monotonicity violated: %d cps at β=100 vs %d at β=5",
			len(high), len(low))
	}
}

func TestPELTEdgeCases(t *testing.T) {
	if cps := PELT(nil, 10, 5); cps != nil {
		t.Fatal("empty series")
	}
	if cps := PELT([]float64{1, 2, 3}, 10, 5); cps != nil {
		t.Fatal("too short for two segments")
	}
}

func TestPenaltySweepStability(t *testing.T) {
	rng := mathx.NewRNG(7)
	// Two strong change-points; sweep should rank them with stability
	// near 1 and spurious ones (if any) lower.
	x := plantedSeries(rng, []float64{0, 6, 12}, 120)
	cands := PenaltySweep(x, 2, 500, 12, 7, 5)
	if len(cands) < 2 {
		t.Fatalf("sweep found %v", cands)
	}
	top2 := map[int]bool{}
	for _, c := range cands[:2] {
		if c.Stability < 0.7 {
			t.Fatalf("top candidate stability %v too low (%v)", c.Stability, cands)
		}
		top2[c.Index] = true
	}
	found120, found240 := false, false
	for idx := range top2 {
		if abs(idx-120) <= 6 {
			found120 = true
		}
		if abs(idx-240) <= 6 {
			found240 = true
		}
	}
	if !found120 || !found240 {
		t.Fatalf("top-2 candidates %v, want ≈120 and ≈240", cands[:2])
	}
}

func TestPenaltySweepBadParams(t *testing.T) {
	if PenaltySweep([]float64{1, 2}, 10, 5, 5, 1, 1) != nil {
		t.Fatal("hi<=lo should nil")
	}
	if PenaltySweep([]float64{1, 2}, 1, 5, 1, 1, 1) != nil {
		t.Fatal("steps<2 should nil")
	}
}

func TestDailySeriesBasics(t *testing.T) {
	start := time.Date(2017, 6, 1, 0, 0, 0, 0, time.UTC)
	s := &DailySeries{Start: start, Values: make([]float64, 30)}
	if s.Len() != 30 {
		t.Fatal("len")
	}
	if s.Date(5).Day() != 6 {
		t.Fatalf("Date(5) = %v", s.Date(5))
	}
	if s.IndexOf(start.AddDate(0, 0, 10)) != 10 {
		t.Fatal("IndexOf")
	}
	if s.IndexOf(start.AddDate(0, 0, -1)) != -1 || s.IndexOf(start.AddDate(0, 0, 31)) != -1 {
		t.Fatal("IndexOf out of range")
	}
}

func TestWeekdayMeans(t *testing.T) {
	// 2017-06-04 was a Sunday.
	start := time.Date(2017, 6, 4, 0, 0, 0, 0, time.UTC)
	vals := make([]float64, 28)
	for i := range vals {
		if i%7 == 0 { // Sundays
			vals[i] = 1
		} else {
			vals[i] = 10
		}
	}
	s := &DailySeries{Start: start, Values: vals}
	wm := s.WeekdayMeans()
	if wm[0] != 1 {
		t.Fatalf("Sunday mean = %v", wm[0])
	}
	for w := 1; w < 7; w++ {
		if wm[w] != 10 {
			t.Fatalf("weekday %d mean = %v", w, wm[w])
		}
	}
}

func TestCalendarMapRenders(t *testing.T) {
	start := time.Date(2017, 7, 1, 0, 0, 0, 0, time.UTC)
	vals := make([]float64, 62) // July + August 2017
	for i := range vals {
		vals[i] = float64(i)
	}
	s := &DailySeries{Start: start, Values: vals}
	out := s.CalendarMap()
	if out == "" {
		t.Fatal("empty render")
	}
	for _, want := range []string{"Jul 2017", "Aug 2017", "Sun", "Sat"} {
		if !containsStr(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
	empty := &DailySeries{Start: start}
	if empty.CalendarMap() != "" {
		t.Fatal("empty series should render empty")
	}
}

func containsStr(s, sub string) bool {
	return len(s) >= len(sub) && (func() bool {
		for i := 0; i+len(sub) <= len(s); i++ {
			if s[i:i+len(sub)] == sub {
				return true
			}
		}
		return false
	})()
}
