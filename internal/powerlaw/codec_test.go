package powerlaw

import (
	"bytes"
	"testing"

	"elites/internal/cache"
	"elites/internal/mathx"
)

func TestFitCodecRoundTrip(t *testing.T) {
	rng := mathx.NewRNG(5)
	xs := make([]int, 3000)
	for i := range xs {
		xs[i] = rng.ParetoInt(1, 2.5)
	}
	fit, err := FitDiscrete(xs)
	if err != nil {
		t.Fatal(err)
	}

	var e cache.Encoder
	fit.EncodeTo(&e)
	got, err := DecodeFitFrom(cache.NewDecoder(e.Bytes()))
	if err != nil {
		t.Fatal(err)
	}

	if got.Discrete != fit.Discrete || got.Alpha != fit.Alpha || got.Xmin != fit.Xmin ||
		got.KS != fit.KS || got.NTail != fit.NTail || got.N != fit.N ||
		got.LogLik != fit.LogLik || got.AlphaStdErr != fit.AlphaStdErr {
		t.Fatalf("exported fields diverge: %+v vs %+v", got, fit)
	}
	// The unexported state must round-trip too: the bootstrap and the Vuong
	// comparisons read it.
	a, b := fit.tailView(), got.tailView()
	if len(a) != len(b) {
		t.Fatalf("tail lengths diverge: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("tail[%d]: %v vs %v", i, a[i], b[i])
		}
	}
	seed := mathx.NewRNG(77)
	if p1, p2 := fit.GoodnessOfFitWorkers(10, seed, 0), got.GoodnessOfFitWorkers(10, seed, 0); p1 != p2 {
		t.Fatalf("bootstrap diverges after round trip: %v vs %v", p1, p2)
	}
	v1, v2 := fit.CompareAll(), got.CompareAll()
	if len(v1) != len(v2) {
		t.Fatalf("CompareAll lengths diverge")
	}
	for i := range v1 {
		if v1[i].LogLikRatio != v2[i].LogLikRatio || v1[i].PValue != v2[i].PValue {
			t.Fatalf("Vuong diverges after round trip at %d", i)
		}
	}
}

func TestVuongCodecRoundTrip(t *testing.T) {
	v := &VuongResult{
		Alternative: AltExponential,
		LogLikRatio: 123.5,
		Statistic:   -2.25,
		PValue:      0.024,
		AltParams:   []float64{0.5},
	}
	var e cache.Encoder
	v.EncodeTo(&e)
	got, err := DecodeVuongFrom(cache.NewDecoder(e.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Alternative != v.Alternative || got.LogLikRatio != v.LogLikRatio ||
		got.Statistic != v.Statistic || got.PValue != v.PValue ||
		len(got.AltParams) != 1 || got.AltParams[0] != 0.5 {
		t.Fatalf("round trip diverges: %+v", got)
	}
}

func TestFitCodecCorruption(t *testing.T) {
	rng := mathx.NewRNG(5)
	xs := make([]int, 500)
	for i := range xs {
		xs[i] = rng.ParetoInt(1, 2.5)
	}
	fit, err := FitDiscrete(xs)
	if err != nil {
		t.Fatal(err)
	}
	var e cache.Encoder
	fit.EncodeTo(&e)
	full := e.Bytes()
	for _, cut := range []int{0, 1, 5, len(full) / 2, len(full) - 1} {
		if _, err := DecodeFitFrom(cache.NewDecoder(full[:cut])); err == nil {
			t.Fatalf("truncation at %d decoded cleanly", cut)
		}
	}
	if _, err := DecodeFitFrom(cache.NewDecoder(bytes.Repeat([]byte{0xff}, 16))); err == nil {
		t.Fatal("garbage decoded cleanly")
	}
}
