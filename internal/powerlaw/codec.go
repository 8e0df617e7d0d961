package powerlaw

import (
	"errors"

	"elites/internal/cache"
)

// Codec for cached pipeline stages (internal/cache). A Fit round-trips
// completely — including the sorted data and fit parameters that back
// GoodnessOfFitWorkers and CompareAll — so a fit hydrated from the result cache is
// indistinguishable from a freshly computed one. The suffix log-sums are
// neither encoded nor rebuilt on decode: they are a pure function of the
// sorted data, and tailLogSum recomputes the one sum a comparison needs.

// ErrDecode reports a malformed Fit or VuongResult payload.
var ErrDecode = errors.New("powerlaw: malformed encoded fit")

// EncodeTo appends the fit's complete state to e.
func (f *Fit) EncodeTo(e *cache.Encoder) {
	e.Bool(f.Discrete)
	e.Float64(f.Alpha)
	e.Float64(f.Xmin)
	e.Float64(f.KS)
	e.Int(f.NTail)
	e.Int(f.N)
	e.Float64(f.LogLik)
	e.Float64(f.AlphaStdErr)
	e.Float64s(f.sorted)
	e.Int(f.params.maxXminCandidates)
	e.Int(f.params.minTail)
	e.Float64(f.params.alphaMax)
	e.Float64(f.params.fixedXmin)
}

// DecodeFitFrom reads what EncodeTo wrote. The decoder's sticky error state
// is checked here, so callers sequencing several decodes can rely on the
// returned error.
func DecodeFitFrom(d *cache.Decoder) (*Fit, error) {
	f := &Fit{
		Discrete:    d.Bool(),
		Alpha:       d.Float64(),
		Xmin:        d.Float64(),
		KS:          d.Float64(),
		NTail:       d.Int(),
		N:           d.Int(),
		LogLik:      d.Float64(),
		AlphaStdErr: d.Float64(),
		sorted:      d.Float64s(),
	}
	f.params = fitParams{
		maxXminCandidates: d.Int(),
		minTail:           d.Int(),
		alphaMax:          d.Float64(),
		fixedXmin:         d.Float64(),
	}
	if d.Err() != nil {
		return nil, ErrDecode
	}
	return f, nil
}

// EncodeTo appends the comparison outcome to e.
func (v *VuongResult) EncodeTo(e *cache.Encoder) {
	e.Int(int(v.Alternative))
	e.Float64(v.LogLikRatio)
	e.Float64(v.Statistic)
	e.Float64(v.PValue)
	e.Float64s(v.AltParams)
}

// DecodeVuongFrom reads what VuongResult.EncodeTo wrote.
func DecodeVuongFrom(d *cache.Decoder) (*VuongResult, error) {
	v := &VuongResult{
		Alternative: Alternative(d.Int()),
		LogLikRatio: d.Float64(),
		Statistic:   d.Float64(),
		PValue:      d.Float64(),
		AltParams:   d.Float64s(),
	}
	if d.Err() != nil {
		return nil, ErrDecode
	}
	return v, nil
}
