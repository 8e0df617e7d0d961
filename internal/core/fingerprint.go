package core

import (
	"fmt"
	"io"
	"math"
)

// Fingerprint is the compact structural signature the paper's conclusion
// proposes as a discriminator between verified-like and generic networks:
// "the above-mentioned deviations likely constitute a unique fingerprint for
// verified users".
type Fingerprint struct {
	Reciprocity    float64
	Clustering     float64
	Assortativity  float64
	GiantSCCShare  float64
	MeanDistance   float64
	PowerLawAlpha  float64 // NaN when no plausible power-law tail
	PowerLawGoF    float64 // bootstrap p; NaN when skipped
	IsolatedShare  float64
	AttractingRate float64 // attracting components per node
}

// FingerprintStages lists the stages whose report fields FingerprintOf
// reads; a run restricted to them (dependencies are pulled in) is enough.
func FingerprintStages() []string {
	return []string{StageSummary, StageBasic, StageDegree, StageReciprocity, StageDistances}
}

// FingerprintOf projects the fingerprint from a report's sections. A
// dimension whose section the run did not produce reads as NaN, never as a
// measured zero, so it scores as missing.
func FingerprintOf(rep *Report) Fingerprint {
	nan := math.NaN()
	fp := Fingerprint{
		Reciprocity: nan, Clustering: nan, Assortativity: nan, GiantSCCShare: nan,
		MeanDistance: nan, PowerLawAlpha: nan, PowerLawGoF: nan,
		IsolatedShare: nan, AttractingRate: nan,
	}
	if rep.Reciprocity != nil {
		fp.Reciprocity = *rep.Reciprocity
	}
	if b := rep.Basic; b != nil {
		fp.Clustering, fp.Assortativity = b.Clustering, b.Assortativity
	}
	if s := rep.Summary; s != nil {
		fp.GiantSCCShare = s.GiantSCCShare
		n := float64(max(s.Nodes, 1))
		fp.IsolatedShare = float64(s.Isolated) / n
		if rep.Basic != nil {
			fp.AttractingRate = float64(rep.Basic.AttractingComponents) / n
		}
	}
	if rep.Distances != nil {
		fp.MeanDistance = rep.Distances.Mean()
	}
	if rep.Degree != nil {
		fp.PowerLawAlpha = rep.Degree.Fit.Alpha
		fp.PowerLawGoF = rep.Degree.GoFP
	}
	return fp
}

// PaperVerifiedFingerprint is the fingerprint the paper measured on the real
// English verified network (231,246 nodes).
func PaperVerifiedFingerprint() Fingerprint {
	return Fingerprint{
		Reciprocity:    0.337,
		Clustering:     0.1583,
		Assortativity:  -0.04,
		GiantSCCShare:  0.9724,
		MeanDistance:   2.74,
		PowerLawAlpha:  3.24,
		PowerLawGoF:    0.13,
		IsolatedShare:  6027.0 / 231246.0,
		AttractingRate: 6091.0 / 231246.0,
	}
}

// Band is one dimension VerifiedLikeness scores: a fingerprint value and
// the band the paper's verified network sits in.
type Band struct {
	Name          string
	Value         float64
	Lo, Hi, Slack float64
}

// Score is 1 inside the band and decays linearly to 0 over Slack outside
// it. A missing (NaN) value scores 0: a missing power-law tail is itself
// evidence against verified-likeness.
func (b Band) Score() float64 {
	switch {
	case math.IsNaN(b.Value):
		return 0
	case b.Value < b.Lo:
		return math.Max(0, 1-(b.Lo-b.Value)/b.Slack)
	case b.Value > b.Hi:
		return math.Max(0, 1-(b.Value-b.Hi)/b.Slack)
	}
	return 1
}

// Bands returns the dimensions of f that VerifiedLikeness scores, each
// with its verified band.
func (f Fingerprint) Bands() []Band {
	return []Band{
		{"reciprocity", f.Reciprocity, 0.28, 0.40, 0.12},        // well above Twitter's 0.221
		{"clustering", f.Clustering, 0.08, 0.25, 0.10},          // low but present
		{"assortativity", f.Assortativity, -0.12, 0.00, 0.10},   // slight dissortativity
		{"giant SCC share", f.GiantSCCShare, 0.93, 0.995, 0.05}, // giant SCC ≈ 97%
		{"mean distance", f.MeanDistance, 2.2, 3.2, 0.8},        // short paths
		{"power-law alpha", f.PowerLawAlpha, 2.8, 3.7, 0.5},     // tail exponent ≈ 3.24
	}
}

// VerifiedLikeness scores how closely a fingerprint matches the paper's
// verified signature, in [0, 1]: the mean of its band scores. It is the
// simple discriminator the conclusion sketches ("evaluate the strength of
// an unverified user's case") applied at network granularity.
func (f Fingerprint) VerifiedLikeness() float64 {
	bands := f.Bands()
	score := 0.0
	for _, b := range bands {
		score += b.Score()
	}
	return score / float64(len(bands))
}

// CompareFingerprints renders a side-by-side table of two fingerprints with
// the paper's reference values — the verified-vs-generic contrast table.
func CompareFingerprints(w io.Writer, names [2]string, fps [2]Fingerprint) {
	paper := PaperVerifiedFingerprint()
	fmt.Fprintf(w, "%-24s %14s %14s %16s\n", "metric", names[0], names[1], "paper (verified)")
	row := func(name string, a, b, p float64, format string) {
		fmt.Fprintf(w, "%-24s "+format+" "+format+" "+format+"\n", name,
			a, b, p)
	}
	row("reciprocity", fps[0].Reciprocity, fps[1].Reciprocity, paper.Reciprocity, "%14.3f")
	row("clustering", fps[0].Clustering, fps[1].Clustering, paper.Clustering, "%14.4f")
	row("assortativity", fps[0].Assortativity, fps[1].Assortativity, paper.Assortativity, "%14.3f")
	row("giant SCC share", fps[0].GiantSCCShare, fps[1].GiantSCCShare, paper.GiantSCCShare, "%14.4f")
	row("mean distance", fps[0].MeanDistance, fps[1].MeanDistance, paper.MeanDistance, "%14.2f")
	row("power-law alpha", fps[0].PowerLawAlpha, fps[1].PowerLawAlpha, paper.PowerLawAlpha, "%14.3f")
	row("power-law GoF p", fps[0].PowerLawGoF, fps[1].PowerLawGoF, paper.PowerLawGoF, "%14.3f")
	row("isolated share", fps[0].IsolatedShare, fps[1].IsolatedShare, paper.IsolatedShare, "%14.4f")
	row("attracting / node", fps[0].AttractingRate, fps[1].AttractingRate, paper.AttractingRate, "%14.4f")
	fmt.Fprintf(w, "%-24s %14.3f %14.3f %16s\n", "verified-likeness",
		fps[0].VerifiedLikeness(), fps[1].VerifiedLikeness(), "1.000 (by def.)")
}
