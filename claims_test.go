package elites

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"elites/internal/core"
	"elites/internal/gen"
	"elites/internal/powerlaw"
	"elites/internal/twitter"
)

// claimOptions are perfbench's worker options: the report the claims read
// is the one the service serves for the canonical instance.
var claimOptions = core.Options{
	BootstrapReps: 25, EigenK: 100, BetweennessSources: 128,
	DistanceSources: 150, Seed: 1,
}

// claim is one finding of the paper (arXiv:1812.09710), checked against
// the report of the canonical instance (v) and of a generic-Twitter
// reference (ref).
type claim struct {
	section, name, paper string
	// check returns the measured value and whether the claim holds.
	check func(v, ref *core.Report) (string, bool)
	// reproduces is the outcome on today's code. A claim that does not
	// reproduce is a finding, kept here rather than hidden by a wider
	// band; a change that flips an outcome must flip it here too.
	reproduces bool
}

// paperClaims is the table of the paper's §III–§V findings.
var paperClaims = []claim{
	bandClaim("§III", "giant SCC share", true),
	bandClaim("§IV-A", "clustering", true),
	bandClaim("§IV-A", "assortativity", true),
	bandClaim("§IV-B", "power-law alpha", true),
	{"§IV-B", "out-degree GoF bootstrap accepts the power law (p > 0.1)", "0.13",
		func(v, _ *core.Report) (string, bool) {
			return fmt.Sprintf("%.3f", v.Degree.GoFP), v.Degree.GoFP > 0.1
		}, true},
	vuongClaim("out-degree", powerlaw.AltLognormal, false),
	vuongClaim("out-degree", powerlaw.AltExponential, true),
	vuongClaim("out-degree", powerlaw.AltPoisson, true),
	{"§IV-B", "eigenvalue alpha within one standard error", "3.18",
		func(v, _ *core.Report) (string, bool) {
			f := v.Eigen.Fit
			return fmt.Sprintf("%.3f ± %.3f", f.Alpha, f.AlphaStdErr),
				f.Alpha-f.AlphaStdErr <= 3.18 && 3.18 <= f.Alpha+f.AlphaStdErr
		}, false},
	vuongClaim("eigenvalue", powerlaw.AltLognormal, false),
	vuongClaim("eigenvalue", powerlaw.AltExponential, false),
	bandClaim("§IV-C", "reciprocity", true),
	{"§IV-C", "verified reciprocity above generic Twitter", "0.337 vs 0.221",
		func(v, ref *core.Report) (string, bool) {
			rv, rt := *v.Reciprocity, *ref.Reciprocity
			return fmt.Sprintf("%.3f vs %.3f", rv, rt), rv > rt
		}, true},
	{"§IV-C", "core reciprocity above periphery (conjecture)", "conjectured",
		func(v, _ *core.Report) (string, bool) {
			m := v.MutualCore
			return fmt.Sprintf("%.3f vs %.3f (k >= %d)", m.CoreReciprocity, m.PeripheryReciprocity, m.CoreK),
				m.ConjectureHolds()
		}, true},
	bandClaim("§IV-D", "mean distance", true),
	{"§IV-D", "verified mean distance below generic Twitter", "2.74 vs 4.12",
		func(v, ref *core.Report) (string, bool) {
			dv, dt := v.Distances.Mean(), ref.Distances.Mean()
			return fmt.Sprintf("%.2f vs %.2f", dv, dt), dv < dt
		}, true},
	{"§IV-E", "top bigram (Table I)", "Official Twitter",
		func(v, _ *core.Report) (string, bool) {
			p := v.Bios.TopBigrams[0].Phrase()
			return p, p == "Official Twitter"
		}, true},
	{"§IV-E", "top trigram (Table II)", "Official Twitter Account",
		func(v, _ *core.Report) (string, bool) {
			p := v.Bios.TopTrigrams[0].Phrase()
			return p, p == "Official Twitter Account"
		}, true},
	{"§IV-F", "every Figure 5 correlation positive", "all positive",
		func(v, _ *core.Report) (string, bool) {
			var rs []string
			ok := len(v.Centrality) == 6
			for _, p := range v.Centrality {
				rs = append(rs, fmt.Sprintf("%+.2f", p.Pearson))
				ok = ok && p.Pearson > 0
			}
			return strings.Join(rs, " "), ok
		}, true},
	{"§V", "Sundays below weekdays", "lower",
		func(v, _ *core.Report) (string, bool) {
			r := v.Activity.SundayWeekday
			return fmt.Sprintf("Sunday/weekday %.3f", r), r < 1
		}, true},
	{"§V", "Ljung–Box rejects white noise at every lag", "max p 3.81e-38",
		func(v, _ *core.Report) (string, bool) {
			p := v.Activity.LjungBoxMaxP
			return fmt.Sprintf("max p %.3g", p), p < 0.05
		}, true},
	{"§V", "Box–Pierce rejects white noise at every lag", "max p 7.57e-38",
		func(v, _ *core.Report) (string, bool) {
			p := v.Activity.BoxPierceMaxP
			return fmt.Sprintf("max p %.3g", p), p < 0.05
		}, true},
	{"§V", "ADF finds the series stationary at 5%", "-3.86 < -3.42",
		func(v, _ *core.Report) (string, bool) {
			a := v.Activity.ADF
			return fmt.Sprintf("%.2f vs %.2f", a.Statistic, a.Crit5), a.Stationary()
		}, true},
	{"§V", "stable change-points only near Christmas and early April", "Dec 23–25, first week of April",
		changepointsCheck, true},
}

// bandClaim checks a fingerprint dimension against its VerifiedLikeness
// band, the one source of the verified bands.
func bandClaim(section, name string, reproduces bool) claim {
	paper := fingerprintBand(core.PaperVerifiedFingerprint(), name)
	return claim{section, name + " in the verified band", fmt.Sprintf("%.4g", paper.Value),
		func(v, _ *core.Report) (string, bool) {
			b := fingerprintBand(core.FingerprintOf(v), name)
			return fmt.Sprintf("%.4g (band %g to %g)", b.Value, b.Lo, b.Hi), b.Score() == 1
		}, reproduces}
}

func fingerprintBand(fp core.Fingerprint, name string) core.Band {
	for _, b := range fp.Bands() {
		if b.Name == name {
			return b
		}
	}
	panic("no fingerprint band " + name)
}

// vuongClaim checks that the Vuong test favours the power law over alt
// for the out-degree or eigenvalue fit (§IV-B: "LLRs favouring the power
// law").
func vuongClaim(dist string, alt powerlaw.Alternative, reproduces bool) claim {
	return claim{"§IV-B", fmt.Sprintf("%s Vuong test favours the power law over %s", dist, alt), "favours",
		func(v, _ *core.Report) (string, bool) {
			pa := v.Degree
			if dist == "eigenvalue" {
				pa = v.Eigen
			}
			for _, r := range pa.Vuong {
				if r.Alternative == alt {
					return fmt.Sprintf("LLR %+.1f, p %.2g", r.LogLikRatio, r.PValue), r.Favours() == 1
				}
			}
			return "not run", false
		}, reproduces}
}

// changepointsCheck applies the paper's criterion to the PELT penalty
// sweep: every change-point retained in at least a third of the runs lies
// in the Christmas or the early-April window (the Christmas window spans
// the simulated holiday dip), and both windows are hit.
func changepointsCheck(v, _ *core.Report) (string, bool) {
	christmas := time.Date(2017, 12, 23, 0, 0, 0, 0, time.UTC)
	april := time.Date(2018, 4, 3, 0, 0, 0, 0, time.UTC)
	days := func(d, from time.Time) int { return int(d.Sub(from).Hours() / 24) }
	var dates []string
	inXmas, inApril, outside := false, false, false
	for _, c := range v.Activity.Changepoints {
		if c.Stability < 0.33 {
			continue
		}
		d := v.Activity.Series.Date(c.Index)
		dates = append(dates, d.Format("2006-01-02"))
		switch {
		case days(d, christmas) >= -7 && days(d, christmas) <= 19:
			inXmas = true
		case days(d, april) >= -10 && days(d, april) <= 10:
			inApril = true
		default:
			outside = true
		}
	}
	return strings.Join(dates, " "), inXmas && inApril && !outside
}

// TestPaperClaims checks every row of paperClaims on the canonical
// instance and logs each measured value against the paper's.
func TestPaperClaims(t *testing.T) {
	ds, activity := fixtures(t)
	v, err := core.NewCharacterizer(claimOptions).Run(ds, activity)
	if err != nil {
		t.Fatal(err)
	}
	generic, err := gen.Twitter(benchN, 2)
	if err != nil {
		t.Fatal(err)
	}
	refOpts := claimOptions
	refOpts.Stages = core.FingerprintStages()
	ref, err := core.NewCharacterizer(refOpts).Run(&twitter.Dataset{Graph: generic.Graph}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range paperClaims {
		measured, holds := c.check(v, ref)
		verdict := "holds"
		if !holds {
			verdict = "does not reproduce"
		}
		t.Logf("[%s] %s: measured %s against paper %s: %s", c.section, c.name, measured, c.paper, verdict)
		if holds != c.reproduces {
			t.Errorf("[%s] %s: holds=%v, the table records %v", c.section, c.name, holds, c.reproduces)
		}
	}
}
