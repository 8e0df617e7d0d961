package twitter

import (
	"math"
	"testing"
	"time"

	"elites/internal/gen"
	"elites/internal/text"
	"elites/internal/timeseries"
)

func smallPlatform(t *testing.T, n int) *Platform {
	t.Helper()
	cfg := DefaultPlatformConfig(n)
	p, err := NewPlatform(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPlatformBasics(t *testing.T) {
	p := smallPlatform(t, 2000)
	if p.NumVerified() != 2000 {
		t.Fatalf("verified = %d", p.NumVerified())
	}
	en := p.EnglishNodes()
	share := float64(len(en)) / 2000
	if share < 0.72 || share < 0.5 || share > 0.84 {
		t.Fatalf("english share = %v, want ≈0.777", share)
	}
}

func TestProfileMetricsPlausible(t *testing.T) {
	p := smallPlatform(t, 2000)
	in := p.Graph().InDegrees()
	var sumF float64
	for v := 0; v < p.NumVerified(); v++ {
		pr := p.ProfileByNode(v)
		if pr.Followers < 0 || pr.Friends < 0 || pr.Listed < 0 || pr.Statuses < 0 {
			t.Fatalf("negative metric at %d: %+v", v, pr)
		}
		if !pr.Verified {
			t.Fatal("all platform users are verified")
		}
		if pr.Bio == "" || pr.ScreenName == "" {
			t.Fatalf("empty profile text at %d", v)
		}
		if pr.CreatedAt.After(SnapshotDate) {
			t.Fatal("created in the future")
		}
		sumF += float64(pr.Followers)
	}
	// Followers must correlate with verified in-degree (Fig 5 premise).
	var num, denA, denB float64
	meanIn, meanF := 0.0, sumF/float64(p.NumVerified())
	for _, d := range in {
		meanIn += float64(d)
	}
	meanIn /= float64(len(in))
	for v, d := range in {
		da := float64(d) - meanIn
		db := float64(p.ProfileByNode(v).Followers) - meanF
		num += da * db
		denA += da * da
		denB += db * db
	}
	r := num / math.Sqrt(denA*denB)
	if r < 0.5 {
		t.Fatalf("followers vs in-degree correlation = %v, want strong", r)
	}
}

func TestCategorySinksAreStars(t *testing.T) {
	p := smallPlatform(t, 4000)
	for v, role := range p.genres.Roles {
		if role == gen.RoleCelebritySink {
			cat := p.ProfileByNode(v).Category
			if cat != CatActor && cat != CatMusician {
				t.Fatalf("sink category = %v", cat)
			}
		}
	}
}

func TestBioCorpusReproducesTables(t *testing.T) {
	p := smallPlatform(t, 6000)
	ds, err := DatasetFromPlatform(p)
	if err != nil {
		t.Fatal(err)
	}
	big := text.NewCounter(2)
	tri := text.NewCounter(3)
	for _, bio := range ds.Bios() {
		toks := text.Tokenize(bio)
		big.Add(toks)
		tri.Add(toks)
	}
	topBig := big.Top(15)
	if len(topBig) == 0 || topBig[0].Phrase() != "Official Twitter" {
		t.Fatalf("top bigram = %v, want Official Twitter", topBig)
	}
	topTri := tri.Top(15)
	if len(topTri) == 0 || topTri[0].Phrase() != "Official Twitter Account" {
		t.Fatalf("top trigram = %v, want Official Twitter Account", topTri)
	}
	// Signature phrases from Tables I/II must appear in the top lists.
	wantBigrams := map[string]bool{"Award Winning": false, "Singer Songwriter": false,
		"Husband Father": false, "Breaking News": false}
	for _, g := range topBig {
		if _, ok := wantBigrams[g.Phrase()]; ok {
			wantBigrams[g.Phrase()] = true
		}
	}
	for phrase, found := range wantBigrams {
		if !found {
			t.Errorf("bigram %q missing from top-15: %v", phrase, topBig)
		}
	}
	wantTrigrams := map[string]bool{"Official Twitter Page": false, "Weather Alerts En": false}
	for _, g := range topTri {
		if _, ok := wantTrigrams[g.Phrase()]; ok {
			wantTrigrams[g.Phrase()] = true
		}
	}
	for phrase, found := range wantTrigrams {
		if !found {
			t.Errorf("trigram %q missing from top-15: %v", phrase, topTri)
		}
	}
}

func TestActivitySeriesShape(t *testing.T) {
	p := smallPlatform(t, 3000)
	series := p.ActivitySeries(p.EnglishNodes())
	if series.Len() != CollectionDays {
		t.Fatalf("series length = %d", series.Len())
	}
	// Sundays reliably lower than weekdays.
	wm := series.WeekdayMeans()
	weekdayMean := (wm[1] + wm[2] + wm[3] + wm[4] + wm[5]) / 5
	if wm[0] >= 0.95*weekdayMean {
		t.Fatalf("Sunday mean %v not below weekday mean %v", wm[0], weekdayMean)
	}
	// Portmanteau: decisive rejection, as in §V.
	lb, err := timeseries.LjungBox(series.Values, 185)
	if err != nil {
		t.Fatal(err)
	}
	if p := timeseries.MaxPValue(lb); p > 1e-6 {
		t.Fatalf("max Ljung–Box p = %v, want tiny", p)
	}
	// ADF with constant+trend: stationary (paper: −3.86 < −3.42).
	adf, err := timeseries.ADF(series.Values, timeseries.RegConstantTrend, -1)
	if err != nil {
		t.Fatal(err)
	}
	if !adf.Stationary() {
		t.Fatalf("activity series not stationary: stat %v crit %v", adf.Statistic, adf.Crit5)
	}
}

func TestActivityChangepoints(t *testing.T) {
	p := smallPlatform(t, 3000)
	series := p.ActivitySeries(p.EnglishNodes())
	cands := timeseries.PenaltySweep(series.Values, 10, 400, 12, 7, 6)
	if len(cands) < 2 {
		t.Fatalf("penalty sweep found %v", cands)
	}
	// The paper's criterion: dates retained "in a significant number of
	// runs" are viable, and only two events survive — "one slightly
	// before Christmas (23rd–25th December)" and one "around the first
	// week of April". We therefore require every stable candidate to
	// fall inside one of those two event windows (the Christmas window
	// extends over the planted 12-day holiday dip), with both windows
	// hit.
	christmas := series.IndexOf(time.Date(2017, 12, 23, 0, 0, 0, 0, time.UTC))
	april := series.IndexOf(time.Date(2018, 4, 3, 0, 0, 0, 0, time.UTC))
	inXmas, inApril, outside := false, false, false
	for _, c := range cands {
		if c.Stability < 0.33 {
			continue
		}
		switch {
		case c.Index >= christmas-7 && c.Index <= christmas+19:
			inXmas = true
		case c.Index >= april-10 && c.Index <= april+10:
			inApril = true
		default:
			outside = true
		}
	}
	if !inXmas || !inApril || outside {
		t.Fatalf("changepoint windows: xmas=%v april=%v spurious=%v cands=%v (want windows around %d and %d)",
			inXmas, inApril, outside, cands, christmas, april)
	}
}

func abs(a int) int {
	if a < 0 {
		return -a
	}
	return a
}

func TestTweetsOnBounds(t *testing.T) {
	p := smallPlatform(t, 300)
	if p.TweetsOn(0, -1) != 0 || p.TweetsOn(0, CollectionDays) != 0 {
		t.Fatal("out-of-window days should be 0")
	}
}
