package core

import (
	"strings"
	"testing"

	"elites/internal/features"
	"elites/internal/gen"
	"elites/internal/twitter"
)

func TestAnalyzeCategories(t *testing.T) {
	_, ds := testPlatform(t)
	ca, err := analyzeCategories(ds, features.NewShared(ds.Graph, features.Options{}))
	if err != nil {
		t.Fatal(err)
	}
	if len(ca.Stats) < 8 {
		t.Fatalf("categories found = %d", len(ca.Stats))
	}
	// Journalists dominate the archetype mix (the paper's observation).
	if ca.Stats[0].Category != twitter.CatJournalist {
		t.Fatalf("largest category = %v, want journalist", ca.Stats[0].Category)
	}
	totalShare, totalPR := 0.0, 0.0
	for _, s := range ca.Stats {
		if s.Count <= 0 || s.Share <= 0 || s.MeanFollowers <= 0 {
			t.Fatalf("bad stat: %+v", s)
		}
		if s.Affinity < 0 || s.Affinity > 1 {
			t.Fatalf("affinity out of range: %+v", s)
		}
		totalShare += s.Share
		totalPR += s.PageRankShare
	}
	if totalShare < 0.999 || totalShare > 1.001 {
		t.Fatalf("shares sum to %v", totalShare)
	}
	if totalPR < 0.999 || totalPR > 1.001 {
		t.Fatalf("PageRank shares sum to %v", totalPR)
	}
	// Distinctive terms should include category-signature vocabulary.
	for _, s := range ca.Stats {
		if s.Category == twitter.CatWeather {
			found := false
			for _, term := range s.DistinctiveTerms {
				if term.Term == "weather" || term.Term == "alerts" ||
					term.Term == "forecasts" || term.Term == "warnings" {
					found = true
				}
			}
			if !found {
				t.Fatalf("weather distinctive terms = %v", s.DistinctiveTerms)
			}
		}
	}
	var sb strings.Builder
	ca.Render(&sb)
	if !strings.Contains(sb.String(), "journalist") {
		t.Fatal("render incomplete")
	}
}

func TestMutualCoreConjectureOnVerified(t *testing.T) {
	// The §IV-C conjecture must hold on the calibrated verified network:
	// the dense core reciprocates more than the periphery.
	res, err := gen.Verified(6000, 5)
	if err != nil {
		t.Fatal(err)
	}
	mca := analyzeMutualCore(res.Graph, features.NewShared(res.Graph, features.Options{}).Cores())
	if !mca.ConjectureHolds() {
		t.Fatalf("§IV-C conjecture fails: core %.3f vs periphery %.3f",
			mca.CoreReciprocity, mca.PeripheryReciprocity)
	}
	if mca.Degeneracy <= 1 || mca.CoreNodes <= 0 {
		t.Fatalf("degenerate core structure: %+v", mca)
	}
	var sb strings.Builder
	mca.Render(&sb)
	if !strings.Contains(sb.String(), "conjecture") {
		t.Fatal("render incomplete")
	}
}
