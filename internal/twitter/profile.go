// Package twitter simulates the Twitter platform surface the paper's data
// acquisition depends on: user profiles with bios and audience metrics, the
// '@verified' account, a REST API with cursor pagination and 15-request/
// 15-minute rate windows driven by a virtual clock, a Firehose of daily user
// statistics over the paper's one-year collection window, and the crawler
// that reproduces the §III pipeline (query @verified → fetch profiles →
// filter English → fetch friend lists → induce the verified sub-graph).
//
// Everything is deterministic given the platform seed; no real network I/O
// occurs anywhere in the package.
package twitter

import (
	"fmt"
	"time"
)

// Category is a verified-user archetype; bios, screen names and activity
// priors derive from it. The mix mirrors the occupational themes the paper
// reads off the bio n-grams (journalism dominating, then sport, music,
// brands, government and weather outlets).
type Category uint8

// Verified-user archetypes.
const (
	CatJournalist Category = iota
	CatAthlete
	CatMusician
	CatActor
	CatBrand
	CatMediaOutlet
	CatGovernment
	CatWeather
	CatWriter
	CatPolitician
	CatInfluencer
	numCategories
)

// String names the category.
func (c Category) String() string {
	names := [...]string{
		"journalist", "athlete", "musician", "actor", "brand",
		"media-outlet", "government", "weather", "writer",
		"politician", "influencer",
	}
	if int(c) < len(names) {
		return names[c]
	}
	return fmt.Sprintf("Category(%d)", int(c))
}

// categoryWeights is the archetype mix; journalism's dominance is the
// paper's own observation ("being a pre-eminent journalist in an English
// media outlet seems to be one of the surest ways to get verified").
var categoryWeights = []float64{
	CatJournalist:  0.17,
	CatAthlete:     0.12,
	CatMusician:    0.09,
	CatActor:       0.08,
	CatBrand:       0.13,
	CatMediaOutlet: 0.08,
	CatGovernment:  0.05,
	CatWeather:     0.045,
	CatWriter:      0.06,
	CatPolitician:  0.05,
	CatInfluencer:  0.125,
}

// Profile is a simulated user record, the analogue of the REST API's user
// object.
type Profile struct {
	ID         int64
	ScreenName string
	Name       string
	Bio        string
	Lang       string // ISO code; the paper keeps "en" profiles only
	Verified   bool
	Category   Category

	// Audience metrics at the snapshot date (the four Figure 1 panels).
	Followers int64
	Friends   int64
	Statuses  int64
	Listed    int64

	// CreatedAt is the account creation time.
	CreatedAt time.Time
}

// Languages assigned to non-English profiles, with rough platform shares.
var nonEnglishLangs = []string{"es", "pt", "ja", "ar", "fr", "tr", "de", "hi", "ko", "it"}

// verifiedIDBase offsets verified user ids; periphery (non-verified) ids
// start at peripheryIDBase, keeping the two ranges disjoint so tests can
// classify an id at a glance.
const (
	verifiedIDBase   int64 = 1_000_000
	peripheryIDBase  int64 = 2_000_000_000
	verifiedBotID    int64 = 999_999 // the '@verified' account itself
	screenNameDigits       = 1000
)

// VerifiedID maps a graph node index to its simulated user id.
func VerifiedID(node int) int64 { return verifiedIDBase + int64(node) }
