package twitter

import (
	"errors"
	"math"
	"time"

	"elites/internal/gen"
	"elites/internal/graph"
	"elites/internal/mathx"
	"elites/internal/timeseries"
)

// ErrUnknownUser is returned for ids the platform has never issued.
var ErrUnknownUser = errors.New("twitter: unknown user id")

// CollectionStart is the first day of the simulated Firehose window; the
// paper's fine-grained statistics cover June 2017 – May 2018.
var CollectionStart = time.Date(2017, 6, 1, 0, 0, 0, 0, time.UTC)

// CollectionDays is the number of daily observations (the paper: "we have
// 366").
const CollectionDays = 366

// SnapshotDate is the crawl date (§III: 18 July 2018).
var SnapshotDate = time.Date(2018, 7, 18, 0, 0, 0, 0, time.UTC)

// PlatformConfig sizes the simulated platform.
type PlatformConfig struct {
	// Verified is the number of verified accounts (graph nodes).
	Verified int
	// Seed derives all platform randomness.
	Seed uint64
	// GraphConfig generates the verified follow graph; zero value means
	// gen.VerifiedDefaults(Verified).
	GraphConfig gen.Config
}

const (
	// englishShare is the fraction of verified profiles with Lang "en";
	// the paper keeps 231,246 of 297,776 ≈ 77.7%.
	englishShare float64 = 0.777
	// peripheryFriendFactor scales how many non-verified friends each
	// verified user has, relative to its verified friends (the real
	// crawl discards these; the simulated crawler must too).
	peripheryFriendFactor float64 = 1.0
)

// DefaultPlatformConfig returns a platform sized to n verified users.
func DefaultPlatformConfig(n int) PlatformConfig {
	return PlatformConfig{Verified: n, Seed: 42}
}

// Platform is the simulated Twitter. It owns the verified follow graph, all
// verified profiles, and the activity model behind the Firehose.
type Platform struct {
	cfg      PlatformConfig
	genres   *gen.Result
	graph    *graph.Digraph
	profiles []Profile // indexed by node
	byID     map[int64]int

	// activity model
	baseRate  []float64 // expected tweets/day per node
	dayFactor []float64 // global day multiplier (seasonality + events)

	englishNodes []int
}

// NewPlatform builds the simulated platform: verified graph, profiles with
// bios and audience metrics, and the activity model.
func NewPlatform(cfg PlatformConfig) (*Platform, error) {
	if cfg.Verified <= 0 {
		return nil, gen.ErrConfig
	}
	gcfg := cfg.GraphConfig
	if gcfg.N == 0 {
		gcfg = gen.VerifiedDefaults(cfg.Verified)
		gcfg.Seed = cfg.Seed
	}
	gres, err := gen.Generate(gcfg)
	if err != nil {
		return nil, err
	}
	p := &Platform{
		cfg:    cfg,
		genres: gres,
		graph:  gres.Graph,
		byID:   make(map[int64]int, cfg.Verified),
	}
	rng := mathx.NewRNG(cfg.Seed ^ 0x9e3779b97f4a7c15)
	p.buildProfiles(rng)
	p.buildActivityModel(rng)
	return p, nil
}

// buildProfiles synthesizes one profile per node. Audience metrics are tied
// to network position: platform-wide followers amplify the verified
// in-degree, list memberships track followers sub-linearly, statuses track
// followers weakly with heavy noise — giving Figure 5 its correlations and
// Figure 1 its heavy tails.
func (p *Platform) buildProfiles(rng *mathx.RNG) {
	n := p.graph.NumNodes()
	in := p.graph.InDegrees()
	catSampler := mathx.NewWeightedSampler(categoryWeights)
	bios := newBioSampler()
	p.profiles = make([]Profile, n)
	for v := 0; v < n; v++ {
		cat := sampleCategory(rng, catSampler)
		if p.genres.Roles[v] == gen.RoleCelebritySink {
			// Sinks are mega-famous entertainment/brand accounts.
			if rng.Bool(0.5) {
				cat = CatActor
			} else {
				cat = CatMusician
			}
		}
		lang := "en"
		if !rng.Bool(englishShare) {
			lang = nonEnglishLangs[rng.Intn(len(nonEnglishLangs))]
		}
		// Followers: amplify verified in-degree to platform scale with
		// lognormal noise; floor keeps even fringe verified users with
		// an audience.
		followers := int64((float64(in[v]) + 2) * 120 * rng.LogNormal(0, 0.6))
		// Friends: verified out-degree plus the periphery friends the
		// API will expose.
		friends := int64(float64(p.graph.OutDegree(v)) * (1 + peripheryFriendFactor) * rng.LogNormal(0, 0.25))
		// Listed: sub-linear in followers (robust influence predictor,
		// §IV-F).
		listed := int64(0.7 * math.Pow(float64(followers), 0.75) * rng.LogNormal(0, 0.4))
		// Statuses: weakly coupled to followers, dominated by noise —
		// Figure 5(e)'s lukewarm-then-strong trend.
		statuses := int64(20 * math.Pow(float64(followers)+1, 0.32) * rng.LogNormal(0, 0.9))
		created := SnapshotDate.AddDate(0, 0, -(365 + rng.Intn(365*9)))
		id := VerifiedID(v)
		p.profiles[v] = Profile{
			ID:         id,
			ScreenName: screenName(cat, v, rng),
			Name:       "Verified User " + itoa(v),
			Bio:        bios.generate(cat, rng),
			Lang:       lang,
			Verified:   true,
			Category:   cat,
			Followers:  followers,
			Friends:    friends,
			Statuses:   statuses,
			Listed:     listed,
			CreatedAt:  created,
		}
		p.byID[id] = v
		if lang == "en" {
			p.englishNodes = append(p.englishNodes, v)
		}
	}
}

// buildActivityModel prepares per-user base tweet rates and the global
// day-factor series: weekday seasonality (Sundays reliably lower), a slow
// annual wave, a level shift slightly before Christmas 2017 and another in
// the first week of April 2018 — exactly the two change-points the paper's
// PELT sweep isolates.
func (p *Platform) buildActivityModel(rng *mathx.RNG) {
	n := p.graph.NumNodes()
	p.baseRate = make([]float64, n)
	for v := 0; v < n; v++ {
		// Daily rate from lifetime statuses with jitter.
		p.baseRate[v] = float64(p.profiles[v].Statuses) / 2000 * rng.LogNormal(0, 0.3)
	}
	p.dayFactor = make([]float64, CollectionDays)
	christmas := int(time.Date(2017, 12, 23, 0, 0, 0, 0, time.UTC).Sub(CollectionStart).Hours() / 24)
	april := int(time.Date(2018, 4, 3, 0, 0, 0, 0, time.UTC).Sub(CollectionStart).Hours() / 24)
	// Platform-wide news-cycle shock: AR(1) momentum makes day-to-day
	// autocorrelation strong at every horizon (the portmanteau verdict)
	// while mean-reverting fast enough for ADF to reject a unit root
	// decisively — the paper measures −3.86 against a −3.42 critical
	// value on the same design.
	// Calibration note: the weekday dip, wave amplitude, AR momentum and
	// shift sizes below balance three verdicts the paper reports on the
	// real series — Ljung–Box decisively rejecting independence, ADF
	// rejecting a unit root (−3.86 against −3.42), and a PELT penalty
	// sweep isolating exactly the Christmas and April change-points.
	// Stronger weekday determinism or larger shifts silently destroy the
	// ADF verdict by forcing high AIC lag orders.
	prevShock := 0.0
	for d := 0; d < CollectionDays; d++ {
		date := CollectionStart.AddDate(0, 0, d)
		f := 1.0
		switch date.Weekday() {
		case time.Sunday:
			f *= 0.92
		case time.Saturday:
			f *= 0.96
		case time.Wednesday, time.Thursday:
			f *= 1.02
		}
		// Gentle platform growth: fully absorbed by the ADF regression's
		// trend term, so it cannot flip the stationarity verdict, while
		// accumulating enough drift that PELT's level model keys on the
		// genuine events rather than the slope.
		f *= math.Exp(0.00022 * float64(d))
		// The two events the paper's PELT sweep isolates: a sharp
		// holiday slowdown slightly before Christmas that recovers
		// through early January (transient, so it reads as mean
		// reversion to ADF), and a sustained uptick in the first week
		// of April.
		if d >= christmas && d < christmas+12 {
			prog := float64(d-christmas) / 12
			f *= 0.72 + 0.28*prog
		}
		if d >= april {
			f *= 1.05
		}
		// News-cycle shock as a positive MA(1): stories span about two
		// days, so adjacent days share a shock. This pins the lag-1
		// autocorrelation well away from zero (Ljung–Box rejects at
		// every horizon, as the paper reports) while remaining memory-
		// free beyond one lag — no slow wandering to mask the ADF or
		// PELT verdicts.
		shock := rng.Normal()
		f *= math.Exp(0.0375 * (shock + 0.6*prevShock))
		prevShock = shock
		p.dayFactor[d] = f
	}
}

// Graph returns the verified follow graph (node ids are indexes, convert
// with VerifiedID).
func (p *Platform) Graph() *graph.Digraph { return p.graph }

// NumVerified returns the number of verified accounts.
func (p *Platform) NumVerified() int { return p.graph.NumNodes() }

// ProfileByNode returns the profile of a graph node.
func (p *Platform) ProfileByNode(v int) *Profile { return &p.profiles[v] }

// EnglishNodes returns the node indexes whose profile language is English —
// the population the paper studies.
func (p *Platform) EnglishNodes() []int {
	out := make([]int, len(p.englishNodes))
	copy(out, p.englishNodes)
	return out
}

// userDayNoise derives a deterministic multiplicative noise for (node, day)
// without storing the full matrix.
func (p *Platform) userDayNoise(v, day int) float64 {
	h := uint64(v)*0x9e3779b97f4a7c15 ^ uint64(day)*0xbf58476d1ce4e5b9 ^ p.cfg.Seed
	h ^= h >> 29
	h *= 0x94d049bb133111eb
	h ^= h >> 32
	// Map to a lognormal-ish multiplier in [0.67, 1.5].
	u := float64(h>>11) / (1 << 53)
	return math.Exp((u - 0.5) * 0.8)
}

// TweetsOn returns the simulated tweet count of node v on collection day d.
func (p *Platform) TweetsOn(v, day int) float64 {
	if day < 0 || day >= CollectionDays {
		return 0
	}
	return p.baseRate[v] * p.dayFactor[day] * p.userDayNoise(v, day)
}

// ActivitySeries aggregates daily tweet counts over the given nodes (pass
// EnglishNodes() for the paper's Figure 6 / §V series).
func (p *Platform) ActivitySeries(nodes []int) *timeseries.DailySeries {
	vals := make([]float64, CollectionDays)
	for d := 0; d < CollectionDays; d++ {
		s := 0.0
		for _, v := range nodes {
			s += p.TweetsOn(v, d)
		}
		vals[d] = s
	}
	return &timeseries.DailySeries{Start: CollectionStart, Values: vals}
}
