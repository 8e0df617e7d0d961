package core

import (
	"math"
	"slices"

	"elites/internal/cache"
	"elites/internal/features"
	"elites/internal/graph"
	"elites/internal/powerlaw"
	"elites/internal/stats"
	"elites/internal/text"
	"elites/internal/timeseries"
	"elites/internal/twitter"
)

// Binary codecs for the cached pipeline stages (store-style: varints, raw
// float bits, length prefixes). Decoders inherit the cache.Decoder
// sticky-error discipline: any malformed payload surfaces as one error,
// which the scheduler treats as a miss and recomputes.

// stageKey declares what, besides the dataset digest, shapes one cached
// stage's output: its codec version (bump it whenever the encoding *or the
// computation* changes, so stale entries become unreachable instead of
// wrong), the option words of its cache key (read from defaulted Options;
// nil: none), and whether the options leave it out of the battery (nil:
// never; the dataset may still lack its inputs).
type stageKey struct {
	version int
	words   func(o Options) []uint64
	off     func(o Options) bool
}

// stageKeys is the one declaration of which inputs shape a result. The
// stage cache keys (RunDigested), the feature shard keys (FeatureStore) and
// ResultDigest are all built from it, so no other package keeps a list of
// result-shaping options. Every field of Options must either appear here or
// be declared to have no effect (the optionFlips table in cache_test.go).
var stageKeys = map[string]stageKey{
	// components, summary, reciprocity and histograms have no shaping
	// option: the graph, every profile count and TotalVerified are in the
	// dataset digest.
	StageComponents:  {version: 1},
	StageSummary:     {version: 1},
	StageReciprocity: {version: 1},
	StageHistograms:  {version: 1},
	// basic and mutualcore are pure functions of the graph (Seed
	// deliberately stays out), so one entry serves every run over the
	// same dataset.
	StageBasic:      {version: 1},
	StageMutualCore: {version: 1},
	// degree and eigen are at v2: the PR 4 power-law kernel changed the
	// fit's numerics (suffix-sum tail statistics, ladder-evaluated zeta,
	// warm-started Brent) and the bootstrap's denominator accounting
	// (dropped replicates are excluded), plus Fit grew derived unexported
	// state — v1 entries carry pre-kernel values and must not be served.
	StageDegree: {version: 2, words: func(o Options) []uint64 {
		return []uint64{o.Seed, uint64(o.BootstrapReps), boolWord(o.SkipBootstrap)}
	}},
	// eigen is at v3: partial reorthogonalization in the Lanczos solver
	// moves the eigenvalues (by ~1e-14 relative where converged), so v2
	// entries hold another solver's bits.
	StageEigen: {version: 3, words: func(o Options) []uint64 {
		// 3·EigenK is the Krylov dimension, kept where a settable step
		// count used to be so existing keys stay valid.
		return []uint64{o.Seed, uint64(o.EigenK), uint64(3 * o.EigenK),
			uint64(o.BootstrapReps), boolWord(o.SkipBootstrap)}
	}, off: func(o Options) bool { return o.SkipEigen }},
	StageDistances: {version: 1, words: func(o Options) []uint64 { return []uint64{o.Seed, uint64(o.DistanceSources)} }},
	// bios, categories and activity have no shaping option: categories
	// reads unseeded PageRanks and activity reads only the series, both
	// covered by the dataset digest. bios keeps the table length as its
	// word, where a settable one used to be. bios is at v2: the word cloud
	// is derived from the unigrams when rendered, so v1 entries carry a
	// cloud section v2 does not read.
	StageBios:       {version: 2, words: func(Options) []uint64 { return []uint64{topNGrams} }},
	StageCategories: {version: 1},
	StageActivity:   {version: 1},
	StageCentrality: {version: 1, words: func(o Options) []uint64 {
		return []uint64{o.Seed, uint64(o.BetweennessSources), boolWord(o.SkipBetweenness)}
	}},
	// The matrix is what featureOptions hands the features package, so
	// its words are read from that mapping; they also key every row shard.
	StageFeatures: {version: features.ManifestCodecVersion, words: func(o Options) []uint64 {
		f := featureOptions(o)
		return []uint64{f.Seed, uint64(f.BetweennessSources)}
	}, off: func(o Options) bool {
		return !o.Features && !slices.Contains(o.Stages, StageFeatures)
	}},
}

// runs reports whether the options put stage in the battery.
func (o Options) runs(stage string) bool {
	off := stageKeys[stage].off
	return off == nil || !off(o)
}

// stageDigest is the options half of stage's cache key. o must have its
// defaults applied.
func (o Options) stageDigest(stage string) uint64 {
	var words []uint64
	if f := stageKeys[stage].words; f != nil {
		words = f(o)
	}
	return cache.HashWords(words...)
}

// ResultDigest is the options half of a response's identity. For each
// stage the options put in the battery, in canonical order, it folds the
// stage's name, codec version and cache-key digest from stageKeys. It
// applies the defaults first, so the zero Options and the defaults spelled
// out share one digest. Stages is left out: a caller that restricts the
// stages names the subset in its own key. Fields that cannot change a
// result (Parallelism, Timings, the cache and observer settings,
// StageRetries, Faults) never enter it.
func ResultDigest(o Options) uint64 {
	o = o.withDefaults()
	o.Stages = nil
	h := cache.NewHasher()
	for _, name := range StageNames() {
		if !o.runs(name) {
			continue
		}
		h.String(name)
		h.Word(uint64(stageKeys[name].version))
		h.Word(o.stageDigest(name))
	}
	return h.Sum()
}

// featureOptions is the one mapping from core options to the feature
// matrix's.
func featureOptions(o Options) features.Options {
	o = o.withDefaults()
	return features.Options{BetweennessSources: o.BetweennessSources, Seed: o.Seed, Parallelism: o.Parallelism}
}

// FeatureStore is the feature row-shard store for a dataset digest under
// options o: the shards a run with o writes are the ones it reads.
func FeatureStore(c *cache.Cache, dataset uint64, o Options) features.Store {
	return features.Store{Cache: c, Dataset: dataset, Options: o.withDefaults().stageDigest(StageFeatures)}
}

// boolWord folds a flag into an options digest.
func boolWord(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// makeLen returns what a cache.Decoder.Len result describes: nil, or an
// empty slice with room for n elements.
func makeLen[T any](n int, isNil bool) []T {
	if isNil {
		return nil
	}
	return make([]T, 0, n)
}

// --- distances ---------------------------------------------------------------

func encodeDistancesTo(e *cache.Encoder, dd *graph.DistanceDistribution) {
	e.Bool(dd != nil)
	if dd == nil {
		return
	}
	e.Float64s(dd.Counts)
	e.Float64(dd.Pairs)
	e.Int(dd.Sources)
	e.Bool(dd.Sampled)
}

func decodeDistancesFrom(d *cache.Decoder) (*graph.DistanceDistribution, error) {
	if !d.Bool() {
		return nil, d.Err()
	}
	dd := &graph.DistanceDistribution{
		Counts:  d.Float64s(),
		Pairs:   d.Float64(),
		Sources: d.Int(),
		Sampled: d.Bool(),
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	return dd, nil
}

// --- power-law analyses (degree, eigen) --------------------------------------

func encodePowerLawTo(e *cache.Encoder, pa *PowerLawAnalysis) {
	e.Bool(pa != nil)
	if pa == nil {
		return
	}
	pa.Fit.EncodeTo(e)
	e.Float64(pa.GoFP)
	e.Uvarint(uint64(len(pa.Vuong)))
	for _, v := range pa.Vuong {
		v.EncodeTo(e)
	}
}

func decodePowerLawFrom(d *cache.Decoder) (*PowerLawAnalysis, error) {
	if !d.Bool() {
		return nil, d.Err()
	}
	fit, err := powerlaw.DecodeFitFrom(d)
	if err != nil {
		return nil, err
	}
	pa := &PowerLawAnalysis{Fit: fit, GoFP: d.Float64()}
	n := d.Uvarint()
	if d.Err() != nil {
		return nil, d.Err()
	}
	if n > 16 { // far above the three fixed alternatives; reject corruption
		return nil, cache.ErrCorrupt
	}
	for i := uint64(0); i < n; i++ {
		v, err := powerlaw.DecodeVuongFrom(d)
		if err != nil {
			return nil, err
		}
		pa.Vuong = append(pa.Vuong, v)
	}
	return pa, nil
}

// encodeDegreeTo covers everything the degree stage writes: the Figure 2
// frequency series and the §IV-B analysis.
func encodeDegreeTo(e *cache.Encoder, series []stats.CCDFPoint, pa *PowerLawAnalysis) {
	e.Uvarint(uint64(len(series)))
	for _, p := range series {
		e.Float64(p.X)
		e.Float64(p.P)
	}
	encodePowerLawTo(e, pa)
}

func decodeDegreeFrom(d *cache.Decoder) ([]stats.CCDFPoint, *PowerLawAnalysis, error) {
	n := d.Uvarint()
	if d.Err() != nil {
		return nil, nil, d.Err()
	}
	var series []stats.CCDFPoint
	for i := uint64(0); i < n; i++ {
		p := stats.CCDFPoint{X: d.Float64(), P: d.Float64()}
		if d.Err() != nil {
			return nil, nil, d.Err()
		}
		series = append(series, p)
	}
	pa, err := decodePowerLawFrom(d)
	if err != nil {
		return nil, nil, err
	}
	return series, pa, nil
}

// --- centrality --------------------------------------------------------------

func encodeCentralityTo(e *cache.Encoder, pairs []CentralityPair) {
	e.Uvarint(uint64(len(pairs)))
	for i := range pairs {
		p := &pairs[i]
		e.String(p.Label)
		e.Float64(p.Pearson)
		e.Float64(p.Spearman)
		e.Float64(p.PValue)
		e.Int(p.N)
		e.Uvarint(uint64(len(p.Curve)))
		for _, cp := range p.Curve {
			e.Float64(cp.X)
			e.Float64(cp.Y)
			e.Float64(cp.Lo)
			e.Float64(cp.Hi)
		}
	}
}

func decodeCentralityFrom(d *cache.Decoder) ([]CentralityPair, error) {
	n := d.Uvarint()
	if d.Err() != nil {
		return nil, d.Err()
	}
	if n > 64 { // six panels today; reject implausible counts as corruption
		return nil, cache.ErrCorrupt
	}
	var pairs []CentralityPair
	for i := uint64(0); i < n; i++ {
		p := CentralityPair{
			Label:    d.String(),
			Pearson:  d.Float64(),
			Spearman: d.Float64(),
			PValue:   d.Float64(),
			N:        d.Int(),
		}
		m := d.Uvarint()
		if d.Err() != nil {
			return nil, d.Err()
		}
		for j := uint64(0); j < m; j++ {
			p.Curve = append(p.Curve, stats.CurvePoint{
				X: d.Float64(), Y: d.Float64(), Lo: d.Float64(), Hi: d.Float64(),
			})
			if d.Err() != nil {
				return nil, d.Err()
			}
		}
		pairs = append(pairs, p)
	}
	return pairs, nil
}

// --- components, summary (§III) ----------------------------------------------

func encodeComponentsTo(e *cache.Encoder, c componentCounts) {
	e.Int(c.NumSCCs)
	e.Int(c.GiantSCCSize)
	e.Int(c.NumWCCs)
}

func decodeComponentsFrom(d *cache.Decoder) (componentCounts, error) {
	c := componentCounts{NumSCCs: d.Int(), GiantSCCSize: d.Int(), NumWCCs: d.Int()}
	return c, d.Err()
}

func encodeSummaryTo(e *cache.Encoder, s *DatasetSummary) {
	e.Int(s.Nodes)
	e.Varint(s.Edges)
	e.Float64(s.Density)
	e.Int(s.Isolated)
	e.Float64(s.AvgOutDegree)
	e.Int(s.MaxOutDegree)
	e.Int(s.MaxOutNode)
	e.Int(s.GiantSCCSize)
	e.Float64(s.GiantSCCShare)
	e.Int(s.NumSCCs)
	e.Int(s.NumWCCs)
	e.Int(s.TotalVerified)
}

func decodeSummaryFrom(d *cache.Decoder) (*DatasetSummary, error) {
	s := &DatasetSummary{
		Nodes:         d.Int(),
		Edges:         d.Varint(),
		Density:       d.Float64(),
		Isolated:      d.Int(),
		AvgOutDegree:  d.Float64(),
		MaxOutDegree:  d.Int(),
		MaxOutNode:    d.Int(),
		GiantSCCSize:  d.Int(),
		GiantSCCShare: d.Float64(),
		NumSCCs:       d.Int(),
		NumWCCs:       d.Int(),
		TotalVerified: d.Int(),
	}
	return s, d.Err()
}

// --- histograms (Figure 1) ---------------------------------------------------

// encodeHistogramsTo writes the four metric histograms in histogramMetrics
// order; the map keys are implied by that order.
func encodeHistogramsTo(e *cache.Encoder, hists map[string]*stats.Histogram) {
	for _, m := range histogramMetrics {
		h := hists[m.String()]
		e.Float64s(h.Edges)
		e.Len(len(h.Counts), h.Counts == nil)
		for _, c := range h.Counts {
			e.Int(c)
		}
	}
}

func decodeHistogramsFrom(d *cache.Decoder) (map[string]*stats.Histogram, error) {
	hists := make(map[string]*stats.Histogram, len(histogramMetrics))
	for _, m := range histogramMetrics {
		h := &stats.Histogram{Edges: d.Float64s()}
		n, isNil := d.Len(1)
		// A histogram has one more edge than bins; anything else would
		// index past Edges when rendered.
		if d.Err() != nil || len(h.Edges) != n+1 {
			return nil, cache.ErrCorrupt
		}
		h.Counts = makeLen[int](n, isNil)
		for i := 0; i < n; i++ {
			h.Counts = append(h.Counts, d.Int())
		}
		hists[m.String()] = h
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	return hists, nil
}

// --- basic (§IV-A) -----------------------------------------------------------

func encodeBasicTo(e *cache.Encoder, b *BasicAnalysis) {
	e.Float64(b.Clustering)
	e.Float64(b.Assortativity)
	e.Int(b.AttractingComponents)
	e.Uvarint(uint64(len(b.AttractingCores)))
	for _, v := range b.AttractingCores {
		e.Int(v)
	}
}

func decodeBasicFrom(d *cache.Decoder) (*BasicAnalysis, error) {
	b := &BasicAnalysis{
		Clustering:           d.Float64(),
		Assortativity:        d.Float64(),
		AttractingComponents: d.Int(),
	}
	n := d.Uvarint()
	if d.Err() != nil {
		return b, d.Err()
	}
	if n > 10 { // the stage keeps at most 10 representative cores
		return b, cache.ErrCorrupt
	}
	for i := uint64(0); i < n; i++ {
		b.AttractingCores = append(b.AttractingCores, d.Int())
	}
	return b, d.Err()
}

// --- mutual core (§IV-C conjecture) ------------------------------------------

func encodeMutualCoreTo(e *cache.Encoder, m *MutualCoreAnalysis) {
	e.Bool(m != nil)
	if m == nil {
		return
	}
	e.Int(m.CoreK)
	e.Int(m.Degeneracy)
	e.Int(m.CoreNodes)
	e.Float64(m.CoreReciprocity)
	e.Float64(m.PeripheryReciprocity)
	e.Float64(m.MutualEdgeShare)
	e.Uvarint(uint64(len(m.RichClub)))
	for _, p := range m.RichClub {
		e.Int(p.K)
		e.Int(p.N)
		e.Float64(p.Phi)
		e.Float64(p.PhiNorm)
	}
}

func decodeMutualCoreFrom(d *cache.Decoder) (*MutualCoreAnalysis, error) {
	if !d.Bool() {
		return nil, d.Err()
	}
	m := &MutualCoreAnalysis{
		CoreK:                d.Int(),
		Degeneracy:           d.Int(),
		CoreNodes:            d.Int(),
		CoreReciprocity:      d.Float64(),
		PeripheryReciprocity: d.Float64(),
		MutualEdgeShare:      d.Float64(),
	}
	n := d.Uvarint()
	if d.Err() != nil {
		return nil, d.Err()
	}
	if n > 1024 { // the curve has ~10 log-spaced points; reject corruption
		return nil, cache.ErrCorrupt
	}
	for i := uint64(0); i < n; i++ {
		m.RichClub = append(m.RichClub, graph.RichClubPoint{
			K: d.Int(), N: d.Int(), Phi: d.Float64(), PhiNorm: d.Float64(),
		})
		if d.Err() != nil {
			return nil, d.Err()
		}
	}
	return m, nil
}

// --- bios (§IV-E) ------------------------------------------------------------

func encodeNGramsTo(e *cache.Encoder, grams []text.NGram) {
	e.Len(len(grams), grams == nil)
	for _, g := range grams {
		e.Len(len(g.Tokens), g.Tokens == nil)
		for _, tok := range g.Tokens {
			e.String(tok)
		}
		e.Int(g.Count)
	}
}

func decodeNGramsFrom(d *cache.Decoder) []text.NGram {
	n, isNil := d.Len(2) // token-list length + count
	grams := makeLen[text.NGram](n, isNil)
	for i := 0; i < n; i++ {
		m, tokNil := d.Len(1)
		toks := makeLen[string](m, tokNil)
		for j := 0; j < m; j++ {
			toks = append(toks, d.String())
		}
		grams = append(grams, text.NGram{Tokens: toks, Count: d.Int()})
	}
	return grams
}

func encodeBiosTo(e *cache.Encoder, b *BioAnalysis) {
	e.Bool(b != nil)
	if b == nil {
		return
	}
	encodeNGramsTo(e, b.TopUnigrams)
	encodeNGramsTo(e, b.TopBigrams)
	encodeNGramsTo(e, b.TopTrigrams)
}

func decodeBiosFrom(d *cache.Decoder) (*BioAnalysis, error) {
	if !d.Bool() {
		return nil, d.Err()
	}
	b := &BioAnalysis{
		TopUnigrams: decodeNGramsFrom(d),
		TopBigrams:  decodeNGramsFrom(d),
		TopTrigrams: decodeNGramsFrom(d),
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	return b, nil
}

// --- categories (user categorization) ----------------------------------------

func encodeCategoriesTo(e *cache.Encoder, ca *CategoryAnalysis) {
	e.Bool(ca != nil)
	if ca == nil {
		return
	}
	e.Len(len(ca.Stats), ca.Stats == nil)
	for i := range ca.Stats {
		s := &ca.Stats[i]
		e.Uvarint(uint64(s.Category))
		e.Int(s.Count)
		e.Float64(s.Share)
		e.Float64(s.MeanFollowers)
		e.Float64(s.MeanListed)
		e.Float64(s.PageRankShare)
		e.Float64(s.Affinity)
		e.Len(len(s.DistinctiveTerms), s.DistinctiveTerms == nil)
		for _, t := range s.DistinctiveTerms {
			e.String(t.Term)
			e.Float64(t.Score)
			e.Int(t.Count)
		}
	}
}

func decodeCategoriesFrom(d *cache.Decoder) (*CategoryAnalysis, error) {
	if !d.Bool() {
		return nil, d.Err()
	}
	n, isNil := d.Len(43) // category + count + five floats + term-list length
	ca := &CategoryAnalysis{Stats: makeLen[CategoryStat](n, isNil)}
	for i := 0; i < n; i++ {
		cat := d.Uvarint()
		if cat > math.MaxUint8 {
			return nil, cache.ErrCorrupt
		}
		s := CategoryStat{
			Category:      twitter.Category(cat),
			Count:         d.Int(),
			Share:         d.Float64(),
			MeanFollowers: d.Float64(),
			MeanListed:    d.Float64(),
			PageRankShare: d.Float64(),
			Affinity:      d.Float64(),
		}
		m, termsNil := d.Len(10) // term + score + count
		s.DistinctiveTerms = makeLen[text.DistinctiveTerm](m, termsNil)
		for j := 0; j < m; j++ {
			s.DistinctiveTerms = append(s.DistinctiveTerms,
				text.DistinctiveTerm{Term: d.String(), Score: d.Float64(), Count: d.Int()})
		}
		ca.Stats = append(ca.Stats, s)
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	return ca, nil
}

// --- activity (§V) -----------------------------------------------------------

// encodeActivityTo covers every ActivityAnalysis field except Series, which
// is the run's own input: decodeActivityFrom re-attaches it.
func encodeActivityTo(e *cache.Encoder, a *ActivityAnalysis) {
	e.Bool(a != nil)
	if a == nil {
		return
	}
	e.Float64(a.LjungBoxMaxP)
	e.Float64(a.BoxPierceMaxP)
	e.Bool(a.ADF != nil)
	if r := a.ADF; r != nil {
		e.Float64(r.Statistic)
		e.Int(r.Lags)
		e.Int(r.NObs)
		e.Float64(r.Crit1)
		e.Float64(r.Crit5)
		e.Float64(r.Crit10)
		e.Float64(r.PValue)
		e.Int(int(r.Regression))
	}
	e.Len(len(a.Changepoints), a.Changepoints == nil)
	for _, c := range a.Changepoints {
		e.Int(c.Index)
		e.Float64(c.Stability)
	}
	for _, m := range a.WeekdayMeans {
		e.Float64(m)
	}
	e.Float64(a.SundayWeekday)
	e.Int(a.PortmanteauLag)
}

func decodeActivityFrom(d *cache.Decoder, series *timeseries.DailySeries) (*ActivityAnalysis, error) {
	if !d.Bool() {
		return nil, d.Err()
	}
	a := &ActivityAnalysis{
		Series:        series,
		LjungBoxMaxP:  d.Float64(),
		BoxPierceMaxP: d.Float64(),
	}
	if d.Bool() {
		a.ADF = &timeseries.ADFResult{
			Statistic:  d.Float64(),
			Lags:       d.Int(),
			NObs:       d.Int(),
			Crit1:      d.Float64(),
			Crit5:      d.Float64(),
			Crit10:     d.Float64(),
			PValue:     d.Float64(),
			Regression: timeseries.Regression(d.Int()),
		}
	}
	n, isNil := d.Len(9) // index + stability
	a.Changepoints = makeLen[timeseries.SweepCandidate](n, isNil)
	for i := 0; i < n; i++ {
		a.Changepoints = append(a.Changepoints, timeseries.SweepCandidate{Index: d.Int(), Stability: d.Float64()})
	}
	for i := range a.WeekdayMeans {
		a.WeekdayMeans[i] = d.Float64()
	}
	a.SundayWeekday = d.Float64()
	a.PortmanteauLag = d.Int()
	if err := d.Err(); err != nil {
		return nil, err
	}
	return a, nil
}
