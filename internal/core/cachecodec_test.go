package core

import (
	"bytes"
	"math"
	"reflect"
	"runtime"
	"testing"
	"time"

	"elites/internal/cache"
	"elites/internal/stats"
	"elites/internal/text"
	"elites/internal/timeseries"
	"elites/internal/twitter"
)

// stageCodec drives one hydrated stage's codec the way withCache does:
// encode into one payload; decode, then let Finish flag trailing bytes.
type stageCodec struct {
	name string
	enc  func(e *cache.Encoder, v any)
	dec  func(d *cache.Decoder) (any, error)
}

// codecSeries is what the activity decoder re-attaches.
var codecSeries = &timeseries.DailySeries{
	Start:  time.Date(2018, 7, 1, 0, 0, 0, 0, time.UTC),
	Values: []float64{3, 1, 4, 1, 5, 9, 2, 6},
}

// hydratedCodecs is indexed by codecCase.codec and by the fuzz corpus, so
// new codecs are appended.
var hydratedCodecs = []stageCodec{
	{StageBios,
		func(e *cache.Encoder, v any) { encodeBiosTo(e, v.(*BioAnalysis)) },
		func(d *cache.Decoder) (any, error) { return decodeBiosFrom(d) }},
	{StageCategories,
		func(e *cache.Encoder, v any) { encodeCategoriesTo(e, v.(*CategoryAnalysis)) },
		func(d *cache.Decoder) (any, error) { return decodeCategoriesFrom(d) }},
	{StageActivity,
		func(e *cache.Encoder, v any) { encodeActivityTo(e, v.(*ActivityAnalysis)) },
		func(d *cache.Decoder) (any, error) { return decodeActivityFrom(d, codecSeries) }},
	{StageComponents,
		func(e *cache.Encoder, v any) { encodeComponentsTo(e, v.(componentCounts)) },
		func(d *cache.Decoder) (any, error) { return decodeComponentsFrom(d) }},
	{StageSummary,
		func(e *cache.Encoder, v any) { encodeSummaryTo(e, v.(*DatasetSummary)) },
		func(d *cache.Decoder) (any, error) { return decodeSummaryFrom(d) }},
	// reciprocity's codec is one float, written inline by the stage.
	{StageReciprocity,
		func(e *cache.Encoder, v any) { e.Float64(v.(float64)) },
		func(d *cache.Decoder) (any, error) { r := d.Float64(); return r, d.Err() }},
	{StageHistograms,
		func(e *cache.Encoder, v any) { encodeHistogramsTo(e, v.(map[string]*stats.Histogram)) },
		func(d *cache.Decoder) (any, error) { return decodeHistogramsFrom(d) }},
}

func (c stageCodec) encode(v any) []byte {
	var e cache.Encoder
	c.enc(&e, v)
	return e.Bytes()
}

func (c stageCodec) decode(data []byte) (any, error) {
	d := cache.NewDecoder(data)
	v, err := c.dec(d)
	if err != nil {
		return nil, err
	}
	if err := d.Finish(); err != nil {
		return nil, err
	}
	return v, nil
}

type codecCase struct {
	codec int // index into hydratedCodecs
	name  string
	value any
	// want is the expected decode when it differs from value (activity's
	// Series is re-attached, not stored).
	want any
	// nan marks values holding NaN, which reflect.DeepEqual never equates;
	// those are checked bit-exactly through their re-encoding only.
	nan bool
}

func codecCases() []codecCase {
	grams := []text.NGram{
		{Tokens: []string{"official", "twitter"}, Count: 412},
		{Tokens: []string{""}, Count: 1},
		{Tokens: []string{}, Count: 0},
		{Tokens: nil, Count: 7},
	}
	catStats := []CategoryStat{
		{Category: twitter.CatJournalist, Count: 90, Share: 0.45, MeanFollowers: 1e5,
			MeanListed: 812.5, PageRankShare: 0.31, Affinity: 0.62,
			DistinctiveTerms: []text.DistinctiveTerm{{Term: "news", Score: 2.5, Count: 40}, {Term: "", Score: -1, Count: 0}}},
		{Category: twitter.CatAthlete, Count: 10, Share: 0.05, MeanFollowers: math.Inf(1),
			DistinctiveTerms: []text.DistinctiveTerm{}},
		{Category: twitter.Category(math.MaxUint8), Count: -3, DistinctiveTerms: nil},
	}
	adf := &timeseries.ADFResult{Statistic: -3.7, Lags: 14, NObs: 350, Crit1: -3.98,
		Crit5: -3.42, Crit10: -3.13, PValue: 0.021, Regression: timeseries.RegConstantTrend}
	full := &ActivityAnalysis{Series: codecSeries, LjungBoxMaxP: 1e-12, BoxPierceMaxP: 2e-11,
		ADF: adf, Changepoints: []timeseries.SweepCandidate{{Index: 3, Stability: 1}, {Index: -1, Stability: 0.25}},
		WeekdayMeans: [7]float64{1, 2, 3, 4, 5, 6, 7}, SundayWeekday: 0.2, PortmanteauLag: 185}
	// Encoded without a series, decoded with the run's own.
	detached := *full
	detached.Series = nil
	nanAct := *full
	nanAct.LjungBoxMaxP = math.NaN()
	nanAct.ADF = &timeseries.ADFResult{PValue: math.NaN()}
	summary := DatasetSummary{Nodes: 231235, Edges: 79213811, Density: 0.0015, Isolated: 12,
		AvgOutDegree: 342.6, MaxOutDegree: 99816, MaxOutNode: 4, GiantSCCSize: 225019,
		GiantSCCShare: 0.973, NumSCCs: 6197, NumWCCs: 6251, TotalVerified: 297776}
	nanSummary := summary
	nanSummary.Density = math.NaN()
	// Four metrics, each histogram shaped differently: the stage's own log
	// bins, the empty-input fallback, and nil versus empty bin counts.
	hists := func(a, b, c, d *stats.Histogram) map[string]*stats.Histogram {
		return map[string]*stats.Histogram{
			twitter.MetricFriends.String(): a, twitter.MetricFollowers.String(): b,
			twitter.MetricListed.String(): c, twitter.MetricStatuses.String(): d,
		}
	}
	logBins := stats.NewLogHistogram([]float64{1, 3, 9, 27, 81, 243, 0, -2}, 5)
	fallback := stats.NewLogHistogram(nil, 30)
	return []codecCase{
		{codec: 0, name: "nil", value: (*BioAnalysis)(nil)},
		{codec: 0, name: "nil sections", value: &BioAnalysis{}},
		{codec: 0, name: "empty sections", value: &BioAnalysis{
			TopUnigrams: []text.NGram{}, TopBigrams: []text.NGram{},
			TopTrigrams: []text.NGram{}}},
		{codec: 0, name: "full", value: &BioAnalysis{
			TopUnigrams: grams[:1], TopBigrams: grams, TopTrigrams: nil}},
		{codec: 0, name: "extreme counts", value: &BioAnalysis{TopUnigrams: []text.NGram{
			{Tokens: []string{"x"}, Count: math.MaxInt64}, {Tokens: []string{"y"}, Count: math.MinInt64}}}},
		{codec: 1, name: "failed (nil)", value: (*CategoryAnalysis)(nil)},
		{codec: 1, name: "nil stats", value: &CategoryAnalysis{}},
		{codec: 1, name: "empty stats", value: &CategoryAnalysis{Stats: []CategoryStat{}}},
		{codec: 1, name: "full", value: &CategoryAnalysis{Stats: catStats}},
		{codec: 1, name: "nan share", value: &CategoryAnalysis{
			Stats: []CategoryStat{{Share: math.NaN()}}}, nan: true},
		{codec: 2, name: "nil", value: (*ActivityAnalysis)(nil)},
		{codec: 2, name: "bare", value: &ActivityAnalysis{Series: codecSeries}},
		{codec: 2, name: "empty changepoints", value: &ActivityAnalysis{
			Series: codecSeries, Changepoints: []timeseries.SweepCandidate{}}},
		{codec: 2, name: "full", value: full},
		{codec: 2, name: "series re-attached", value: &detached, want: full},
		{codec: 2, name: "nan p-values", value: &nanAct, nan: true},
		{codec: 3, name: "zero", value: componentCounts{}},
		{codec: 3, name: "full", value: componentCounts{NumSCCs: 6197, GiantSCCSize: 225019, NumWCCs: 6251}},
		{codec: 3, name: "negative", value: componentCounts{NumSCCs: -1, GiantSCCSize: math.MinInt64, NumWCCs: math.MaxInt64}},
		{codec: 4, name: "zero", value: &DatasetSummary{}},
		{codec: 4, name: "full", value: &summary},
		{codec: 4, name: "nan density", value: &nanSummary, nan: true},
		{codec: 5, name: "zero", value: 0.0},
		{codec: 5, name: "rate", value: 0.3318},
		{codec: 5, name: "-inf", value: math.Inf(-1)},
		{codec: 5, name: "nan", value: math.NaN(), nan: true},
		{codec: 6, name: "stage bins", value: hists(logBins, fallback, logBins, fallback)},
		{codec: 6, name: "nil and empty counts", value: hists(
			&stats.Histogram{Edges: []float64{1}},
			&stats.Histogram{Edges: []float64{1}, Counts: []int{}},
			&stats.Histogram{Edges: []float64{-1, 0, math.Inf(1)}, Counts: []int{-5, math.MaxInt64}},
			logBins)},
		{codec: 6, name: "nan edge", value: hists(logBins, logBins, logBins,
			&stats.Histogram{Edges: []float64{math.NaN(), 2}, Counts: []int{1}}), nan: true},
	}
}

// TestHydratedStageCodecsRoundTrip checks every case decodes to its value
// (nil versus empty lists included, so hydrated JSON views match fresh
// ones) and that re-encoding the decode reproduces the payload bit for bit.
func TestHydratedStageCodecsRoundTrip(t *testing.T) {
	for _, tc := range codecCases() {
		c := hydratedCodecs[tc.codec]
		t.Run(c.name+"/"+tc.name, func(t *testing.T) {
			payload := c.encode(tc.value)
			got, err := c.decode(payload)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if re := c.encode(got); !bytes.Equal(re, payload) {
				t.Fatalf("re-encoding differs:\n got %x\nwant %x", re, payload)
			}
			if tc.nan {
				return
			}
			want := tc.value
			if tc.want != nil {
				want = tc.want
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("round trip:\n got %#v\nwant %#v", got, want)
			}
		})
	}
}

// TestHydratedStageCodecsRejectTruncation checks every strict prefix of a
// payload, and the payload with one trailing byte, fail to decode: the
// scheduler then treats the entry as a miss and recomputes.
func TestHydratedStageCodecsRejectTruncation(t *testing.T) {
	for _, tc := range codecCases() {
		c := hydratedCodecs[tc.codec]
		payload := c.encode(tc.value)
		for n := 0; n < len(payload); n++ {
			if _, err := c.decode(payload[:n]); err == nil {
				t.Fatalf("%s/%s: %d-byte prefix of %d decoded", c.name, tc.name, n, len(payload))
			}
		}
		if _, err := c.decode(append(append([]byte{}, payload...), 0)); err == nil {
			t.Fatalf("%s/%s: trailing byte accepted", c.name, tc.name)
		}
	}
}

// TestHydratedStageCodecsLengthGuards claims 2^40 elements at every length
// prefix the decoders read. Each must fail without allocating for the
// claim: the guard compares a length with the bytes left before any make.
// A histogram whose bin count disagrees with its edges must fail too, as
// rendering it would index past the edges.
func TestHydratedStageCodecsLengthGuards(t *testing.T) {
	const huge = 1 << 40
	type guardCase struct {
		codec int
		data  []byte
	}
	raw := func(c int, build func(e *cache.Encoder)) guardCase {
		var e cache.Encoder
		build(&e)
		return guardCase{c, e.Bytes()}
	}
	payload := func(c int, build func(e *cache.Encoder)) guardCase { // behind a present flag
		return raw(c, func(e *cache.Encoder) { e.Bool(true); build(e) })
	}
	zeros := func(e *cache.Encoder, floats int) {
		for i := 0; i < floats; i++ {
			e.Float64(0)
		}
	}
	cases := []guardCase{
		payload(0, func(e *cache.Encoder) { e.Uvarint(huge) }),                  // unigram count
		payload(0, func(e *cache.Encoder) { e.Len(1, false); e.Uvarint(huge) }), // token count
		payload(0, func(e *cache.Encoder) { // cloud size
			for i := 0; i < 3; i++ {
				e.Len(0, true)
			}
			e.Uvarint(huge)
		}),
		payload(1, func(e *cache.Encoder) { e.Uvarint(huge) }), // stat count
		payload(1, func(e *cache.Encoder) { // term count
			e.Len(1, false)
			e.Uvarint(0)
			e.Int(0)
			zeros(e, 5)
			e.Uvarint(huge)
		}),
		payload(2, func(e *cache.Encoder) { zeros(e, 2); e.Bool(false); e.Uvarint(huge) }), // changepoints
		raw(6, func(e *cache.Encoder) { e.Uvarint(huge) }),                                 // edge count
		raw(6, func(e *cache.Encoder) { e.Float64s([]float64{1, 10}); e.Uvarint(huge) }),   // bin count
		raw(6, func(e *cache.Encoder) { // well-formed, but three bins between two edges
			for i := 0; i < len(histogramMetrics); i++ {
				e.Float64s([]float64{1, 10})
				e.Len(3, false)
				e.Int(1)
				e.Int(2)
				e.Int(3)
			}
		}),
	}
	for i, tc := range cases {
		c, data := hydratedCodecs[tc.codec], tc.data
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := c.decode(data)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("case %d (%s): a 2^40 length decoded", i, c.name)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 64<<10 {
			t.Fatalf("case %d (%s): %d bytes allocated for a %d-byte payload", i, c.name, got, len(data))
		}
	}
}

// FuzzStageCodecDecode throws arbitrary payloads at every hydratedCodecs
// decoder: bios, categories, activity, components, summary, reciprocity and
// histograms. A payload must decode to an error (a cache miss
// and a recompute) or to a value that re-encodes to a canonical fixed
// point, never panic, and never allocate more than a small multiple of its
// own length: every decoded length is checked against the bytes left.
func FuzzStageCodecDecode(f *testing.F) {
	for _, tc := range codecCases() {
		payload := hydratedCodecs[tc.codec].encode(tc.value)
		f.Add(uint8(tc.codec), payload)
		f.Add(uint8(tc.codec), payload[:len(payload)/2])
	}
	f.Fuzz(func(t *testing.T, which uint8, data []byte) {
		c := hydratedCodecs[int(which)%len(hydratedCodecs)]
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		v, err := c.decode(data)
		runtime.ReadMemStats(&after)
		// The widest element ratio is an n-gram: 2 wire bytes, a 32-byte
		// struct; the constant covers the fixed-size ADF and headers.
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(32*len(data)+64<<10); got > limit {
			t.Fatalf("%s: %d bytes allocated decoding %d bytes", c.name, got, len(data))
		}
		if err != nil {
			return
		}
		re := c.encode(v)
		v2, err := c.decode(re)
		if err != nil {
			t.Fatalf("%s: re-encoded payload does not decode: %v", c.name, err)
		}
		if !bytes.Equal(c.encode(v2), re) {
			t.Fatalf("%s: re-encoding is not a fixed point", c.name)
		}
	})
}
