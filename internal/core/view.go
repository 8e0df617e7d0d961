package core

import (
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/url"
	"slices"
	"strconv"
	"strings"

	"elites/internal/cache"
	"elites/internal/features"
	"elites/internal/graph"
	"elites/internal/pipeline"
	"elites/internal/powerlaw"
	"elites/internal/stats"
	"elites/internal/text"
	"elites/internal/timeseries"
)

// view.go projects a Report into JSON-safe view structs for the serving
// layer (internal/serve). Two properties are load-bearing:
//
//   - Marshalable always: encoding/json rejects NaN and ±Inf, and several
//     report floats are legitimately NaN (GoFP when bootstraps are skipped,
//     degenerate correlations). Every float crosses through JSONFloat,
//     which marshals non-finite values as null.
//   - Deterministic bytes: a view built from a given report marshals to
//     identical bytes every time (Go's encoder sorts map keys, struct
//     fields are ordered), so coalesced and cached responses can be
//     compared byte-for-byte. Timings and cache traffic are deliberately
//     excluded — they vary run to run while the analysis results do not.

// ViewVersion versions the encoded response bodies built from a Report:
// NewReportView, Render, StageView, the user views, the serving layer's
// stage wrapper and its JSON indentation. No stage codec version covers
// these encoders, so a body stored in the result cache is keyed by this
// version too (Body.Entry); bump it with any change to the bytes they
// produce. TestReportGolden records the version its hashes were taken at.
const ViewVersion = 2

// Body is one dataset request whose clean response body is stored in the
// result cache: the request parsed, and the entry its body is kept under.
// eliteserve names the entries it writes with it and eliterouter the
// entries it reads, so both meet on one file per body.
type Body struct {
	// Key is the request class — identity, the run's stage subset and the
	// view — and the coalescer and job key of the request too.
	Key string
	// Entry is the result-cache entry name: the view version and a digest
	// of Key, so a build whose encoders changed never reads an older
	// build's bytes from a shared directory.
	Entry       string
	ContentType string
	Stages      []string // the run's stage subset; nil runs the default battery
	Format      string   // a report's format: json or text
	Stage       string   // a /stages/{stage} body's stage
	Rank        int      // a /users/{rank}/features body's rank
}

// NewBody names the body of the request class (identity, stages, view). A
// "text" view is plain text and every other view JSON.
func NewBody(identity string, stages []string, view string) Body {
	key := identity + "|stages=" + strings.Join(stages, ",") + "|format=" + view
	ctype := "application/json"
	if view == "text" {
		ctype = "text/plain; charset=utf-8"
	}
	return Body{Key: key, Entry: bodyEntry(ViewVersion, key), ContentType: ctype, Stages: stages}
}

// bodyEntry is the entry name of the body under key at a view version.
func bodyEntry(version int, key string) string {
	h := cache.NewHasher()
	h.String(key)
	return fmt.Sprintf("body-v%d-%016x", version, h.Sum())
}

// ReportBody names the body of GET /v1/datasets/{id}/report with query
// keys stages and format. The error is eliteserve's 400 message.
func ReportBody(identity string, query url.Values) (Body, error) {
	stages, err := ParseStages(query.Get("stages"))
	if err != nil {
		return Body{}, err
	}
	format := cmp.Or(query.Get("format"), "json")
	if format != "json" && format != "text" {
		return Body{}, fmt.Errorf("unknown format %q (want json or text)", format)
	}
	b := NewBody(identity, stages, format)
	b.Format = format
	return b, nil
}

// StageBody names the body of GET /v1/datasets/{id}/stages/{stage}.
func StageBody(identity, id, stage string) (Body, error) {
	if !slices.Contains(StageNames(), stage) {
		return Body{}, fmt.Errorf("unknown stage %q (known: %s)", stage, strings.Join(StageNames(), ","))
	}
	// The stage and the dataset id enter the key: the body names both,
	// even when two stages share a run subset or two ids one dataset.
	b := NewBody(identity, ViewStages(stage), "stage:"+stage+"|id="+id)
	b.Stage = stage
	return b, nil
}

// UserFeaturesBody names the body of GET
// /v1/datasets/{id}/users/{rank}/features, rank as the path spells it.
func UserFeaturesBody(identity, rank string) (Body, error) {
	r, err := strconv.Atoi(rank)
	if err != nil || r < 1 {
		return Body{}, fmt.Errorf("rank must be a positive integer, got %q", rank)
	}
	b := NewBody(identity, []string{StageFeatures}, fmt.Sprintf("user-features:%d", r))
	b.Rank = r
	return b, nil
}

// MaxBatchBody bounds a users:batch request body in bytes, and
// maxBatchRanks the ranks one body may name.
const (
	MaxBatchBody  = 1 << 20
	maxBatchRanks = 1024
)

// batchRequest is the users:batch request body.
type batchRequest struct {
	Ranks []int `json:"ranks"`
}

// UsersBatchBody names the body of POST /v1/datasets/{id}/users:batch
// from its request body data, and returns the ranks it asks for in
// request order. data must be one JSON object of at most MaxBatchBody
// bytes with nothing after it, naming 1 to maxBatchRanks ranks. Whether
// each rank lies within the dataset is the caller's to check: the body is
// a function of the ordered rank list, and one with a rank outside the
// dataset is never stored. The error is eliteserve's 400 message.
func UsersBatchBody(identity string, data []byte) (Body, []int, error) {
	if len(data) > MaxBatchBody {
		return Body{}, nil, fmt.Errorf("bad request body: over %d bytes", MaxBatchBody)
	}
	var req batchRequest
	dec := json.NewDecoder(bytes.NewReader(data))
	if err := dec.Decode(&req); err != nil {
		return Body{}, nil, fmt.Errorf("bad request body: %v", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return Body{}, nil, errors.New("bad request body: trailing data after the JSON object")
	}
	if len(req.Ranks) == 0 {
		return Body{}, nil, errors.New("ranks must be a non-empty array")
	}
	if len(req.Ranks) > maxBatchRanks {
		return Body{}, nil, fmt.Errorf("too many ranks (%d > %d)", len(req.Ranks), maxBatchRanks)
	}
	var view strings.Builder
	view.WriteString("users-batch:")
	for i, rank := range req.Ranks {
		if i > 0 {
			view.WriteByte(',')
		}
		view.WriteString(strconv.Itoa(rank))
	}
	return NewBody(identity, []string{StageFeatures}, view.String()), req.Ranks, nil
}

// ParseStages validates and canonicalizes a ?stages= selection: names
// must be known, and the result is deduplicated in canonical order so
// every spelling of one subset shares one run and one body.
func ParseStages(raw string) ([]string, error) {
	if raw == "" {
		return nil, nil
	}
	want := map[string]bool{}
	for _, s := range strings.Split(raw, ",") {
		s = strings.TrimSpace(s)
		if s == "" {
			continue
		}
		if !slices.Contains(StageNames(), s) {
			return nil, fmt.Errorf("unknown stage %q (known: %s)", s, strings.Join(StageNames(), ","))
		}
		want[s] = true
	}
	if len(want) == 0 {
		return nil, nil
	}
	var out []string
	for _, name := range StageNames() {
		if want[name] {
			out = append(out, name)
		}
	}
	return out, nil
}

// JSONFloat is a float64 that marshals NaN and ±Inf as null instead of
// failing the whole encode.
type JSONFloat float64

// MarshalJSON renders finite values as numbers and non-finite ones as null.
func (f JSONFloat) MarshalJSON() ([]byte, error) {
	v := float64(f)
	if v != v || v > maxJSONFloat || v < -maxJSONFloat {
		return []byte("null"), nil
	}
	return strconv.AppendFloat(nil, v, 'g', -1, 64), nil
}

const maxJSONFloat = 1.7976931348623157e308 // math.MaxFloat64, inline to keep the method allocation-free

func jfloats(in []float64) []JSONFloat {
	if in == nil {
		return nil
	}
	out := make([]JSONFloat, len(in))
	for i, v := range in {
		out[i] = JSONFloat(v)
	}
	return out
}

// ReportView is the full JSON projection of a Report. Sections the run did
// not produce (skipped stages, missing profiles or activity) are omitted.
type ReportView struct {
	Summary     *SummaryView             `json:"summary,omitempty"`
	Basic       *BasicView               `json:"basic,omitempty"`
	Degree      *PowerLawView            `json:"degree,omitempty"`
	Eigen       *PowerLawView            `json:"eigen,omitempty"`
	Reciprocity *JSONFloat               `json:"reciprocity,omitempty"`
	Distances   *DistancesView           `json:"distances,omitempty"`
	Bios        *BiosView                `json:"bios,omitempty"`
	Histograms  map[string]HistogramView `json:"histograms,omitempty"`
	Centrality  []CentralityPairView     `json:"centrality,omitempty"`
	Categories  *CategoriesView          `json:"categories,omitempty"`
	MutualCore  *MutualCoreView          `json:"mutual_core,omitempty"`
	Activity    *ActivityView            `json:"activity,omitempty"`
	Features    *FeaturesSummaryView     `json:"features,omitempty"`
	// Degraded marks a partial report: one or more stages failed and their
	// sections are missing. Clean reports omit both fields entirely, so a
	// degraded-then-recovered dataset serves bodies byte-identical to a
	// never-faulted run. The fields sort last in the struct so every clean
	// section keeps its position.
	Degraded    bool             `json:"degraded,omitempty"`
	StageErrors []StageErrorView `json:"stage_errors,omitempty"`
}

// StageErrorView is one failed (or fault-skipped) stage's structured error
// entry in a degraded report.
type StageErrorView struct {
	Stage string `json:"stage"`
	Error string `json:"error"`
	// Panic marks stages whose failure was a contained panic; Stack is the
	// goroutine stack captured at the panic site.
	Panic bool   `json:"panic,omitempty"`
	Stack string `json:"stack,omitempty"`
	// Skipped marks stages that never executed (failed dependency or
	// cancelled run) rather than failed themselves.
	Skipped bool `json:"skipped,omitempty"`
	// Retries counts failed re-run attempts beyond the first.
	Retries int `json:"retries,omitempty"`
}

// SummaryView mirrors the §III dataset table.
type SummaryView struct {
	Nodes         int       `json:"nodes"`
	Edges         int64     `json:"edges"`
	Density       JSONFloat `json:"density"`
	Isolated      int       `json:"isolated"`
	AvgOutDegree  JSONFloat `json:"avg_out_degree"`
	MaxOutDegree  int       `json:"max_out_degree"`
	MaxOutNode    int       `json:"max_out_node"`
	GiantSCCSize  int       `json:"giant_scc_size"`
	GiantSCCShare JSONFloat `json:"giant_scc_share"`
	NumSCCs       int       `json:"num_sccs"`
	NumWCCs       int       `json:"num_wccs"`
	TotalVerified int       `json:"total_verified,omitempty"`
}

// BasicView mirrors §IV-A.
type BasicView struct {
	Clustering           JSONFloat `json:"clustering"`
	Assortativity        JSONFloat `json:"assortativity"`
	AttractingComponents int       `json:"attracting_components"`
	AttractingCores      []int     `json:"attracting_cores,omitempty"`
}

// PowerLawView carries one distribution's §IV-B inference.
type PowerLawView struct {
	Discrete    bool        `json:"discrete"`
	Alpha       JSONFloat   `json:"alpha"`
	AlphaStdErr JSONFloat   `json:"alpha_std_err"`
	Xmin        JSONFloat   `json:"xmin"`
	KS          JSONFloat   `json:"ks"`
	NTail       int         `json:"n_tail"`
	N           int         `json:"n"`
	GoFP        JSONFloat   `json:"gof_p"` // null when bootstraps were skipped
	Vuong       []VuongView `json:"vuong,omitempty"`
}

// VuongView is one likelihood-ratio comparison against an alternative.
type VuongView struct {
	Alternative string    `json:"alternative"`
	LogLikRatio JSONFloat `json:"log_lik_ratio"`
	Statistic   JSONFloat `json:"statistic"`
	PValue      JSONFloat `json:"p_value"`
	Favours     string    `json:"favours"` // "power-law" | "alternative" | "inconclusive"
}

// DistancesView summarizes the Figure 3 distance distribution.
type DistancesView struct {
	Mean              JSONFloat   `json:"mean"`
	Median            JSONFloat   `json:"median"`
	EffectiveDiameter JSONFloat   `json:"effective_diameter"`
	MaxObserved       int         `json:"max_observed"`
	Pairs             JSONFloat   `json:"pairs"`
	Sources           int         `json:"sources"`
	Sampled           bool        `json:"sampled"`
	Counts            []JSONFloat `json:"counts"`
}

// NGramView is one table row of Tables I/II.
type NGramView struct {
	Phrase string `json:"phrase"`
	Count  int    `json:"count"`
}

// BiosView carries the §IV-E n-gram tables.
type BiosView struct {
	TopUnigrams []NGramView `json:"top_unigrams,omitempty"`
	TopBigrams  []NGramView `json:"top_bigrams,omitempty"`
	TopTrigrams []NGramView `json:"top_trigrams,omitempty"`
}

// HistogramView is one Figure 1 panel.
type HistogramView struct {
	Edges  []JSONFloat `json:"edges"`
	Counts []int       `json:"counts"`
}

// CentralityPairView is one Figure 5 panel.
type CentralityPairView struct {
	Label    string           `json:"label"`
	Pearson  JSONFloat        `json:"pearson"`
	Spearman JSONFloat        `json:"spearman"`
	PValue   JSONFloat        `json:"p_value"`
	N        int              `json:"n"`
	Curve    []CurvePointView `json:"curve,omitempty"`
}

// CurvePointView is one GAM spline sample with its ±95% band.
type CurvePointView struct {
	X  JSONFloat `json:"x"`
	Y  JSONFloat `json:"y"`
	Lo JSONFloat `json:"lo"`
	Hi JSONFloat `json:"hi"`
}

// CategoriesView is the per-archetype table.
type CategoriesView struct {
	Stats []CategoryStatView `json:"stats"`
}

// CategoryStatView is one archetype row.
type CategoryStatView struct {
	Category      string    `json:"category"`
	Count         int       `json:"count"`
	Share         JSONFloat `json:"share"`
	MeanFollowers JSONFloat `json:"mean_followers"`
	MeanListed    JSONFloat `json:"mean_listed"`
	PageRankShare JSONFloat `json:"pagerank_share"`
	Affinity      JSONFloat `json:"affinity"`
}

// MutualCoreView is the §IV-C core-reciprocity validation.
type MutualCoreView struct {
	CoreK                int            `json:"core_k"`
	Degeneracy           int            `json:"degeneracy"`
	CoreNodes            int            `json:"core_nodes"`
	CoreReciprocity      JSONFloat      `json:"core_reciprocity"`
	PeripheryReciprocity JSONFloat      `json:"periphery_reciprocity"`
	MutualEdgeShare      JSONFloat      `json:"mutual_edge_share"`
	RichClub             []RichClubView `json:"rich_club,omitempty"`
}

// RichClubView is one normalized rich-club curve point.
type RichClubView struct {
	K       int       `json:"k"`
	N       int       `json:"n"`
	Phi     JSONFloat `json:"phi"`
	PhiNorm JSONFloat `json:"phi_norm"`
}

// ActivityView is the §V verdict set.
type ActivityView struct {
	Days           int               `json:"days"`
	Start          string            `json:"start"` // ISO date
	PortmanteauLag int               `json:"portmanteau_lag"`
	LjungBoxMaxP   JSONFloat         `json:"ljung_box_max_p"`
	BoxPierceMaxP  JSONFloat         `json:"box_pierce_max_p"`
	ADF            *ADFView          `json:"adf,omitempty"`
	SundayWeekday  JSONFloat         `json:"sunday_weekday_ratio"`
	WeekdayMeans   []JSONFloat       `json:"weekday_means"`
	Changepoints   []ChangepointView `json:"changepoints,omitempty"`
}

// ADFView is the Augmented Dickey–Fuller outcome.
type ADFView struct {
	Statistic  JSONFloat `json:"statistic"`
	Lags       int       `json:"lags"`
	Crit5      JSONFloat `json:"crit_5"`
	Stationary bool      `json:"stationary"`
}

// ChangepointView is one PELT sweep candidate.
type ChangepointView struct {
	Index     int       `json:"index"`
	Date      string    `json:"date,omitempty"` // ISO date when the series is known
	Stability JSONFloat `json:"stability"`
}

// FeaturesSummaryView is the feature-matrix stage's report fragment: the
// scalar summary only — per-row payloads are served through the per-user
// endpoints, never inlined into a report body.
type FeaturesSummaryView struct {
	Users        int       `json:"users"`
	Columns      []string  `json:"columns"`
	CoreK        int       `json:"core_k"`
	Degeneracy   int       `json:"degeneracy"`
	TailXmin     JSONFloat `json:"tail_xmin"` // null when no power-law tail fit succeeded
	TailCount    int       `json:"tail_count"`
	EliteCount   int       `json:"elite_count"`
	BotCount     int       `json:"bot_count"`
	RegularCount int       `json:"regular_count"`
}

// FeatureVectorView is one user's named feature vector, in matrix column
// order.
type FeatureVectorView struct {
	OutDegree  JSONFloat `json:"out_degree"`
	InDegree   JSONFloat `json:"in_degree"`
	Ratio      JSONFloat `json:"follower_following_ratio"` // null for 0/0 (NaN) and x/0 (+Inf)
	MutualCore bool      `json:"mutual_core"`
	BetwPct    JSONFloat `json:"betweenness_pct"`
	EigenPct   JSONFloat `json:"eigen_pct"`
	Clustering JSONFloat `json:"clustering"`
	Tail       bool      `json:"power_law_tail"`
}

// UserScoreView is the scorer's verdict for one user.
type UserScoreView struct {
	Class   string    `json:"class"` // "elite" | "bot" | "regular"
	Elite   JSONFloat `json:"elite"`
	Bot     JSONFloat `json:"bot"`
	Regular JSONFloat `json:"regular"`
}

// UserFeaturesView is one user's feature row + score, addressed by
// out-degree rank (rank 1 = most-following account) like the serving
// layer's other per-user responses.
type UserFeaturesView struct {
	Rank     int               `json:"rank"`
	Node     int               `json:"node"`
	Features FeatureVectorView `json:"features"`
	Score    UserScoreView     `json:"score"`
}

// UsersBatchView is the users:batch response body: the requested users in
// request order. It carries no dataset identity, so eliteanalyze -features
// emits byte-identical bodies for the same dataset and ranks.
type UsersBatchView struct {
	Users []UserFeaturesView `json:"users"`
}

// NewReportView projects rep into its JSON view. The projection never
// fails: sections the run did not produce are nil in rep and omitted here.
func NewReportView(rep *Report) *ReportView {
	if rep == nil {
		return &ReportView{}
	}
	v := &ReportView{
		Summary:     summaryView(rep.Summary),
		Basic:       basicView(rep.Basic),
		Degree:      powerLawView(rep.Degree),
		Eigen:       powerLawView(rep.Eigen),
		Reciprocity: (*JSONFloat)(rep.Reciprocity),
		Distances:   distancesView(rep.Distances),
		Bios:        biosView(rep.Bios),
		Categories:  categoriesView(rep.Categories),
		MutualCore:  mutualCoreView(rep.MutualCore),
		Activity:    activityView(rep.Activity),
		Features:    featuresView(rep.Features),
	}
	// A report with failed stages is degraded: surface each failure as a
	// structured entry, with contained panics carrying their stacks.
	for _, tm := range rep.Timings {
		if tm.Err == nil {
			continue
		}
		v.Degraded = true
		sev := StageErrorView{
			Stage: tm.Name, Error: tm.Err.Error(),
			Skipped: tm.Skipped, Retries: tm.Retries,
		}
		var pe *pipeline.StagePanicError
		if errors.As(tm.Err, &pe) {
			sev.Panic = true
			sev.Stack = string(pe.Stack)
		}
		v.StageErrors = append(v.StageErrors, sev)
	}
	if len(rep.MetricHists) > 0 {
		v.Histograms = make(map[string]HistogramView, len(rep.MetricHists))
		for name, h := range rep.MetricHists {
			v.Histograms[name] = histogramView(h)
		}
	}
	for _, p := range rep.Centrality {
		v.Centrality = append(v.Centrality, centralityPairView(p))
	}
	return v
}

// ViewStages returns the pipeline stages a run must include for
// StageView(rep, stage) to be populated. For every stage this is the stage
// itself, except components, whose servable projection is the summary
// table — a run restricted to components alone computes the
// decompositions but never renders them.
func ViewStages(stage string) []string {
	if stage == StageComponents {
		return []string{StageComponents, StageSummary}
	}
	return []string{stage}
}

// StageView returns the JSON fragment a single pipeline stage contributes
// to the report view, or an error for stages with no servable projection.
// The fragment types are the same structs ReportView embeds, so a stage
// response is always a subtree of the full report response.
func StageView(rep *Report, stage string) (any, error) {
	v := NewReportView(rep)
	switch stage {
	case StageComponents, StageSummary:
		return v.Summary, nil
	case StageBasic:
		return v.Basic, nil
	case StageDegree:
		return v.Degree, nil
	case StageEigen:
		return v.Eigen, nil
	case StageReciprocity:
		return v.Reciprocity, nil
	case StageDistances:
		return v.Distances, nil
	case StageBios:
		return v.Bios, nil
	case StageHistograms:
		return v.Histograms, nil
	case StageCentrality:
		return v.Centrality, nil
	case StageCategories:
		return v.Categories, nil
	case StageMutualCore:
		return v.MutualCore, nil
	case StageActivity:
		return v.Activity, nil
	case StageFeatures:
		return v.Features, nil
	}
	return nil, fmt.Errorf("core: no view for stage %q (known: %v)", stage, StageNames())
}

func summaryView(s *DatasetSummary) *SummaryView {
	if s == nil {
		return nil
	}
	return &SummaryView{
		Nodes: s.Nodes, Edges: s.Edges, Density: JSONFloat(s.Density),
		Isolated: s.Isolated, AvgOutDegree: JSONFloat(s.AvgOutDegree),
		MaxOutDegree: s.MaxOutDegree, MaxOutNode: s.MaxOutNode,
		GiantSCCSize: s.GiantSCCSize, GiantSCCShare: JSONFloat(s.GiantSCCShare),
		NumSCCs: s.NumSCCs, NumWCCs: s.NumWCCs, TotalVerified: s.TotalVerified,
	}
}

func basicView(b *BasicAnalysis) *BasicView {
	if b == nil {
		return nil
	}
	return &BasicView{
		Clustering:           JSONFloat(b.Clustering),
		Assortativity:        JSONFloat(b.Assortativity),
		AttractingComponents: b.AttractingComponents,
		AttractingCores:      b.AttractingCores,
	}
}

func powerLawView(pa *PowerLawAnalysis) *PowerLawView {
	if pa == nil {
		return nil
	}
	f := pa.Fit
	v := &PowerLawView{
		Discrete: f.Discrete, Alpha: JSONFloat(f.Alpha),
		AlphaStdErr: JSONFloat(f.AlphaStdErr), Xmin: JSONFloat(f.Xmin),
		KS: JSONFloat(f.KS), NTail: f.NTail, N: f.N, GoFP: JSONFloat(pa.GoFP),
	}
	for _, vr := range pa.Vuong {
		v.Vuong = append(v.Vuong, vuongView(vr))
	}
	return v
}

func vuongView(vr *powerlaw.VuongResult) VuongView {
	verdict := "inconclusive"
	switch vr.Favours() {
	case 1:
		verdict = "power-law"
	case -1:
		verdict = "alternative"
	}
	return VuongView{
		Alternative: vr.Alternative.String(),
		LogLikRatio: JSONFloat(vr.LogLikRatio),
		Statistic:   JSONFloat(vr.Statistic),
		PValue:      JSONFloat(vr.PValue),
		Favours:     verdict,
	}
}

func distancesView(d *graph.DistanceDistribution) *DistancesView {
	if d == nil {
		return nil
	}
	return &DistancesView{
		Mean:              JSONFloat(d.Mean()),
		Median:            JSONFloat(d.Median()),
		EffectiveDiameter: JSONFloat(d.EffectiveDiameter()),
		MaxObserved:       d.MaxObserved(),
		Pairs:             JSONFloat(d.Pairs),
		Sources:           d.Sources,
		Sampled:           d.Sampled,
		Counts:            jfloats(d.Counts),
	}
}

func ngramViews(grams []text.NGram) []NGramView {
	out := make([]NGramView, 0, len(grams))
	for _, g := range grams {
		out = append(out, NGramView{Phrase: g.Phrase(), Count: g.Count})
	}
	return out
}

func biosView(b *BioAnalysis) *BiosView {
	if b == nil {
		return nil
	}
	return &BiosView{
		TopUnigrams: ngramViews(b.TopUnigrams),
		TopBigrams:  ngramViews(b.TopBigrams),
		TopTrigrams: ngramViews(b.TopTrigrams),
	}
}

func histogramView(h *stats.Histogram) HistogramView {
	return HistogramView{Edges: jfloats(h.Edges), Counts: h.Counts}
}

func centralityPairView(p CentralityPair) CentralityPairView {
	v := CentralityPairView{
		Label: p.Label, Pearson: JSONFloat(p.Pearson),
		Spearman: JSONFloat(p.Spearman), PValue: JSONFloat(p.PValue), N: p.N,
	}
	for _, cp := range p.Curve {
		v.Curve = append(v.Curve, CurvePointView{
			X: JSONFloat(cp.X), Y: JSONFloat(cp.Y),
			Lo: JSONFloat(cp.Lo), Hi: JSONFloat(cp.Hi),
		})
	}
	return v
}

func categoriesView(ca *CategoryAnalysis) *CategoriesView {
	if ca == nil {
		return nil
	}
	v := &CategoriesView{Stats: make([]CategoryStatView, 0, len(ca.Stats))}
	for _, s := range ca.Stats {
		v.Stats = append(v.Stats, CategoryStatView{
			Category: s.Category.String(), Count: s.Count,
			Share:         JSONFloat(s.Share),
			MeanFollowers: JSONFloat(s.MeanFollowers),
			MeanListed:    JSONFloat(s.MeanListed),
			PageRankShare: JSONFloat(s.PageRankShare),
			Affinity:      JSONFloat(s.Affinity),
		})
	}
	return v
}

func mutualCoreView(m *MutualCoreAnalysis) *MutualCoreView {
	if m == nil {
		return nil
	}
	v := &MutualCoreView{
		CoreK: m.CoreK, Degeneracy: m.Degeneracy, CoreNodes: m.CoreNodes,
		CoreReciprocity:      JSONFloat(m.CoreReciprocity),
		PeripheryReciprocity: JSONFloat(m.PeripheryReciprocity),
		MutualEdgeShare:      JSONFloat(m.MutualEdgeShare),
	}
	for _, p := range m.RichClub {
		v.RichClub = append(v.RichClub, RichClubView{
			K: p.K, N: p.N, Phi: JSONFloat(p.Phi), PhiNorm: JSONFloat(p.PhiNorm),
		})
	}
	return v
}

func featuresView(m *features.Matrix) *FeaturesSummaryView {
	if m == nil {
		return nil
	}
	return &FeaturesSummaryView{
		Users:        m.N,
		Columns:      features.Names(),
		CoreK:        m.CoreK,
		Degeneracy:   m.Degeneracy,
		TailXmin:     JSONFloat(m.TailXmin),
		TailCount:    m.TailCount,
		EliteCount:   m.ClassCounts[features.ClassElite],
		BotCount:     m.ClassCounts[features.ClassBot],
		RegularCount: m.ClassCounts[features.ClassRegular],
	}
}

// NewUserFeaturesView builds one user's feature view from a raw matrix row
// and the scorer outputs for that row.
func NewUserFeaturesView(rank, node int, row, probs []float64, class int) UserFeaturesView {
	return UserFeaturesView{
		Rank: rank,
		Node: node,
		Features: FeatureVectorView{
			OutDegree:  JSONFloat(row[features.FeatOutDegree]),
			InDegree:   JSONFloat(row[features.FeatInDegree]),
			Ratio:      JSONFloat(row[features.FeatRatio]),
			MutualCore: row[features.FeatMutualCore] != 0,
			BetwPct:    JSONFloat(row[features.FeatBetweennessPct]),
			EigenPct:   JSONFloat(row[features.FeatEigenPct]),
			Clustering: JSONFloat(row[features.FeatClustering]),
			Tail:       row[features.FeatTail] != 0,
		},
		Score: UserScoreView{
			Class:   features.ClassName(class),
			Elite:   JSONFloat(probs[features.ClassElite]),
			Bot:     JSONFloat(probs[features.ClassBot]),
			Regular: JSONFloat(probs[features.ClassRegular]),
		},
	}
}

func activityView(a *ActivityAnalysis) *ActivityView {
	if a == nil {
		return nil
	}
	v := &ActivityView{
		PortmanteauLag: a.PortmanteauLag,
		LjungBoxMaxP:   JSONFloat(a.LjungBoxMaxP),
		BoxPierceMaxP:  JSONFloat(a.BoxPierceMaxP),
		SundayWeekday:  JSONFloat(a.SundayWeekday),
		WeekdayMeans:   jfloats(a.WeekdayMeans[:]),
	}
	var series *timeseries.DailySeries
	if a.Series != nil {
		series = a.Series
		v.Days = series.Len()
		v.Start = series.Start.Format("2006-01-02")
	}
	if a.ADF != nil {
		v.ADF = &ADFView{
			Statistic: JSONFloat(a.ADF.Statistic), Lags: a.ADF.Lags,
			Crit5: JSONFloat(a.ADF.Crit5), Stationary: a.ADF.Stationary(),
		}
	}
	for _, c := range a.Changepoints {
		cv := ChangepointView{Index: c.Index, Stability: JSONFloat(c.Stability)}
		if series != nil {
			cv.Date = series.Date(c.Index).Format("2006-01-02")
		}
		v.Changepoints = append(v.Changepoints, cv)
	}
	return v
}
