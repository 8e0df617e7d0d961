// Package elites is a from-scratch Go reproduction of "Elites Tweet?
// Characterizing the Twitter Verified User Network" (Paul et al., ICDE
// 2019). It bundles, behind one documented API:
//
//   - calibrated synthetic generators for the Twitter verified-user network
//     and the generic Twittersphere reference (the July-2018 crawl the paper
//     used is unobtainable; the internal/gen package comment gives the
//     substitution argument);
//   - a simulated Twitter platform — profiles with bios, a REST API with
//     cursor pagination and 15-minute rate windows on a virtual clock, a
//     Firehose of daily statistics — plus the paper's §III crawl pipeline;
//   - the full analysis battery: CSR graph algorithms (SCC/WCC, attracting
//     components, reciprocity, clustering, assortativity, BFS distance
//     distributions), centrality (PageRank, Brandes betweenness),
//     Lanczos eigenvalues, Clauset–Shalizi–Newman power-law inference with
//     Vuong tests, bio n-gram tables, P-spline GAM correlations, and the
//     §V time-series suite (Ljung–Box, Box–Pierce, ADF, PELT);
//   - a Characterizer that runs everything as a concurrent analysis stage
//     graph — independent stages execute in parallel on a bounded pool, the
//     hottest stages (Brandes betweenness, the goodness-of-fit bootstrap,
//     graph metrics, BFS distance sweeps) additionally shard their inner
//     loops over a shared process-wide worker pool, and per-stage derived
//     RNG streams plus ordered reductions keep reports bit-identical at any
//     parallelism — and renders each of the paper's tables and figures.
//     With Options.CacheDir set, the expensive stages are served from a
//     content-addressed result cache on re-runs (Report.Cache reports the
//     traffic), rendering byte-identically to a cold run.
//   - an embeddable HTTP serving layer (NewServer; cmd/eliteserve wraps
//     it) that answers report/stage/per-user queries as JSON or rendered
//     text, coalesces identical concurrent requests onto one pipeline
//     run, cancels runs every client abandoned, sheds overload with 429,
//     detaches slow cold runs into pollable jobs, and exposes
//     Prometheus-style metrics.
//
// The execution model (stage graph, determinism contract, shared worker
// cap) is documented in docs/ARCHITECTURE.md.
//
// # Quick start
//
//	p, _ := elites.NewPlatform(elites.DefaultPlatformConfig(5000))
//	ds, _ := elites.DatasetFromPlatform(p)
//	rep, _ := elites.NewCharacterizer(elites.Options{}).Run(ds, p.ActivitySeries(p.EnglishNodes()))
//	rep.Render(os.Stdout)
//
// The packages under internal/ hold the implementations; this package
// re-exports the stable surface.
package elites

import (
	"io"

	"elites/internal/centrality"
	"elites/internal/core"
	"elites/internal/faults"
	"elites/internal/features"
	"elites/internal/fleet"
	"elites/internal/gen"
	"elites/internal/graph"
	"elites/internal/mathx"
	"elites/internal/obs"
	"elites/internal/powerlaw"
	"elites/internal/serve"
	"elites/internal/spectral"
	"elites/internal/stats"
	"elites/internal/store"
	"elites/internal/text"
	"elites/internal/timeseries"
	"elites/internal/twitter"
)

// Version identifies the library release.
const Version = "1.0.0"

// --- Graphs -----------------------------------------------------------------

// Re-exported graph types.
type (
	// Digraph is an immutable directed graph in CSR form.
	Digraph = graph.Digraph
	// GraphBuilder accumulates edges and freezes them into a Digraph.
	GraphBuilder = graph.Builder
	// DistanceDistribution summarizes pairwise shortest-path lengths.
	DistanceDistribution = graph.DistanceDistribution
	// SCCResult is a strongly-connected-component decomposition.
	SCCResult = graph.SCCResult
	// WCCResult is a weakly-connected-component decomposition.
	WCCResult = graph.WCCResult
)

// NewGraphBuilder returns a builder for a graph with n nodes.
func NewGraphBuilder(n int) *GraphBuilder { return graph.NewBuilder(n) }

// Re-exported graph analyses.
var (
	// Reciprocity is the fraction of edges whose reverse also exists.
	Reciprocity = graph.Reciprocity
	// AverageLocalClustering is the mean Watts–Strogatz clustering
	// coefficient of the undirected projection.
	AverageLocalClustering = graph.AverageLocalClustering
	// DegreeAssortativity is the out–in degree correlation across edges.
	DegreeAssortativity = graph.DegreeAssortativity
	// StronglyConnectedComponents runs iterative Tarjan.
	StronglyConnectedComponents = graph.StronglyConnectedComponents
	// WeaklyConnectedComponents runs union-find.
	WeaklyConnectedComponents = graph.WeaklyConnectedComponents
	// AttractingComponents returns the sink SCCs (random-walk traps).
	AttractingComponents = graph.AttractingComponents
	// IsolatedNodes lists nodes with no edges.
	IsolatedNodes = graph.IsolatedNodes
	// ExactDistances runs all-pairs BFS.
	ExactDistances = graph.ExactDistances
	// SampledDistances estimates the distance distribution from k sources.
	SampledDistances = graph.SampledDistances
	// ExactDistancesWorkers and SampledDistancesWorkers take an explicit
	// worker budget (<= 0 means GOMAXPROCS); every budget yields an
	// identical distribution.
	ExactDistancesWorkers   = graph.ExactDistancesWorkers
	SampledDistancesWorkers = graph.SampledDistancesWorkers
	// BFS computes single-source hop distances.
	BFS = graph.BFS
	// KCores computes the k-core decomposition (Batagelj–Zaveršnik).
	KCores = graph.KCores
	// RichClub computes the normalized rich-club curve.
	RichClub = graph.RichClub
	// MutualSubgraph keeps only reciprocated edges.
	MutualSubgraph = graph.MutualSubgraph
	// CoreReciprocity splits reciprocity by core membership (§IV-C).
	CoreReciprocity = graph.CoreReciprocity
)

// --- Generators ---------------------------------------------------------------

// Re-exported generator types.
type (
	// GenConfig parameterizes the social-graph engine.
	GenConfig = gen.Config
	// GenResult is a generated network with roles and degree draws.
	GenResult = gen.Result
	// Role classifies generated nodes (regular / isolated / celebrity sink).
	Role = gen.Role
)

// Generator entry points.
var (
	// VerifiedDefaults is the configuration calibrated to the paper's
	// verified-network fingerprint.
	VerifiedDefaults = gen.VerifiedDefaults
	// TwitterDefaults is the generic-Twittersphere reference configuration.
	TwitterDefaults = gen.TwitterDefaults
	// Generate runs the engine on an arbitrary configuration.
	Generate = gen.Generate
	// GenerateVerified generates the calibrated verified-like network.
	GenerateVerified = gen.Verified
	// GenerateTwitter generates the generic reference network.
	GenerateTwitter = gen.Twitter
	// ErdosRenyi, BarabasiAlbert, WattsStrogatz and ConfigurationModel are
	// the classic baselines.
	ErdosRenyi         = gen.ErdosRenyi
	BarabasiAlbert     = gen.BarabasiAlbert
	WattsStrogatz      = gen.WattsStrogatz
	ConfigurationModel = gen.ConfigurationModel
)

// --- Simulated platform -------------------------------------------------------

// Re-exported platform types.
type (
	// Platform is the simulated Twitter.
	Platform = twitter.Platform
	// PlatformConfig sizes the simulation.
	PlatformConfig = twitter.PlatformConfig
	// Profile is a simulated user record.
	Profile = twitter.Profile
	// API is the rate-limited REST surface.
	API = twitter.API
	// Dataset is the crawl output the analyses consume.
	Dataset = twitter.Dataset
	// Metric selects one of the Figure 1 audience metrics.
	Metric = twitter.Metric
)

// Platform entry points.
var (
	// DefaultPlatformConfig sizes a platform to n verified users.
	DefaultPlatformConfig = twitter.DefaultPlatformConfig
	// NewPlatform builds the simulated platform.
	NewPlatform = twitter.NewPlatform
	// NewAPI wraps a platform with the rate-limited REST API.
	NewAPI = twitter.NewAPI
	// Crawl runs the paper's §III acquisition pipeline against an API.
	Crawl = twitter.Crawl
	// DatasetFromPlatform induces the dataset directly (identical output,
	// no simulated rate-limit cost).
	DatasetFromPlatform = twitter.DatasetFromPlatform
)

// Figure 1 metrics.
const (
	MetricFollowers = twitter.MetricFollowers
	MetricFriends   = twitter.MetricFriends
	MetricListed    = twitter.MetricListed
	MetricStatuses  = twitter.MetricStatuses
)

// --- Characterization ----------------------------------------------------------

// Re-exported pipeline types.
type (
	// Characterizer runs the paper's full analysis battery.
	Characterizer = core.Characterizer
	// Options tunes the pipeline's sampled analyses.
	Options = core.Options
	// Report bundles every analysis output and renders the paper's
	// tables and figures.
	Report = core.Report
	// StageTiming is one pipeline stage's start and measured wall clock
	// (collected when Options.Timings is set; CacheHit marks stages
	// hydrated from the result cache).
	StageTiming = core.StageTiming
	// CacheReport summarizes result-cache hits and misses for a Run
	// (present on Report.Cache when Options.CacheDir enabled the cache).
	CacheReport = core.CacheReport
	// Fingerprint is the structural signature of a network.
	Fingerprint = core.Fingerprint
	// ReportView is the JSON-safe projection of a Report (NaN-tolerant,
	// deterministic bytes) that the serving layer responds with.
	ReportView = core.ReportView
	// FeatureMatrix is the per-user feature matrix + scorer output
	// (Report.Features when Options.Features opts the stage in).
	FeatureMatrix = features.Matrix
	// FeatureOptions tunes a standalone feature-matrix computation.
	FeatureOptions = features.Options
	// FeatureRows is a contiguous row-range fragment of a feature matrix
	// (what one cached shard decodes into).
	FeatureRows = features.Rows
	// Scorer is the deterministic logistic elite/bot/regular classifier.
	Scorer = features.Scorer
	// UserFeaturesView and UsersBatchView are the JSON projections the
	// per-user feature endpoints respond with.
	UserFeaturesView = core.UserFeaturesView
	UsersBatchView   = core.UsersBatchView
)

// Pipeline entry points.
var (
	// NewCharacterizer builds the pipeline. Stages with no dependency
	// between them run concurrently (Options.Parallelism bounds the pool;
	// Options.Stages selects a subset) and reports are bit-identical at
	// any parallelism thanks to per-stage derived RNG streams.
	NewCharacterizer = core.NewCharacterizer
	// StageNames lists the pipeline's stage vocabulary in canonical order,
	// for Options.Stages selections.
	StageNames = core.StageNames
	// ComputeFingerprint measures a graph's structural signature.
	ComputeFingerprint = core.ComputeFingerprint
	// PaperVerifiedFingerprint is the paper's measured signature.
	PaperVerifiedFingerprint = core.PaperVerifiedFingerprint
	// CompareFingerprints renders a side-by-side contrast table.
	CompareFingerprints = core.CompareFingerprints
	// AnalyzeCategories builds the per-archetype table.
	AnalyzeCategories = core.AnalyzeCategories
	// AnalyzeMutualCore validates the §IV-C core-reciprocity conjecture.
	AnalyzeMutualCore = core.AnalyzeMutualCore
	// NewReportView projects a Report into its JSON view; StageView
	// extracts one stage's fragment.
	NewReportView = core.NewReportView
	StageView     = core.StageView
	// DefaultScorer is ComputeFeatures' classifier, trained once per process.
	DefaultScorer = features.DefaultScorer
	// FeatureNames lists the matrix columns in order; RankByOutDegree is
	// the serving layer's per-user ranking (out-degree desc, node asc).
	FeatureNames    = features.Names
	RankByOutDegree = features.RankByOutDegree
	// NewUserFeaturesView builds one user's JSON feature view from a
	// matrix row.
	NewUserFeaturesView = core.NewUserFeaturesView
)

// StageFeatures names the opt-in feature-matrix pipeline stage (for
// Options.Stages selections).
const StageFeatures = core.StageFeatures

// Scorer classes (FeatureMatrix.Class values).
const (
	ClassElite   = features.ClassElite
	ClassBot     = features.ClassBot
	ClassRegular = features.ClassRegular
)

// --- Serving --------------------------------------------------------------------

// Re-exported serving types (cmd/eliteserve is a thin wrapper over these;
// embed the Server anywhere an http.Handler goes).
type (
	// Server is the HTTP serving layer over the characterization engine:
	// request coalescing, bounded admission, async jobs, /metrics.
	Server = serve.Server
	// ServerConfig tunes a Server.
	ServerConfig = serve.Config
)

// Serving entry points.
var (
	// NewServer builds the HTTP serving layer; register datasets with
	// Server.RegisterDataset / RegisterDir / RegisterGenerated, then mount
	// it as an http.Handler.
	NewServer = serve.New
	// ErrServerBusy is what shed requests fail with (HTTP 429).
	ErrServerBusy = serve.ErrBusy
)

// --- Fleet ----------------------------------------------------------------------

// Re-exported fleet types (cmd/eliterouter is a thin wrapper over these).
type (
	// Router is the fleet coordinator: rendezvous-hashed placement over
	// eliteserve workers with health checking, budgeted sequential
	// retries, per-worker circuit breakers and last-known-good
	// degradation.
	Router = fleet.Router
	// RouterConfig tunes a Router.
	RouterConfig = fleet.Config
)

// NewRouter builds the fleet coordinator; call Start to launch its health
// prober and mount it as an http.Handler.
var NewRouter = fleet.New

// --- Observability ---------------------------------------------------------------

// Re-exported observability types (internal/obs): the tracing, metrics
// and structured-logging layer shared by the router, server and CLI.
type (
	// Tracer records request-scoped span trees (W3C traceparent
	// propagation, /debug/traces ring buffer, JSONL sink).
	Tracer = obs.Tracer
	// TracerConfig configures a Tracer (name, seed, ring size, sink).
	TracerConfig = obs.TracerConfig
	// Span is one timed operation in a trace.
	Span = obs.Span
)

// Observability entry points.
var (
	// NewTracer builds a Tracer; pass it to ServerConfig.Tracer /
	// RouterConfig.Tracer, or drive it directly with Root.
	NewTracer = obs.NewTracer
	// NewObsLogger builds a log/slog logger in "text" or "json" format —
	// the value space of the commands' -log-format flag.
	NewObsLogger = obs.NewLogger
	// ContextWithSpan / SpanFromContext thread spans through call trees;
	// Characterizer.RunContext emits per-stage spans when its context
	// carries one.
	ContextWithSpan = obs.ContextWithSpan
	SpanFromContext = obs.SpanFromContext
	// RenderTree formats one trace's spans as an indented duration tree.
	RenderTree = obs.RenderTree
)

// --- Fault injection -------------------------------------------------------------

// FaultInjector is the deterministic fault-injection layer (Options.Faults):
// seeded, rule-based injection of stage errors, panics, latency, cache I/O
// failures and cancellations, for chaos testing the pipeline and server.
type FaultInjector = faults.Injector

// ParseFaults compiles a fault spec ("point=kind{:key=value},..." — e.g.
// "stage:degree=panic,cache:read=ioerror:times=all") into an injector;
// seed drives probabilistic rules. See internal/faults for the grammar.
var ParseFaults = faults.Parse

// --- Statistics toolkits ---------------------------------------------------------

// Re-exported statistics types.
type (
	// PowerLawFit is a fitted power-law model.
	PowerLawFit = powerlaw.Fit
	// PowerLawOptions configures fitting.
	PowerLawOptions = powerlaw.Options
	// VuongResult is a likelihood-ratio comparison outcome.
	VuongResult = powerlaw.VuongResult
	// GoFResult is a bootstrap goodness-of-fit outcome with full
	// accounting (p-value, exceedances, dropped replicates); returned by
	// PowerLawFit.Bootstrap.
	GoFResult = powerlaw.GoFResult
	// DailySeries is a contiguous daily time series.
	DailySeries = timeseries.DailySeries
	// ADFResult is an Augmented Dickey–Fuller test outcome.
	ADFResult = timeseries.ADFResult
	// Histogram is a binned frequency distribution.
	Histogram = stats.Histogram
	// Spline is a fitted penalized regression spline.
	Spline = stats.Spline
	// NGram is a counted phrase.
	NGram = text.NGram
	// RNG is the deterministic random generator used throughout.
	RNG = mathx.RNG
)

// Statistics entry points.
var (
	// FitPowerLawDiscrete fits integer data (degrees).
	FitPowerLawDiscrete = powerlaw.FitDiscrete
	// FitPowerLawContinuous fits positive real data (eigenvalues).
	FitPowerLawContinuous = powerlaw.FitContinuous
	// LjungBox and BoxPierce are the §V portmanteau tests.
	LjungBox  = timeseries.LjungBox
	BoxPierce = timeseries.BoxPierce
	// ADF is the Augmented Dickey–Fuller test.
	ADF = timeseries.ADF
	// PELT finds change-points; PenaltySweep reproduces the paper's
	// cooling protocol.
	PELT         = timeseries.PELT
	PenaltySweep = timeseries.PenaltySweep
	// KPSS is the stationarity-null complement to ADF.
	KPSS = timeseries.KPSS
	// Decompose performs the additive weekly decomposition.
	Decompose = timeseries.Decompose
	// TopicSensitivePageRank ranks by per-topic influence (TwitterRank).
	TopicSensitivePageRank = centrality.TopicSensitivePageRank
	// DistinctiveTerms finds per-group characteristic vocabulary.
	DistinctiveTerms = text.DistinctiveTerms
	// PageRank and Betweenness are the Figure 5 centralities. The
	// *Workers variants take an explicit worker budget (<= 0 means
	// GOMAXPROCS); every budget yields bit-identical scores.
	PageRank                 = centrality.PageRank
	Betweenness              = centrality.Betweenness
	BetweennessWorkers       = centrality.BetweennessWorkers
	ApproxBetweenness        = centrality.ApproxBetweenness
	ApproxBetweennessWorkers = centrality.ApproxBetweennessWorkers
	// TopLaplacianEigenvalues computes the §IV-B spectrum.
	NewLaplacianOperator  = spectral.NewLaplacianOperator
	TopEigenvaluesLanczos = spectral.TopEigenvaluesLanczos
	// FitSpline fits the Figure 5 GAM smoother.
	FitSpline = stats.FitSpline
	// NewRNG seeds a deterministic generator.
	NewRNG = mathx.NewRNG
)

// ADF regression variants.
const (
	RegNone          = timeseries.RegNone
	RegConstant      = timeseries.RegConstant
	RegConstantTrend = timeseries.RegConstantTrend
)

// --- Persistence -----------------------------------------------------------------

// StoreMeta records dataset provenance on disk.
type StoreMeta = store.Meta

// Persistence entry points.
var (
	// SaveDataset writes a dataset directory (graph, profiles, activity).
	SaveDataset = store.SaveDataset
	// LoadDataset reads a dataset directory.
	LoadDataset = store.LoadDataset
)

// RenderReport writes the full report to w (alias for Report.Render for
// callers holding the interface value).
func RenderReport(w io.Writer, r *Report) { r.Render(w) }

// ComputeFeatures builds the per-user feature matrix standalone, bit-identical
// to the pipeline's features stage.
func ComputeFeatures(ds *Dataset, opts FeatureOptions) (*FeatureMatrix, error) {
	return features.Compute(ds, nil, opts)
}
