package serve

import (
	"context"
	"fmt"
	"io"
	"net/http"

	"elites/internal/core"
	"elites/internal/features"
)

// features.go serves the per-user feature matrix. A request whose body is
// not stored resolves its rows from one of two places:
//
//  1. the feature shards in the server's cache: the pipeline writes them
//     on a server with a cache dir (so a fresh process over a warm
//     directory answers without a run), and runBattery on one without
//     (counted in eliteserve_feature_shard_hits_total);
//  2. a pipeline run restricted to the features stage, coalesced so
//     concurrent requests share it, whose matrix reaches every waiter in
//     its runOutcome.
//
// The server keeps no decoded rows between requests; the encoded bodies
// are stored like every other (serveBody).

// featureRows returns the rows covering nodes, as a lookup from node to
// the rows that hold it.
func (s *Server) featureRows(ctx context.Context, d *dataset, nodes []int) (func(u int) *features.Rows, error) {
	// All or nothing per request: a single missing shard falls through to
	// a run, which stores every shard at once. A stored shard is read one
	// requested row at a time, so a miss costs those rows, not the shard.
	n := d.ds.Graph.NumNodes()
	st := core.FeatureStore(s.cache, d.digest, s.cfg.Options)
	rows := make(map[int]*features.Rows, len(nodes))
	for _, u := range nodes {
		if _, have := rows[u]; have {
			continue
		}
		r, hit := st.LoadRow(u, n)
		if !hit {
			rows = nil
			break
		}
		rows[u] = r
	}
	if rows != nil {
		s.met.shardHits.Inc()
		return func(u int) *features.Rows { return rows[u] }, nil
	}

	run := core.NewBody(d.identity, []string{core.StageFeatures}, "features-run")
	out, err := s.coalesce(ctx, run, func(ctx context.Context, prog *progress) (runOutcome, error) {
		rep, err := s.runBattery(ctx, d, run.Stages, prog)
		if err != nil {
			// No degraded tier here: a feature response is the matrix, so a
			// failed features stage has nothing partial to serve.
			return runOutcome{}, err
		}
		return runOutcome{features: rep.Features}, nil
	}, nil)
	if err != nil {
		return nil, err
	}
	if out.features == nil {
		return nil, fmt.Errorf("serve: features stage produced no matrix")
	}
	return func(int) *features.Rows { return &out.features.Rows }, nil
}

// featuresView builds a users:batch view of the given ranks, node ids
// alongside, from the rows featureRows resolves.
func (s *Server) featuresView(ctx context.Context, d *dataset, ranks []int) (core.UsersBatchView, error) {
	byRank := d.ranking()
	nodes := make([]int, len(ranks))
	for i, rank := range ranks {
		nodes[i] = int(byRank[rank-1])
	}
	rows, err := s.featureRows(ctx, d, nodes)
	if err != nil {
		return core.UsersBatchView{}, err
	}
	view := core.UsersBatchView{Users: make([]core.UserFeaturesView, len(nodes))}
	for i, u := range nodes {
		r := rows(u)
		view.Users[i] = core.NewUserFeaturesView(ranks[i], u, r.Row(u), r.ProbsRow(u), r.ClassOf(u))
	}
	return view, nil
}

func (s *Server) handleUserFeatures(w http.ResponseWriter, r *http.Request) {
	d, ok := s.lookup(w, r)
	if !ok {
		return
	}
	b, err := core.UserFeaturesBody(d.identity, r.PathValue("rank"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if n := d.ds.Graph.NumNodes(); b.Rank > n {
		writeError(w, http.StatusNotFound, "rank %d out of range (dataset has %d users)", b.Rank, n)
		return
	}
	s.serveBody(w, r, b, func(ctx context.Context, _ *progress) (runOutcome, error) {
		view, err := s.featuresView(ctx, d, []int{b.Rank})
		if err != nil {
			return runOutcome{}, err
		}
		body, err := encodeBody(view.Users[0])
		return runOutcome{body: body}, err
	})
}

func (s *Server) handleUsersBatch(w http.ResponseWriter, r *http.Request) {
	d, ok := s.lookup(w, r)
	if !ok {
		return
	}
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, core.MaxBatchBody))
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	// The body is a function of the ordered rank list, so its entry is too
	// (request order is preserved in the response).
	b, ranks, err := core.UsersBatchBody(d.identity, data)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	n := d.ds.Graph.NumNodes()
	for _, rank := range ranks {
		if rank < 1 || rank > n {
			writeError(w, http.StatusBadRequest, "rank %d out of range (dataset has %d users)", rank, n)
			return
		}
	}
	s.serveBody(w, r, b, func(ctx context.Context, _ *progress) (runOutcome, error) {
		view, err := s.featuresView(ctx, d, ranks)
		if err != nil {
			return runOutcome{}, err
		}
		body, err := encodeBody(view)
		return runOutcome{body: body}, err
	})
}
