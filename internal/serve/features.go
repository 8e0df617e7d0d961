package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"elites/internal/core"
	"elites/internal/features"
)

// features.go serves the per-user feature matrix. Requests resolve rows
// through three tiers, cheapest first:
//
//  1. the per-dataset matrix memo (a pipeline run in this process already
//     computed it);
//  2. individual feature shards decoded straight from the result cache —
//     this is how a fresh server process over a warm cache directory
//     answers without ever running the pipeline (counted in
//     eliteserve_feature_shard_hits_total);
//  3. a pipeline run restricted to the features stage, coalesced through
//     the same single-flight machinery as report requests.
//
// Encoded bodies additionally memoize in the server's cache (serveMemo), so
// a repeat request, in this process or in a fresh one over the same cache
// directory, is one cache read.

// getFeatures returns the dataset's memoized full matrix, if any.
func (d *dataset) getFeatures() *features.Matrix {
	d.featMu.Lock()
	defer d.featMu.Unlock()
	return d.feat
}

// setFeatures memoizes a computed matrix (first writer wins; the matrix is
// deterministic so any two are bit-identical).
func (d *dataset) setFeatures(m *features.Matrix) {
	if m == nil {
		return
	}
	d.featMu.Lock()
	if d.feat == nil {
		d.feat = m
	}
	d.featMu.Unlock()
}

// featureSource answers row lookups for one request, backed either by the
// full matrix or by the subset of decoded shards the request needs.
type featureSource struct {
	mat    *features.Matrix
	shards map[int]*features.Rows
}

// row returns node u's feature vector, class probabilities and class.
func (fs *featureSource) row(u int) (row, probs []float64, class int) {
	var r *features.Rows
	if fs.mat != nil {
		r = &fs.mat.Rows
	} else {
		r = fs.shards[u/features.ShardRows]
	}
	return r.Row(u), r.ProbsRow(u), r.ClassOf(u)
}

// featureRows resolves the rows covering nodes through the three tiers.
func (s *Server) featureRows(ctx context.Context, d *dataset, nodes []int) (*featureSource, error) {
	if m := d.getFeatures(); m != nil {
		return &featureSource{mat: m}, nil
	}

	// Tier 2: decode only the shards this request touches, memoizing each
	// per dataset. All-or-nothing per request — a single missing shard
	// falls through to a full run, which repopulates every shard at once.
	if s.cache.Dir() != "" {
		n := d.ds.Graph.NumNodes()
		st := core.FeatureStore(s.cache, d.digest, s.cfg.Options)
		got := map[int]*features.Rows{}
		ok := true
		d.featMu.Lock()
		for _, u := range nodes {
			i := u / features.ShardRows
			if _, have := got[i]; have {
				continue
			}
			if r, have := d.shardMem[i]; have {
				got[i] = r
				continue
			}
			r, hit := st.LoadShard(i, n)
			if !hit {
				ok = false
				break
			}
			if d.shardMem == nil {
				d.shardMem = map[int]*features.Rows{}
			}
			d.shardMem[i] = r
			got[i] = r
		}
		d.featMu.Unlock()
		if ok {
			s.met.shardHits.Inc()
			return &featureSource{shards: got}, nil
		}
	}

	// Tier 3: run the features stage (coalesced; a concurrent identical
	// request joins this run). The fn memoizes the matrix on the dataset
	// before returning, so joiners — and this caller — read it back from
	// the memo afterwards.
	run := core.NewBody(d.identity, []string{core.StageFeatures}, "features-run")
	_, err := s.coalesce(ctx, run, func(ctx context.Context, prog *progress) (runOutcome, error) {
		rep, rerr := s.runBattery(ctx, d, run.Stages, prog)
		if rerr != nil {
			// No degraded tier here: a feature response is the matrix, so a
			// failed features stage has nothing partial to serve.
			return runOutcome{}, rerr
		}
		d.setFeatures(rep.Features)
		return runOutcome{}, nil
	}, nil)
	if err != nil {
		return nil, err
	}
	m := d.getFeatures()
	if m == nil {
		return nil, fmt.Errorf("serve: features stage produced no matrix")
	}
	return &featureSource{mat: m}, nil
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
	if s.serveMemo(w, r, b) {
		return
	}
	node := int(d.ranking()[b.Rank-1])
	src, err := s.featureRows(r.Context(), d, []int{node})
	if err != nil {
		s.writeRunError(w, r, err)
		return
	}
	row, probs, class := src.row(node)
	body, merr := encodeBody(core.NewUserFeaturesView(b.Rank, node, row, probs, class))
	if merr != nil {
		writeError(w, http.StatusInternalServerError, "encoding failure")
		return
	}
	s.memoize(b, body)
	w.Header().Set("Content-Type", b.ContentType)
	w.Write(body)
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
	if s.serveMemo(w, r, b) {
		return
	}
	byRank := d.ranking()
	nodes := make([]int, len(ranks))
	for i, rank := range ranks {
		nodes[i] = int(byRank[rank-1])
	}
	src, err := s.featureRows(r.Context(), d, nodes)
	if err != nil {
		s.writeRunError(w, r, err)
		return
	}
	view := core.UsersBatchView{Users: make([]core.UserFeaturesView, len(nodes))}
	for i, node := range nodes {
		row, probs, class := src.row(node)
		view.Users[i] = core.NewUserFeaturesView(ranks[i], node, row, probs, class)
	}
	body, merr := encodeBody(view)
	if merr != nil {
		writeError(w, http.StatusInternalServerError, "encoding failure")
		return
	}
	s.memoize(b, body)
	w.Header().Set("Content-Type", b.ContentType)
	w.Write(body)
}

// encodeBody renders a view exactly like writeJSON does, but returns the
// bytes for memoization instead of writing them.
func encodeBody(v any) ([]byte, error) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
