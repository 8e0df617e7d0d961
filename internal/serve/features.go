package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

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
// Encoded bodies additionally memoize in bodyCache, so repeat requests are
// a map lookup.

// maxBatchRanks bounds one users:batch request.
const maxBatchRanks = 1024

// maxBatchBody bounds the users:batch request body size in bytes.
const maxBatchBody = 1 << 20

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
	if s.shards != nil {
		n := d.ds.Graph.NumNodes()
		st := features.Store{Cache: s.shards, Dataset: d.digest, Options: s.featDigest}
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
	key := s.reportKey(d, []string{core.StageFeatures}, "features-run")
	_, joined, err := s.flight.Do(ctx, key, func(ctx context.Context, prog *progress) (runOutcome, error) {
		rep, rerr := s.runBattery(ctx, d, []string{core.StageFeatures}, prog)
		if rerr != nil {
			// No degraded tier here: a feature response is the matrix, so a
			// failed features stage has nothing partial to serve.
			return runOutcome{}, rerr
		}
		d.setFeatures(rep.Features)
		return runOutcome{}, nil
	}, nil)
	if joined {
		s.met.coalesced.Inc()
	}
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
	d, ok := s.dataset(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown dataset %q", r.PathValue("id"))
		return
	}
	rank, err := strconv.Atoi(r.PathValue("rank"))
	if err != nil || rank < 1 {
		writeError(w, http.StatusBadRequest, "rank must be a positive integer, got %q", r.PathValue("rank"))
		return
	}
	byRank := d.ranking()
	if rank > len(byRank) {
		writeError(w, http.StatusNotFound, "rank %d out of range (dataset has %d users)", rank, len(byRank))
		return
	}
	key := s.reportKey(d, []string{core.StageFeatures}, fmt.Sprintf("user-features:%d", rank))
	if s.serveMemo(w, r, key, "application/json") {
		return
	}
	node := int(byRank[rank-1])
	src, err := s.featureRows(r.Context(), d, []int{node})
	if err != nil {
		s.writeRunError(w, r, err)
		return
	}
	row, probs, class := src.row(node)
	body, merr := encodeBody(core.NewUserFeaturesView(rank, node, row, probs, class))
	if merr != nil {
		writeError(w, http.StatusInternalServerError, "encoding failure")
		return
	}
	s.bodies.put(key, body)
	w.Header().Set("Content-Type", "application/json")
	w.Write(body)
}

// batchRequest is the users:batch request body.
type batchRequest struct {
	Ranks []int `json:"ranks"`
}

func (s *Server) handleUsersBatch(w http.ResponseWriter, r *http.Request) {
	d, ok := s.dataset(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown dataset %q", r.PathValue("id"))
		return
	}
	var req batchRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBatchBody))
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	// Reading on to the end rejects trailing data, and a body over
	// maxBatchBody even when its first value ends below the limit.
	if _, err := dec.Token(); err != io.EOF {
		writeError(w, http.StatusBadRequest, "bad request body: trailing data after the JSON object")
		return
	}
	if len(req.Ranks) == 0 {
		writeError(w, http.StatusBadRequest, "ranks must be a non-empty array")
		return
	}
	if len(req.Ranks) > maxBatchRanks {
		writeError(w, http.StatusBadRequest, "too many ranks (%d > %d)", len(req.Ranks), maxBatchRanks)
		return
	}
	byRank := d.ranking()
	nodes := make([]int, len(req.Ranks))
	for i, rank := range req.Ranks {
		if rank < 1 || rank > len(byRank) {
			writeError(w, http.StatusBadRequest, "rank %d out of range (dataset has %d users)", rank, len(byRank))
			return
		}
		nodes[i] = int(byRank[rank-1])
	}

	// The body is a function of the ordered rank list, so the memo key is
	// too (request order is preserved in the response).
	var sb strings.Builder
	for i, rank := range req.Ranks {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(strconv.Itoa(rank))
	}
	key := s.reportKey(d, []string{core.StageFeatures}, "users-batch:"+sb.String())
	if s.serveMemo(w, r, key, "application/json") {
		return
	}
	src, err := s.featureRows(r.Context(), d, nodes)
	if err != nil {
		s.writeRunError(w, r, err)
		return
	}
	view := core.UsersBatchView{Users: make([]core.UserFeaturesView, len(nodes))}
	for i, node := range nodes {
		row, probs, class := src.row(node)
		view.Users[i] = core.NewUserFeaturesView(req.Ranks[i], node, row, probs, class)
	}
	body, merr := encodeBody(view)
	if merr != nil {
		writeError(w, http.StatusInternalServerError, "encoding failure")
		return
	}
	s.bodies.put(key, body)
	w.Header().Set("Content-Type", "application/json")
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
