package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"elites/internal/core"
)

// FuzzParseStages feeds core.ParseStages arbitrary ?stages= values, as any
// client can send. The invariants: it never panics, what it accepts is a
// subset of core.StageNames() in canonical order without repeats, and
// feeding the joined result back in returns the same slice, so every
// spelling of a subset shares one coalescing and cache key. Seeds live in
// testdata/fuzz/FuzzParseStages.
func FuzzParseStages(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw string) {
		stages, err := core.ParseStages(raw)
		if err != nil {
			return
		}
		next := 0
		for _, s := range stages {
			i := slices.Index(core.StageNames()[next:], s)
			if i < 0 {
				t.Fatalf("%q: %v is not a canonical-order subset of %v", raw, stages, core.StageNames())
			}
			next += i + 1
		}
		again, err := core.ParseStages(strings.Join(stages, ","))
		if err != nil || !slices.Equal(again, stages) {
			t.Fatalf("%q: %v re-parses to %v (err %v)", raw, stages, again, err)
		}
	})
}

// FuzzUsersBatch feeds the users:batch handler arbitrary request bodies,
// as any client can send. The invariants: it never panics and never
// answers 5xx; an accepted body is one JSON object naming
// 1..maxBatchRanks ranks, each within the dataset, and the response lists
// exactly those users in request order; a body over maxBatchBody is
// rejected. The features matrix is computed once before fuzzing, so an
// accepted body costs a lookup, not a pipeline run. Seeds live in
// testdata/fuzz/FuzzUsersBatch.
func FuzzUsersBatch(f *testing.F) {
	s := newTestServer(f, Config{Options: fastServeOptions()})
	d, _ := s.dataset("demo")
	byRank := d.ranking()
	post := func(body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost,
			"/v1/datasets/demo/users:batch", bytes.NewReader(body)))
		return rec
	}
	if rec := post([]byte(`{"ranks":[1]}`)); rec.Code != http.StatusOK {
		f.Fatalf("warm-up batch: %d %s", rec.Code, rec.Body)
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		rec := post(body)
		if rec.Code >= 500 {
			t.Fatalf("%q: %d %s", body, rec.Code, rec.Body)
		}
		if rec.Code != http.StatusOK {
			return
		}
		if len(body) > maxBatchBody {
			t.Fatalf("accepted a %d-byte body over the %d-byte limit", len(body), maxBatchBody)
		}
		var req batchRequest
		if err := json.Unmarshal(body, &req); err != nil {
			t.Fatalf("accepted %q, which is not one JSON value: %v", body, err)
		}
		if len(req.Ranks) < 1 || len(req.Ranks) > maxBatchRanks {
			t.Fatalf("accepted %d ranks, want 1..%d", len(req.Ranks), maxBatchRanks)
		}
		var view core.UsersBatchView
		if err := json.Unmarshal(rec.Body.Bytes(), &view); err != nil {
			t.Fatalf("response: %v", err)
		}
		if len(view.Users) != len(req.Ranks) {
			t.Fatalf("%d ranks answered with %d users", len(req.Ranks), len(view.Users))
		}
		for i, rank := range req.Ranks {
			if rank < 1 || rank > len(byRank) {
				t.Fatalf("accepted rank %d outside 1..%d", rank, len(byRank))
			}
			if view.Users[i].Rank != rank {
				t.Fatalf("user %d has rank %d, want %d", i, view.Users[i].Rank, rank)
			}
		}
	})
}
