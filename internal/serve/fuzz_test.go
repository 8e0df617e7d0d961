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
// answers 5xx; it decodes through core.UsersBatchBody, so an accepted body
// is one the constructor names, its response is the entry stored under
// that name and lists exactly the named users in request order, and a
// rejected body is one the constructor rejects or one naming a rank
// outside the dataset. The warm-up request stores the feature shards, so
// an accepted body costs a shard decode, not a pipeline run. Seeds
// live in testdata/fuzz/FuzzUsersBatch.
func FuzzUsersBatch(f *testing.F) {
	s := newTestServer(f, Config{Options: fastServeOptions()})
	d, _ := s.dataset("demo")
	n := d.ds.Graph.NumNodes()
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
		b, ranks, err := core.UsersBatchBody(d.identity, body)
		outside := slices.ContainsFunc(ranks, func(rank int) bool { return rank < 1 || rank > n })
		if rec.Code != http.StatusOK {
			if err == nil && !outside {
				t.Fatalf("%q: rejected (%d %s), but the constructor names it with every rank in range", body, rec.Code, rec.Body)
			}
			return
		}
		if err != nil {
			t.Fatalf("%q: accepted, but the constructor rejects it: %v", body, err)
		}
		if outside {
			t.Fatalf("accepted ranks %v outside 1..%d", ranks, n)
		}
		if stored, ok := s.cache.Get(b.Entry); !ok || !bytes.Equal(stored, rec.Body.Bytes()) {
			t.Fatalf("%q: the response is not the body stored as %s (stored %v)", body, b.Entry, ok)
		}
		var view core.UsersBatchView
		if err := json.Unmarshal(rec.Body.Bytes(), &view); err != nil {
			t.Fatalf("response: %v", err)
		}
		if len(view.Users) != len(ranks) {
			t.Fatalf("%d ranks answered with %d users", len(ranks), len(view.Users))
		}
		for i, rank := range ranks {
			if view.Users[i].Rank != rank {
				t.Fatalf("user %d has rank %d, want %d", i, view.Users[i].Rank, rank)
			}
		}
	})
}
