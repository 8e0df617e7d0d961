package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"elites/internal/graph"
	"elites/internal/twitter"
)

func postJSON(t *testing.T, ts *httptest.Server, path, body string) (int, []byte) {
	t.Helper()
	resp, err := ts.Client().Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, buf.Bytes()
}

func TestUserFeaturesEndpoint(t *testing.T) {
	s := newTestServer(t, Config{Options: fastServeOptions()})
	ts := httptest.NewServer(s)
	defer ts.Close()

	code, body := get(t, ts, "/v1/datasets/demo/users/1/features")
	if code != http.StatusOK {
		t.Fatalf("features: %d %s", code, body)
	}
	var view struct {
		Rank     int `json:"rank"`
		Node     int `json:"node"`
		Features struct {
			OutDegree *float64 `json:"out_degree"`
			BetwPct   *float64 `json:"betweenness_pct"`
		} `json:"features"`
		Score struct {
			Class string `json:"class"`
		} `json:"score"`
	}
	if err := json.Unmarshal(body, &view); err != nil {
		t.Fatalf("unmarshal: %v\n%s", err, body)
	}
	if view.Rank != 1 || view.Features.OutDegree == nil || *view.Features.OutDegree < 1 {
		t.Fatalf("rank-1 row: %s", body)
	}
	if view.Score.Class == "" {
		t.Fatalf("missing scorer verdict: %s", body)
	}

	// The second request must come from the body memo, not a second run.
	runsBefore := s.met.runs.Value()
	_, again := get(t, ts, "/v1/datasets/demo/users/1/features")
	if !bytes.Equal(body, again) {
		t.Fatal("repeat request body differs")
	}
	if runsAfter := s.met.runs.Value(); runsAfter != runsBefore {
		t.Fatalf("repeat request ran the pipeline (%d -> %d)", runsBefore, runsAfter)
	}

	if code, _ := get(t, ts, "/v1/datasets/demo/users/0/features"); code != http.StatusBadRequest {
		t.Fatalf("rank 0: %d", code)
	}
	if code, _ := get(t, ts, "/v1/datasets/demo/users/99999999/features"); code != http.StatusNotFound {
		t.Fatalf("rank out of range: %d", code)
	}
}

// TestUsersBatchGoldenBytes pins the batch body byte-identical across a cold
// run, a warm repeat, and a second server instance sharing the cache
// directory — and asserts the second instance answered without a single
// pipeline run, from the stored body and then from precomputed shards.
func TestUsersBatchGoldenBytes(t *testing.T) {
	ds, activity := testFixtures(t)
	dir := t.TempDir()
	opts := fastServeOptions()
	opts.CacheDir = dir

	srvA := New(Config{Options: opts})
	if err := srvA.RegisterDataset("demo", ds, activity, "test"); err != nil {
		t.Fatal(err)
	}
	tsA := httptest.NewServer(srvA)
	defer tsA.Close()

	const reqBody = `{"ranks":[1,2,3]}`
	code, cold := postJSON(t, tsA, "/v1/datasets/demo/users:batch", reqBody)
	if code != http.StatusOK {
		t.Fatalf("cold batch: %d %s", code, cold)
	}
	code, warm := postJSON(t, tsA, "/v1/datasets/demo/users:batch", reqBody)
	if code != http.StatusOK || !bytes.Equal(cold, warm) {
		t.Fatalf("warm batch diverged (code %d)", code)
	}

	// A fresh server process over the same cache directory must serve the
	// identical bytes from shards alone: zero pipeline runs.
	srvB := New(Config{Options: opts})
	if err := srvB.RegisterDataset("demo", ds, activity, "test"); err != nil {
		t.Fatal(err)
	}
	tsB := httptest.NewServer(srvB)
	defer tsB.Close()

	code, fresh := postJSON(t, tsB, "/v1/datasets/demo/users:batch", reqBody)
	if code != http.StatusOK {
		t.Fatalf("shard-tier batch: %d %s", code, fresh)
	}
	if !bytes.Equal(cold, fresh) {
		t.Fatalf("shard-tier body diverged:\ncold: %s\nfresh: %s", cold, fresh)
	}
	// The stored body answers before the dataset is ranked.
	if d, _ := srvB.dataset("demo"); d.byRank != nil {
		t.Fatal("a stored batch body was answered only after ranking the dataset")
	}
	if runs := srvB.met.runs.Value(); runs != 0 {
		t.Fatalf("second instance ran the pipeline %d times", runs)
	}

	// The single-user endpoint rides the same shards. Server A never
	// served this request, so no stored body answers it: the shard tier
	// does.
	if code, _ := get(t, tsB, "/v1/datasets/demo/users/2/features"); code != http.StatusOK {
		t.Fatalf("single-user over shards: %d", code)
	}
	if runs := srvB.met.runs.Value(); runs != 0 {
		t.Fatal("single-user request over shards ran the pipeline")
	}
	if hits := srvB.met.shardHits.Value(); hits == 0 {
		t.Fatal("second instance did not count a shard hit")
	}
}

func TestUsersBatchValidationAndOrder(t *testing.T) {
	s := newTestServer(t, Config{Options: fastServeOptions()})
	ts := httptest.NewServer(s)
	defer ts.Close()

	for _, bad := range []string{``, `{}`, `{"ranks":[]}`, `{"ranks":[0]}`, `{"ranks":[99999999]}`, `not json`} {
		if code, _ := postJSON(t, ts, "/v1/datasets/demo/users:batch", bad); code != http.StatusBadRequest {
			t.Fatalf("body %q: want 400, got %d", bad, code)
		}
	}
	if code, _ := postJSON(t, ts, "/v1/datasets/nope/users:batch", `{"ranks":[1]}`); code != http.StatusNotFound {
		t.Fatalf("unknown dataset: %d", code)
	}

	// Response rows come back in request order, not rank order.
	code, body := postJSON(t, ts, "/v1/datasets/demo/users:batch", `{"ranks":[3,1,2]}`)
	if code != http.StatusOK {
		t.Fatalf("batch: %d %s", code, body)
	}
	var view struct {
		Users []struct {
			Rank int `json:"rank"`
		} `json:"users"`
	}
	if err := json.Unmarshal(body, &view); err != nil {
		t.Fatal(err)
	}
	if len(view.Users) != 3 || view.Users[0].Rank != 3 || view.Users[1].Rank != 1 || view.Users[2].Rank != 2 {
		t.Fatalf("order not preserved: %+v", view.Users)
	}
}

// TestUserFeaturesAfterReportNoCacheDir: on a server with no cache dir, a
// features-on report leaves the feature shards in the memory-only cache,
// so a per-user request afterwards reads them: one run in all, and the
// shard hit is counted.
func TestUserFeaturesAfterReportNoCacheDir(t *testing.T) {
	opts := fastServeOptions()
	opts.Features = true
	s := newTestServer(t, Config{Options: opts})
	ts := httptest.NewServer(s)
	defer ts.Close()

	if code, body := get(t, ts, "/v1/datasets/demo/report"); code != http.StatusOK {
		t.Fatalf("report: %d %s", code, body)
	}
	if code, body := get(t, ts, "/v1/datasets/demo/users/2/features"); code != http.StatusOK {
		t.Fatalf("user features: %d %s", code, body)
	}
	_, metrics := get(t, ts, "/metrics")
	for _, want := range []string{"eliteserve_runs_total 1\n", "eliteserve_feature_shard_hits_total 1\n"} {
		if !strings.Contains(string(metrics), want) {
			t.Fatalf("/metrics lacks %q:\n%s", want, metrics)
		}
	}
}

// TestUserFeaturesCacheMemBelowShard: on a server with no cache dir whose
// -cache-mem cap holds no feature shard, rows cannot stay between
// requests, so each per-user body miss costs one features-only run. The
// bytes still match a server with the default cap, where one run serves
// every rank.
func TestUserFeaturesCacheMemBelowShard(t *testing.T) {
	tiny := fastServeOptions()
	tiny.CacheMemBytes = 1 << 10
	small := httptest.NewServer(newTestServer(t, Config{Options: tiny}))
	defer small.Close()
	ref := httptest.NewServer(newTestServer(t, Config{Options: fastServeOptions()}))
	defer ref.Close()

	ranks := []string{"1", "2", "3"}
	for _, rank := range ranks {
		path := "/v1/datasets/demo/users/" + rank + "/features"
		code, got := get(t, small, path)
		_, want := get(t, ref, path)
		if code != http.StatusOK || !bytes.Equal(got, want) {
			t.Fatalf("%s: %d, bytes differ from the default-cap server:\n%s\nwant\n%s", path, code, got, want)
		}
	}
	for _, c := range []struct {
		ts   *httptest.Server
		want string
	}{
		{small, "eliteserve_runs_total 3\n"},
		{ref, "eliteserve_runs_total 1\n"},
	} {
		if _, metrics := get(t, c.ts, "/metrics"); !strings.Contains(string(metrics), c.want) {
			t.Fatalf("/metrics lacks %q:\n%s", c.want, metrics)
		}
	}
}

// TestUserFeaturesNaNRendersNull: a profileless graph with a zero-degree
// node produces 0/0 and x/0 ratios; both must render as JSON null, not
// break encoding.
func TestUserFeaturesNaNRendersNull(t *testing.T) {
	b := graph.NewBuilder(3)
	b.AddEdge(0, 1) // node 1: in 1, out 0 (+Inf ratio); node 2: isolated (NaN)
	ds := &twitter.Dataset{Graph: b.Build()}

	s := New(Config{Options: fastServeOptions()})
	if err := s.RegisterDataset("tiny", ds, nil, "test"); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()

	code, body := postJSON(t, ts, "/v1/datasets/tiny/users:batch", `{"ranks":[1,2,3]}`)
	if code != http.StatusOK {
		t.Fatalf("batch: %d %s", code, body)
	}
	if !strings.Contains(string(body), `"follower_following_ratio": null`) {
		t.Fatalf("non-finite ratio not rendered as null:\n%s", body)
	}
	if !json.Valid(body) {
		t.Fatal("body is not valid JSON")
	}
}
