package store

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"
	"time"

	"elites/internal/graph"
	"elites/internal/mathx"
	"elites/internal/timeseries"
	"elites/internal/twitter"
)

// TestReadGraphExactCapacity reads a graph larger than readAhead: the
// arrays the graph keeps grow toward the header's counts and end at
// exactly them, with no spare capacity held for the graph's life.
func TestReadGraphExactCapacity(t *testing.T) {
	const n, deg = 700, 100 // 70,000 edges > readAhead
	b := graph.NewBuilder(n)
	for u := 0; u < n; u++ {
		for i := 1; i <= deg; i++ {
			b.AddEdge(u, (u+i)%n)
		}
	}
	var buf bytes.Buffer
	if err := WriteGraph(&buf, b.Build()); err != nil {
		t.Fatal(err)
	}
	g, err := ReadGraph(&buf)
	if err != nil {
		t.Fatal(err)
	}
	off, adj := g.CSR()
	if len(adj) != n*deg || cap(adj) != n*deg || cap(off) != n+1 {
		t.Fatalf("adj len %d cap %d, offsets cap %d; want %d, %d, %d",
			len(adj), cap(adj), cap(off), n*deg, n*deg, n+1)
	}
}

func TestGraphRoundTrip(t *testing.T) {
	rng := mathx.NewRNG(1)
	b := graph.NewBuilder(200)
	for i := 0; i < 3000; i++ {
		u, v := rng.Intn(200), rng.Intn(200)
		if u != v {
			b.AddEdge(u, v)
		}
	}
	g := b.Build()
	var buf bytes.Buffer
	if err := WriteGraph(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadGraph(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumNodes() != g.NumNodes() || g2.NumEdges() != g.NumEdges() {
		t.Fatalf("size mismatch: %d/%d vs %d/%d",
			g2.NumNodes(), g2.NumEdges(), g.NumNodes(), g.NumEdges())
	}
	g.Edges(func(u, v int) bool {
		if !g2.HasEdge(u, v) {
			t.Fatalf("edge %d->%d lost", u, v)
		}
		return true
	})
}

func TestGraphRoundTripProperty(t *testing.T) {
	rng := mathx.NewRNG(2)
	f := func(seed uint32) bool {
		n := 1 + rng.Intn(60)
		b := graph.NewBuilder(n)
		edges := rng.Intn(200)
		for i := 0; i < edges; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				b.AddEdge(u, v)
			}
		}
		g := b.Build()
		var buf bytes.Buffer
		if err := WriteGraph(&buf, g); err != nil {
			return false
		}
		g2, err := ReadGraph(&buf)
		if err != nil {
			return false
		}
		if g2.NumEdges() != g.NumEdges() || g2.NumNodes() != g.NumNodes() {
			return false
		}
		ok := true
		g.Edges(func(u, v int) bool {
			if !g2.HasEdge(u, v) {
				ok = false
				return false
			}
			return true
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestGraphDecodeRejectsGarbage(t *testing.T) {
	if _, err := ReadGraph(bytes.NewReader([]byte("NOPE"))); err != ErrBadMagic {
		t.Fatalf("want ErrBadMagic, got %v", err)
	}
	if _, err := ReadGraph(bytes.NewReader([]byte("EL"))); err == nil {
		t.Fatal("truncated magic should fail")
	}
	// Valid magic, bogus version.
	var buf bytes.Buffer
	buf.WriteString("ELGR")
	buf.WriteByte(99)
	if _, err := ReadGraph(&buf); err == nil {
		t.Fatal("bad version should fail")
	}
}

func TestGraphEmpty(t *testing.T) {
	g := graph.NewBuilder(0).Build()
	var buf bytes.Buffer
	if err := WriteGraph(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadGraph(&buf)
	if err != nil || g2.NumNodes() != 0 {
		t.Fatalf("empty round trip: %v %v", g2, err)
	}
}

func sampleProfiles() []twitter.Profile {
	return []twitter.Profile{
		{
			ID: 1000001, ScreenName: "NewsUser1", Name: "User One",
			Bio: "Official Twitter account of nothing.", Lang: "en",
			Verified: true, Category: twitter.CatJournalist,
			Followers: 1234, Friends: 56, Statuses: 789, Listed: 12,
			CreatedAt: time.Date(2015, 3, 2, 0, 0, 0, 0, time.UTC),
		},
		{
			ID: 1000002, ScreenName: "SportUser2", Name: "User Two",
			Bio: "Professional rugby player.", Lang: "es",
			Verified: true, Category: twitter.CatAthlete,
			Followers: 999999, Friends: 42, Statuses: 10000, Listed: 4000,
			CreatedAt: time.Date(2010, 12, 25, 0, 0, 0, 0, time.UTC),
		},
	}
}

func TestProfilesRoundTrip(t *testing.T) {
	ps := sampleProfiles()
	var buf bytes.Buffer
	if err := WriteProfiles(&buf, ps); err != nil {
		t.Fatal(err)
	}
	got, err := ReadProfiles(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(ps) {
		t.Fatalf("count = %d", len(got))
	}
	for i := range ps {
		if got[i] != ps[i] {
			t.Fatalf("profile %d mismatch:\n%+v\n%+v", i, got[i], ps[i])
		}
	}
}

func TestSeriesRoundTrip(t *testing.T) {
	s := &timeseries.DailySeries{
		Start:  time.Date(2017, 6, 1, 0, 0, 0, 0, time.UTC),
		Values: []float64{1, 2.5, 3.25, 0, -1},
	}
	var buf bytes.Buffer
	if err := WriteSeries(&buf, s); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSeries(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Start.Equal(s.Start) || len(got.Values) != len(s.Values) {
		t.Fatalf("series mismatch: %+v", got)
	}
	for i := range s.Values {
		if got.Values[i] != s.Values[i] {
			t.Fatalf("value %d: %v vs %v", i, got.Values[i], s.Values[i])
		}
	}
}

func TestSeriesRejectsBadInput(t *testing.T) {
	cases := []string{
		"",
		"nope\n",
		"date,value\n2017-06-01\n",
		"date,value\n2017-06-01,abc\n",
		"date,value\nnotadate,1\n",
		"date,value\n2017-06-01,1\n2017-06-05,2\n", // gap
	}
	for i, c := range cases {
		if _, err := ReadSeries(bytes.NewReader([]byte(c))); err == nil {
			t.Fatalf("case %d should fail", i)
		}
	}
}

func TestSaveLoadDataset(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ds")
	g := graph.FromEdges(2, [][2]int{{0, 1}})
	ds := &twitter.Dataset{Graph: g, Profiles: sampleProfiles(), TotalVerified: 5}
	activity := &timeseries.DailySeries{
		Start:  time.Date(2017, 6, 1, 0, 0, 0, 0, time.UTC),
		Values: []float64{10, 20, 30},
	}
	meta := Meta{Tool: "test", Seed: 7, CreatedAt: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
	if err := SaveDataset(dir, ds, activity, meta); err != nil {
		t.Fatal(err)
	}
	got, act, m, err := LoadDataset(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.Graph.NumEdges() != 1 || len(got.Profiles) != 2 || got.TotalVerified != 5 {
		t.Fatalf("dataset mismatch: %+v", got)
	}
	if act == nil || act.Len() != 3 {
		t.Fatalf("activity mismatch: %+v", act)
	}
	if m.Tool != "test" || m.Seed != 7 || m.Nodes != 2 || m.Edges != 1 {
		t.Fatalf("meta mismatch: %+v", m)
	}
}

func TestLoadDatasetWithoutOptionalFiles(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ds")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	g := graph.FromEdges(3, [][2]int{{0, 1}, {1, 2}})
	f, err := os.Create(filepath.Join(dir, "graph.bin"))
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteGraph(f, g); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	ds, act, _, err := LoadDataset(dir)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Graph.NumEdges() != 2 || ds.Profiles != nil || act != nil {
		t.Fatalf("partial load wrong: %+v %+v", ds, act)
	}
}

func TestLoadDatasetProfileCountMismatch(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ds")
	g := graph.FromEdges(3, [][2]int{{0, 1}})
	ds := &twitter.Dataset{Graph: g, Profiles: sampleProfiles()} // 2 profiles, 3 nodes
	if err := SaveDataset(dir, ds, nil, Meta{}); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := LoadDataset(dir); err == nil {
		t.Fatal("mismatched profile count should fail to load")
	}
}

// TestCrawledDatasetRoundTrip saves what the §III crawl produces, with the
// platform's activity series, and loads back the same dataset: the flow
// elitecrawl writes and eliteanalyze -data reads.
func TestCrawledDatasetRoundTrip(t *testing.T) {
	p, err := twitter.NewPlatform(twitter.DefaultPlatformConfig(600))
	if err != nil {
		t.Fatal(err)
	}
	ds, err := twitter.Crawl(twitter.NewAPI(p))
	if err != nil {
		t.Fatal(err)
	}
	activity := p.ActivitySeries(p.EnglishNodes())
	dir := filepath.Join(t.TempDir(), "ds")
	if err := SaveDataset(dir, ds, activity, Meta{Tool: "test"}); err != nil {
		t.Fatal(err)
	}
	got, act, meta, err := LoadDataset(dir)
	if err != nil {
		t.Fatal(err)
	}
	if DatasetDigest(got, act) != DatasetDigest(ds, activity) {
		t.Fatal("loaded dataset differs from the crawled one")
	}
	if meta.Tool != "test" || meta.Edges != ds.Graph.NumEdges() {
		t.Fatalf("meta mismatch: %+v", meta)
	}
}
