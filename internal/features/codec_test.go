package features

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"elites/internal/cache"
	"elites/internal/graph"
	"elites/internal/twitter"
)

// testMatrix computes a small real matrix to round-trip.
func testMatrix(t testing.TB, n int) *Matrix {
	t.Helper()
	b := graph.NewBuilder(n)
	for u := 0; u < n; u++ {
		b.AddEdge(u, (u+1)%n)
		b.AddEdge(u, (u+7)%n)
		if u%3 == 0 {
			b.AddEdge((u+1)%n, u)
		}
	}
	ds := &twitter.Dataset{Graph: b.Build()}
	m, err := Compute(ds, nil, Options{BetweennessSources: 8, Seed: 9})
	if err != nil {
		t.Fatalf("compute: %v", err)
	}
	return m
}

func TestShardRoundTrip(t *testing.T) {
	m := testMatrix(t, 50)
	body := encodeShard(m, 0, m.N)
	r, err := decodeShard(body, 0, m.N)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if r.Lo != 0 || r.Count() != m.N {
		t.Fatalf("range: got lo=%d count=%d", r.Lo, r.Count())
	}
	for i := range m.Data {
		if math.Float64bits(r.Data[i]) != math.Float64bits(m.Data[i]) {
			t.Fatalf("Data[%d]: want %v got %v", i, m.Data[i], r.Data[i])
		}
	}
	for i := range m.Probs {
		if math.Float64bits(r.Probs[i]) != math.Float64bits(m.Probs[i]) {
			t.Fatalf("Probs[%d]: want %v got %v", i, m.Probs[i], r.Probs[i])
		}
	}
	for i := range m.Class {
		if r.Class[i] != m.Class[i] {
			t.Fatalf("Class[%d]: want %d got %d", i, m.Class[i], r.Class[i])
		}
	}
}

func TestShardDecodeRejectsCorruption(t *testing.T) {
	m := testMatrix(t, 40)
	body := encodeShard(m, 0, m.N)

	cases := map[string][]byte{
		"empty":     {},
		"truncated": body[:len(body)/2],
		"trailing":  append(append([]byte{}, body...), 0xAB),
	}
	// Range mismatches against the caller's expectation.
	if _, err := decodeShard(body, ShardRows, m.N); err == nil {
		t.Fatal("wrong lo accepted")
	}
	if _, err := decodeShard(body, 0, m.N-1); err == nil {
		t.Fatal("wrong count accepted")
	}
	// Every single-bit flip must fail or decode to a consistent fragment —
	// never panic. (Bit flips in float payloads legitimately decode; the
	// cache layer's checksum is what rejects those. The codec's own checks
	// cover structure.)
	for i := 0; i < len(body); i++ {
		for bit := 0; bit < 8; bit++ {
			mut := append([]byte{}, body...)
			mut[i] ^= 1 << bit
			r, err := decodeShard(mut, 0, m.N)
			if err == nil && (r == nil || r.Count() != m.N) {
				t.Fatalf("flip byte %d bit %d: nil/short fragment without error", i, bit)
			}
		}
	}
	for name, data := range cases {
		if r, err := decodeShard(data, 0, m.N); err == nil {
			t.Fatalf("%s: decoded without error (count=%d)", name, r.Count())
		}
	}
}

func TestManifestRoundTrip(t *testing.T) {
	m := testMatrix(t, 30)
	var e cache.Encoder
	EncodeManifest(&e, m)
	d := cache.NewDecoder(e.Bytes())
	got, err := DecodeManifest(d, m.N)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if err := d.Finish(); err != nil {
		t.Fatalf("finish: %v", err)
	}
	if got.N != m.N || got.CoreK != m.CoreK || got.Degeneracy != m.Degeneracy ||
		got.TailCount != m.TailCount || got.ClassCounts != m.ClassCounts ||
		math.Float64bits(got.TailXmin) != math.Float64bits(m.TailXmin) {
		t.Fatalf("manifest mismatch: want %+v scalars, got %+v", m, got)
	}
	// Row storage is allocated but unfilled.
	if len(got.Data) != m.N*NumFeatures || len(got.Probs) != m.N*NumClasses || len(got.Class) != m.N {
		t.Fatalf("row storage not allocated: %d/%d/%d", len(got.Data), len(got.Probs), len(got.Class))
	}

	// A manifest for a different node count is a stale entry, not a panic.
	d = cache.NewDecoder(e.Bytes())
	if _, err := DecodeManifest(d, m.N+1); err == nil {
		t.Fatal("wrong wantN accepted")
	}
}

func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	cc, err := cache.New(dir)
	if err != nil {
		t.Fatalf("cache: %v", err)
	}
	defer cache.Release(dir)

	m := testMatrix(t, ShardRows+123) // spans two shards, second partial
	st := Store{Cache: cc, Dataset: 0xD5, Options: 0x07}
	st.Put(m)

	hydrated := &Matrix{
		N:        m.N,
		CoreK:    m.CoreK,
		TailXmin: m.TailXmin,
		Rows: Rows{
			Data:  make([]float64, m.N*NumFeatures),
			Probs: make([]float64, m.N*NumClasses),
			Class: make([]uint8, m.N),
		},
	}
	if err := st.Load(hydrated); err != nil {
		t.Fatalf("load: %v", err)
	}
	for i := range m.Data {
		if math.Float64bits(hydrated.Data[i]) != math.Float64bits(m.Data[i]) {
			t.Fatalf("Data[%d] differs after round-trip", i)
		}
	}

	// LoadShard serves each shard independently.
	for i := 0; i < NumShards(m.N); i++ {
		r, ok := st.LoadShard(i, m.N)
		if !ok {
			t.Fatalf("shard %d missing", i)
		}
		if r.Lo != i*ShardRows {
			t.Fatalf("shard %d: lo=%d", i, r.Lo)
		}
	}
	if _, ok := st.LoadShard(NumShards(m.N), m.N); ok {
		t.Fatal("out-of-range shard index served")
	}

	// A different (dataset, options) identity misses.
	other := Store{Cache: cc, Dataset: 0xBEEF, Options: 0x07}
	if _, ok := other.LoadShard(0, m.N); ok {
		t.Fatal("shard served under wrong dataset digest")
	}
}

func TestStoreLoadCorruptShardIsMissNotPartial(t *testing.T) {
	dir := t.TempDir()
	cc, err := cache.New(dir)
	if err != nil {
		t.Fatalf("cache: %v", err)
	}
	defer cache.Release(dir)

	m := testMatrix(t, ShardRows+50)
	st := Store{Cache: cc, Dataset: 1, Options: 2}
	st.Put(m)

	// Corrupt shard 1's on-disk entry and drop the memory tier so Get hits
	// disk. The cache's checksum turns the flip into a miss.
	var corrupted bool
	err = filepath.WalkDir(dir, func(path string, de os.DirEntry, werr error) error {
		if werr != nil || de.IsDir() {
			return werr
		}
		data, rerr := os.ReadFile(path)
		if rerr != nil {
			return rerr
		}
		if strings.Contains(string(data), "features.shard0001") {
			data[len(data)-3] ^= 0xFF
			corrupted = true
			return os.WriteFile(path, data, 0o644)
		}
		return nil
	})
	if err != nil || !corrupted {
		t.Fatalf("corrupting shard: err=%v corrupted=%v", err, corrupted)
	}
	cc.DropMemory()

	hydrated := &Matrix{
		N: m.N,
		Rows: Rows{
			Data:  make([]float64, m.N*NumFeatures),
			Probs: make([]float64, m.N*NumClasses),
			Class: make([]uint8, m.N),
		},
	}
	if err := st.Load(hydrated); err == nil {
		t.Fatal("corrupt shard hydrated without error")
	}
	// The failed load must not have touched the destination rows.
	for i, v := range hydrated.Data {
		if v != 0 {
			t.Fatalf("partial hydration: Data[%d]=%v after failed Load", i, v)
		}
	}
}
