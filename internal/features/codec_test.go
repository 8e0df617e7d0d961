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

// decodeShard parses one shard body covering rows [lo, lo+count) into a
// fresh Rows fragment, or returns cache.ErrCorrupt and no fragment: the
// whole-shard decode the in-place and one-row decoders are checked against.
func decodeShard(data []byte, lo, count int) (*Rows, error) {
	r := &Rows{
		Lo:    lo,
		Data:  make([]float64, count*NumFeatures),
		Probs: make([]float64, count*NumClasses),
		Class: make([]uint8, count),
	}
	if err := decodeShardInto(data, *r); err != nil {
		return nil, err
	}
	return r, nil
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
	// never panic — and the one-row decoder must agree. (Bit flips in float
	// payloads legitimately decode; the cache layer's checksum is what
	// rejects those. The codec's own checks cover structure.)
	for i := 0; i < len(body); i++ {
		for bit := 0; bit < 8; bit++ {
			mut := append([]byte{}, body...)
			mut[i] ^= 1 << bit
			r, err := decodeShard(mut, 0, m.N)
			if err == nil && (r == nil || r.Count() != m.N) {
				t.Fatalf("flip byte %d bit %d: nil/short fragment without error", i, bit)
			}
			checkRowDecode(t, mut, 0, m.N)
		}
	}
	for name, data := range cases {
		if r, err := decodeShard(data, 0, m.N); err == nil {
			t.Fatalf("%s: decoded without error (count=%d)", name, r.Count())
		}
		checkRowDecode(t, data, 0, m.N)
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

	// LoadRow serves each row on its own, bit for bit, from every shard.
	for _, u := range []int{0, 1, ShardRows - 1, ShardRows, m.N - 1} {
		r, ok := st.LoadRow(u, m.N)
		if !ok {
			t.Fatalf("row %d missing", u)
		}
		if r.Lo != u || r.Count() != 1 || r.ClassOf(u) != m.ClassOf(u) {
			t.Fatalf("row %d: lo=%d count=%d class=%d, want class %d", u, r.Lo, r.Count(), r.ClassOf(u), m.ClassOf(u))
		}
		for j, v := range r.Row(u) {
			if math.Float64bits(v) != math.Float64bits(m.Row(u)[j]) {
				t.Fatalf("row %d feature %d differs after round-trip", u, j)
			}
		}
		for j, v := range r.ProbsRow(u) {
			if math.Float64bits(v) != math.Float64bits(m.ProbsRow(u)[j]) {
				t.Fatalf("row %d prob %d differs after round-trip", u, j)
			}
		}
	}
	for _, u := range []int{-1, m.N} {
		if _, ok := st.LoadRow(u, m.N); ok {
			t.Fatalf("out-of-range row %d served", u)
		}
	}

	// A different (dataset, options) identity misses.
	other := Store{Cache: cc, Dataset: 0xBEEF, Options: 0x07}
	if _, ok := other.LoadRow(0, m.N); ok {
		t.Fatal("row served under wrong dataset digest")
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

// BenchmarkLoadRow times what the serving layer pays per row of a per-user
// body miss over warm shards: one row of a ShardRows-wide shard of a
// 20,000-row matrix read from the cache's memory tier and decoded.
func BenchmarkLoadRow(b *testing.B) {
	m := testMatrix(b, 20000)
	st := Store{Cache: cache.NewMemory(0), Dataset: 0xD5, Options: 0x07}
	st.Put(m)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := st.LoadRow(ShardRows+i%ShardRows, m.N); !ok {
			b.Fatal("row missing")
		}
	}
}

// BenchmarkDecodeShard times decoding a whole ShardRows-wide shard of a
// 20,000-row matrix into a fresh fragment, the cost LoadRow avoids.
func BenchmarkDecodeShard(b *testing.B) {
	m := testMatrix(b, 20000)
	lo, count := shardSpan(1, m.N)
	body := encodeShard(m, lo, count)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := decodeShard(body, lo, count); err != nil {
			b.Fatal(err)
		}
	}
}
