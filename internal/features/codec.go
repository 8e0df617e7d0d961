package features

import (
	"fmt"
	"math"

	"elites/internal/cache"
)

// ShardRows is the fixed row width of one feature shard. It is part of the
// shard codec (keys embed the shard index, bodies echo the row range), so a
// change invalidates every stored shard — bump shardCodecVersion with it.
const ShardRows = 4096

// shardCodecVersion versions the per-shard binary layout below and what its
// columns mean under an unchanged options digest (2: betweenness_pct reads
// the battery's shared centrality sample).
const shardCodecVersion = 2

// ManifestCodecVersion versions the manifest layout (EncodeManifest /
// DecodeManifest); core keys the features pipeline stage with it, so bump it
// whenever the manifest or the Matrix scalars it captures change shape or
// meaning (2: with shardCodecVersion 2).
const ManifestCodecVersion = 2

// NumShards returns the number of shards covering an n-row matrix.
func NumShards(n int) int { return (n + ShardRows - 1) / ShardRows }

// shardKey builds the cache key of shard i for a (dataset, options) pair.
// The shard index lives in the stage name so each shard is its own cache
// entry with the standard key-echo + checksum protection.
func shardKey(dataset, options uint64, i int) string {
	return cache.Key{
		Stage:   fmt.Sprintf("features.shard%04d", i),
		Version: shardCodecVersion,
		Dataset: dataset,
		Options: options,
	}.String()
}

// encodeShard serializes rows [lo, lo+count) of m.
func encodeShard(m *Matrix, lo, count int) []byte {
	var e cache.Encoder
	e.Uvarint(uint64(NumFeatures))
	e.Uvarint(uint64(NumClasses))
	e.Uvarint(uint64(lo))
	e.Uvarint(uint64(count))
	e.Float64s(m.Data[lo*NumFeatures : (lo+count)*NumFeatures])
	e.Float64s(m.Probs[lo*NumClasses : (lo+count)*NumClasses])
	for i := 0; i < count; i++ {
		e.Uvarint(uint64(m.Class[lo+i]))
	}
	return e.Bytes()
}

// shardSpan returns the first row and the row count of shard i of an
// n-row matrix.
func shardSpan(i, n int) (lo, count int) {
	lo = i * ShardRows
	return lo, min(n-lo, ShardRows)
}

// window returns the Rows view of rows [lo, lo+count) of r's storage; the
// view aliases r, so decoding into it fills r in place.
func (r *Rows) window(lo, count int) Rows {
	i := lo - r.Lo
	return Rows{
		Lo:    lo,
		Data:  r.Data[i*NumFeatures : (i+count)*NumFeatures],
		Probs: r.Probs[i*NumClasses : (i+count)*NumClasses],
		Class: r.Class[i : i+count],
	}
}

// decodeShardInto parses one shard body straight into dst, the window of
// rows the body must cover: its header has to echo dst.Lo and dst.Count().
// Every violation — wrong header echo, misaligned range, short or oversized
// payload, out-of-range class, trailing bytes — returns cache.ErrCorrupt so
// callers treat the entry as a miss. It never panics and never writes
// outside dst; on error dst may be partly written.
func decodeShardInto(data []byte, dst Rows) error {
	d := cache.NewDecoder(data)
	nf := d.Uvarint()
	nc := d.Uvarint()
	lo := d.Uvarint()
	count := d.Uvarint()
	if d.Err() != nil || nf != NumFeatures || nc != NumClasses {
		return cache.ErrCorrupt
	}
	if lo != uint64(dst.Lo) || count != uint64(dst.Count()) ||
		count == 0 || count > ShardRows || lo%ShardRows != 0 {
		return cache.ErrCorrupt
	}
	d.Float64sInto(dst.Data)
	d.Float64sInto(dst.Probs)
	if d.Err() != nil {
		return cache.ErrCorrupt
	}
	for i := range dst.Class {
		c := d.Uvarint()
		if d.Err() != nil || c >= NumClasses {
			return cache.ErrCorrupt
		}
		dst.Class[i] = uint8(c)
	}
	if d.Finish() != nil {
		return cache.ErrCorrupt
	}
	return nil
}

// decodeShard parses one shard body covering rows [lo, lo+count) into a
// fresh Rows fragment, or returns cache.ErrCorrupt and no fragment.
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

// EncodeManifest appends the matrix's scalar summary to a cache encoder —
// the pipeline-stage body. Row payloads live in the per-shard entries
// (Store.Put), not here, so the manifest stays tiny and a corrupt shard
// surfaces as a stage miss via Store.Load.
func EncodeManifest(e *cache.Encoder, m *Matrix) {
	e.Uvarint(uint64(m.N))
	e.Uvarint(ShardRows)
	e.Uvarint(uint64(m.CoreK))
	e.Uvarint(uint64(m.Degeneracy))
	e.Float64(m.TailXmin)
	e.Uvarint(uint64(m.TailCount))
	for _, c := range m.ClassCounts {
		e.Uvarint(uint64(c))
	}
}

// DecodeManifest parses a manifest body into a Matrix whose row storage is
// allocated but unfilled (call Store.Load to hydrate it). wantN is the
// caller's node count; a mismatch — stale entry for a different dataset
// shape — is corruption.
func DecodeManifest(d *cache.Decoder, wantN int) (*Matrix, error) {
	n := d.Uvarint()
	rows := d.Uvarint()
	coreK := d.Uvarint()
	degen := d.Uvarint()
	xmin := d.Float64()
	tail := d.Uvarint()
	var classes [NumClasses]uint64
	for i := range classes {
		classes[i] = d.Uvarint()
	}
	if d.Err() != nil {
		return nil, d.Err()
	}
	if n != uint64(wantN) || rows != ShardRows ||
		coreK > n+1 || degen > n || tail > n {
		return nil, cache.ErrCorrupt
	}
	m := &Matrix{
		N: wantN,
		Rows: Rows{
			Data:  make([]float64, wantN*NumFeatures),
			Probs: make([]float64, wantN*NumClasses),
			Class: make([]uint8, wantN),
		},
		CoreK:      int(coreK),
		Degeneracy: int(degen),
		TailXmin:   xmin,
		TailCount:  int(tail),
	}
	var total uint64
	for i, c := range classes {
		if c > n {
			return nil, cache.ErrCorrupt
		}
		total += c
		m.ClassCounts[i] = int(c)
	}
	if total > n || (math.IsNaN(xmin) && tail != 0) {
		return nil, cache.ErrCorrupt
	}
	return m, nil
}

// Store reads and writes a matrix's row shards through a cache instance,
// keyed by the (dataset digest, feature-options digest) identity that
// core.FeatureStore states for both the pipeline and the serving layer.
type Store struct {
	// Cache is the backing cache (shared per directory).
	Cache *cache.Cache
	// Dataset is the store.DatasetDigest half of every shard key.
	Dataset uint64
	// Options is the options half of every shard key (core.FeatureStore
	// derives it).
	Options uint64
}

// Put writes every row shard of m. Errors are ignored shard-by-shard, like
// the cache's own best-effort disk writes: a failed Put costs a future
// recompute, never correctness.
func (s Store) Put(m *Matrix) {
	for i := 0; i < NumShards(m.N); i++ {
		lo, count := shardSpan(i, m.N)
		s.Cache.Put(shardKey(s.Dataset, s.Options, i), encodeShard(m, lo, count))
	}
}

// Load hydrates m's row storage, as DecodeManifest allocates it, by
// decoding every shard in place into m.Data, m.Probs and m.Class. It
// fetches all shards before writing any, so a missing entry — or a torn or
// corrupted one, which the cache's checksum turns into a miss — returns an
// error with m untouched. A shard that passes the checksum yet fails to
// decode (a codec bug, not disk damage) returns an error with m's rows
// partly written. Either way the caller drops m and the pipeline treats
// the whole stage as a miss and recomputes.
func (s Store) Load(m *Matrix) error {
	bodies := make([][]byte, NumShards(m.N))
	for i := range bodies {
		body, ok := s.Cache.Get(shardKey(s.Dataset, s.Options, i))
		if !ok {
			return fmt.Errorf("features: shard %d missing", i)
		}
		bodies[i] = body
	}
	for i, body := range bodies {
		if err := decodeShardInto(body, m.window(shardSpan(i, m.N))); err != nil {
			return fmt.Errorf("features: shard %d: %w", i, err)
		}
	}
	return nil
}

// LoadShard fetches and decodes the single shard covering rows
// [i·ShardRows, …) of an n-row matrix. ok is false on a miss or corrupt
// entry — the serving layer then falls back to running the pipeline stage.
func (s Store) LoadShard(i, n int) (*Rows, bool) {
	lo, count := shardSpan(i, n)
	if count <= 0 {
		return nil, false
	}
	body, ok := s.Cache.Get(shardKey(s.Dataset, s.Options, i))
	if !ok {
		return nil, false
	}
	r, err := decodeShard(body, lo, count)
	if err != nil {
		return nil, false
	}
	return r, true
}
