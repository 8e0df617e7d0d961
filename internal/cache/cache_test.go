package cache

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// newTestCache opens the (shared, per-directory) instance for dir; tests
// use unique t.TempDir() roots, so each starts with a cold memory tier, and
// exercise the disk tier via readFile or cache.Release.
func newTestCache(dir string) *Cache {
	c, err := New(dir)
	if err != nil {
		panic(err)
	}
	return c
}

func TestKeyString(t *testing.T) {
	k := Key{Stage: "distances", Version: 2, Dataset: 0xdead, Options: 0xbeef}
	want := "distances-v2-000000000000dead-000000000000beef"
	if got := k.String(); got != want {
		t.Fatalf("Key.String() = %q, want %q", got, want)
	}
}

func TestRoundTripMemoryAndDisk(t *testing.T) {
	dir := t.TempDir()
	c := newTestCache(dir)
	key := Key{Stage: "s", Version: 1, Dataset: 1, Options: 2}.String()
	payload := []byte("hello cached world")
	if _, ok := c.Get(key); ok {
		t.Fatal("unexpected hit on empty cache")
	}
	c.Put(key, payload)
	got, ok := c.Get(key)
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("memory Get = %q, %v", got, ok)
	}
}

// TestNewMemory: a memory-only cache serves what it holds, misses on what
// it evicted (there is no disk to fall back on) and is private to its
// caller.
func TestNewMemory(t *testing.T) {
	c := NewMemory(64)
	big := bytes.Repeat([]byte{7}, 30)
	c.Put("a", big)
	c.Put("b", big)
	c.Put("c", big) // evicts a
	if got, ok := c.Get("c"); !ok || !bytes.Equal(got, big) {
		t.Fatalf("Get(c) = %v, %v", got, ok)
	}
	if _, ok := c.Get("a"); ok {
		t.Fatal("evicted entry of a memory-only cache must miss")
	}
	if s := c.Stats(); s.Evictions != 1 || s.MaxBytes != 64 || s.IOErrors != 0 {
		t.Fatalf("Stats = %+v, want one eviction under the 64-byte cap", s)
	}
	if c.Dir() != "" || NewMemory(0) == c {
		t.Fatal("memory-only caches must have no dir and not be shared")
	}
}

func TestNewSharesInstancePerDir(t *testing.T) {
	dir := t.TempDir()
	a := newTestCache(dir)
	b := newTestCache(dir)
	if a != b {
		t.Fatal("New returned distinct instances for one directory")
	}
	if _, err := New(""); err == nil {
		t.Fatal("New(\"\") should fail")
	}
}

func TestDiskSurvivesColdMemory(t *testing.T) {
	dir := t.TempDir()
	c := newTestCache(dir)
	key := Key{Stage: "deg", Version: 1, Dataset: 42, Options: 7}.String()
	payload := []byte{1, 2, 3, 4, 5}
	c.Put(key, payload)

	got, res := c.readFile(key)
	if res != diskOK || !bytes.Equal(got, payload) {
		t.Fatalf("readFile = %v, %v; want payload back", got, res)
	}
}

func TestCorruptedEntriesAreMisses(t *testing.T) {
	dir := t.TempDir()
	c := newTestCache(dir)
	key := Key{Stage: "x", Version: 1, Dataset: 3, Options: 4}.String()
	c.Put(key, []byte("payload-bytes-here"))
	path := c.path(key)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	corruptions := map[string]func() []byte{
		"truncated": func() []byte { return raw[:len(raw)/2] },
		"bad magic": func() []byte {
			b := append([]byte(nil), raw...)
			b[0] ^= 0xff
			return b
		},
		"flipped payload bit": func() []byte {
			b := append([]byte(nil), raw...)
			b[len(b)-12] ^= 0x01 // inside payload, before the checksum
			return b
		},
		"empty file": func() []byte { return nil },
	}
	for name, mk := range corruptions {
		if err := os.WriteFile(path, mk(), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, res := c.readFile(key); res == diskOK {
			t.Errorf("%s: corrupted entry served as a hit", name)
		}
	}

	// A wrong key echo (file moved under another name) must also miss.
	other := Key{Stage: "y", Version: 1, Dataset: 3, Options: 4}.String()
	if err := os.WriteFile(c.path(other), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, res := c.readFile(other); res == diskOK {
		t.Error("entry with mismatched key echo served as a hit")
	}
}

// TestChecksumXXH64Vectors pins the payload checksum to the published
// XXH64 (seed 0) vectors; the last input is longer than one 32-byte stripe.
func TestChecksumXXH64Vectors(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want uint64
	}{
		{"", 0xef46db3751d8e999},
		{"abc", 0x44bc2cf5ad770999},
		{"Nobody inspects the spammish repetition", 0xfbcea83c8a378bf1},
	} {
		if got := checksum([]byte(tc.in)); got != tc.want {
			t.Errorf("checksum(%q) = %016x, want %016x", tc.in, got, tc.want)
		}
	}
}

// TestOldVersionFrameIsCleanMiss: a format-version-1 frame (FNV-64a
// trailer) left by an older build reads as a clean miss — no I/O error, no
// breaker trip — and the next Put replaces it with a frame that hits.
func TestOldVersionFrameIsCleanMiss(t *testing.T) {
	dir := t.TempDir()
	c := newTestCache(dir)
	key := Key{Stage: "deg", Version: 1, Dataset: 42, Options: 7}.String()
	payload := []byte("payload-bytes-here")

	old := []byte(diskMagic)
	old = binary.AppendUvarint(old, 1)
	old = binary.AppendUvarint(old, uint64(len(key)))
	old = append(old, key...)
	old = binary.AppendUvarint(old, uint64(len(payload)))
	old = append(old, payload...)
	h := fnv.New64a()
	h.Write(payload)
	old = binary.LittleEndian.AppendUint64(old, h.Sum64())
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(c.path(key), old, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, ok := c.Get(key); ok {
		t.Fatal("version-1 frame served as a hit")
	}
	if st := c.Stats(); st.Misses != 1 || st.IOErrors != 0 || st.BreakerOpen || st.BreakerTrips != 0 {
		t.Fatalf("version-1 frame must be a clean miss, stats = %+v", st)
	}
	c.Put(key, payload)
	c.DropMemory()
	got, ok := c.Get(key)
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("Get after Put = %q, %v; want the payload from disk", got, ok)
	}
	if st := c.Stats(); st.Hits != 1 || st.IOErrors != 0 {
		t.Fatalf("stats after rewrite = %+v", st)
	}
}

func TestLRUEviction(t *testing.T) {
	dir := t.TempDir()
	c := newTestCache(dir)
	c.SetMaxBytes(64) // tiny cap to force eviction
	big := bytes.Repeat([]byte{7}, 30)
	c.Put("a", big)
	c.Put("b", big)
	c.Get("a") // refresh a
	c.Put("c", big)
	c.mu.Lock()
	_, aIn := c.mem["a"]
	_, bIn := c.mem["b"]
	_, cIn := c.mem["c"]
	c.mu.Unlock()
	if !aIn || bIn || !cIn {
		t.Fatalf("LRU state a=%v b=%v c=%v, want a and c resident, b evicted", aIn, bIn, cIn)
	}
	// The evicted entry is still a hit via disk.
	if _, ok := c.Get("b"); !ok {
		t.Fatal("evicted entry lost from disk tier")
	}
	if s := c.Stats(); s.Evictions == 0 || s.MaxBytes != 64 {
		t.Fatalf("Stats = %+v, want evictions counted under the 64-byte cap", s)
	}
}

// TestSetMaxBytesShrinkEvictsImmediately: resizing below the resident set
// evicts LRU entries at once rather than waiting for the next Put, and a
// non-positive cap restores the default.
func TestSetMaxBytesShrinkEvictsImmediately(t *testing.T) {
	c := newTestCache(t.TempDir())
	for i := 0; i < 4; i++ {
		c.Put(fmt.Sprintf("k%d", i), bytes.Repeat([]byte{1}, 100))
	}
	c.SetMaxBytes(150)
	s := c.Stats()
	if s.MemBytes > 150 || s.MemEntries != 1 || s.Evictions != 3 {
		t.Fatalf("after shrink: %+v", s)
	}
	c.SetMaxBytes(0)
	if s := c.Stats(); s.MaxBytes != DefaultMemBytes {
		t.Fatalf("cap after reset = %d, want default", s.MaxBytes)
	}
}

// TestConcurrentCachersSharedDir hammers one cache directory from two
// distinct Cacher instances (forced apart via Release, the way two server
// workers on separate registries would share a dir) plus the disk tier,
// under the race detector: every write must stay readable and untorn from
// both instances.
func TestConcurrentCachersSharedDir(t *testing.T) {
	dir := t.TempDir()
	a := newTestCache(dir)
	Release(dir)
	b := newTestCache(dir)
	defer Release(dir)
	if a == b {
		t.Fatal("want two distinct instances over one directory")
	}
	b.SetMaxBytes(1 << 10) // small cap so b also exercises eviction

	payload := func(k int) []byte {
		return bytes.Repeat([]byte{byte(k)}, 64+k)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		w := w
		c := a
		if w%2 == 1 {
			c = b
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 25; j++ {
				k := (w + j) % 6
				key := fmt.Sprintf("shared-%d", k)
				c.Put(key, payload(k))
				if got, ok := c.Get(key); ok && !bytes.Equal(got, payload(k)) {
					t.Errorf("torn read on %s", key)
					return
				}
			}
		}()
	}
	wg.Wait()
	// Whatever instance reads last, every key must be served (memory or
	// disk) with the exact bytes written.
	for k := 0; k < 6; k++ {
		key := fmt.Sprintf("shared-%d", k)
		for _, c := range []*Cache{a, b} {
			got, ok := c.Get(key)
			if !ok || !bytes.Equal(got, payload(k)) {
				t.Fatalf("key %s lost or torn (ok=%v)", key, ok)
			}
		}
	}
}

func TestConcurrentSameKey(t *testing.T) {
	dir := t.TempDir()
	c := newTestCache(dir)
	key := Key{Stage: "conc", Version: 1, Dataset: 9, Options: 9}.String()
	payload := bytes.Repeat([]byte{0xAB}, 512)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				c.Put(key, payload)
				if got, ok := c.Get(key); ok && !bytes.Equal(got, payload) {
					t.Error("torn read")
					return
				}
			}
		}()
	}
	wg.Wait()
	got, ok := c.Get(key)
	if !ok || !bytes.Equal(got, payload) {
		t.Fatal("payload lost after concurrent writes")
	}
	if _, err := os.Stat(c.path(key)); err != nil {
		t.Fatalf("disk entry missing: %v", err)
	}
	// No stray temp files left behind.
	matches, _ := filepath.Glob(filepath.Join(dir, "*.tmp*"))
	if len(matches) != 0 {
		t.Fatalf("leftover temp files: %v", matches)
	}
}

func TestPutOnUnwritableDirIsSilent(t *testing.T) {
	c := newTestCache(filepath.Join(t.TempDir(), "sub"))
	// Make the parent read-only so MkdirAll fails.
	if err := os.Chmod(filepath.Dir(c.dir), 0o555); err != nil {
		t.Skip("cannot chmod")
	}
	defer os.Chmod(filepath.Dir(c.dir), 0o755)
	c.Put("k", []byte("v")) // must not panic or error
	if _, ok := c.Get("k"); !ok {
		t.Fatal("memory tier should still serve the entry")
	}
}

func TestStats(t *testing.T) {
	c := newTestCache(t.TempDir())
	c.Get("missing")
	c.Put("k", []byte("v"))
	c.Get("k")
	s := c.Stats()
	if s.Misses != 1 || s.Hits != 1 || s.MemEntries != 1 || s.MemBytes != 1 {
		t.Fatalf("Stats = %+v", s)
	}
}

func TestHasher(t *testing.T) {
	if HashWords(1, 2) == HashWords(2, 1) {
		t.Fatal("word order should matter")
	}
	h1 := NewHasher()
	h1.String("ab")
	h1.String("c")
	h2 := NewHasher()
	h2.String("a")
	h2.String("bc")
	if h1.Sum() == h2.Sum() {
		t.Fatal("length prefixing should separate string boundaries")
	}
}

func TestCodecRoundTrip(t *testing.T) {
	var e Encoder
	e.Uvarint(300)
	e.Varint(-7)
	e.Int(123456)
	e.Bool(true)
	e.Bool(false)
	e.Float64(math.Pi)
	e.Float64(math.NaN())
	e.String("héllo")
	e.Float64s([]float64{1.5, -2.5, math.Inf(1)})
	e.Float64s(nil)

	d := NewDecoder(e.Bytes())
	if v := d.Uvarint(); v != 300 {
		t.Fatalf("Uvarint = %d", v)
	}
	if v := d.Varint(); v != -7 {
		t.Fatalf("Varint = %d", v)
	}
	if v := d.Int(); v != 123456 {
		t.Fatalf("Int = %d", v)
	}
	if !d.Bool() || d.Bool() {
		t.Fatal("Bool mismatch")
	}
	if v := d.Float64(); v != math.Pi {
		t.Fatalf("Float64 = %v", v)
	}
	if v := d.Float64(); !math.IsNaN(v) {
		t.Fatalf("NaN lost: %v", v)
	}
	if s := d.String(); s != "héllo" {
		t.Fatalf("String = %q", s)
	}
	xs := d.Float64s()
	if len(xs) != 3 || xs[0] != 1.5 || xs[1] != -2.5 || !math.IsInf(xs[2], 1) {
		t.Fatalf("Float64s = %v", xs)
	}
	if xs := d.Float64s(); xs != nil {
		t.Fatalf("empty Float64s = %v", xs)
	}
	if err := d.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
}

func TestDecoderStickyErrors(t *testing.T) {
	// Truncations at every prefix of a valid payload must all surface as
	// ErrCorrupt (or decode cleanly for the full length), never panic.
	var e Encoder
	e.Uvarint(1 << 40)
	e.Float64(2.5)
	e.String("abcdef")
	e.Float64s([]float64{1, 2, 3})
	full := e.Bytes()
	for cut := 0; cut < len(full); cut++ {
		d := NewDecoder(full[:cut])
		d.Uvarint()
		d.Float64()
		_ = d.String()
		d.Float64s()
		if err := d.Finish(); err == nil {
			t.Fatalf("truncation at %d of %d decoded cleanly", cut, len(full))
		}
	}
	// A length prefix far beyond the buffer must fail, not allocate.
	var e2 Encoder
	e2.Uvarint(1 << 60) // claims 2^60 floats follow
	d := NewDecoder(e2.Bytes())
	if xs := d.Float64s(); xs != nil || d.Err() == nil {
		t.Fatal("oversized length prefix accepted")
	}
	// Trailing garbage is corruption.
	d2 := NewDecoder(append(full, 0x00))
	d2.Uvarint()
	d2.Float64()
	_ = d2.String()
	d2.Float64s()
	if err := d2.Finish(); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

// TestDecoderFloat64sInto: the in-place read returns the bits Float64s
// returns, and a length that disagrees with dst or a truncated run is
// corruption that leaves dst untouched.
func TestDecoderFloat64sInto(t *testing.T) {
	var e Encoder
	e.Float64s([]float64{1.5, math.NaN(), math.Inf(-1)})
	full := e.Bytes()

	dst := make([]float64, 3)
	d := NewDecoder(full)
	d.Float64sInto(dst)
	if err := d.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
	want := NewDecoder(full).Float64s()
	for i := range want {
		if math.Float64bits(dst[i]) != math.Float64bits(want[i]) {
			t.Fatalf("dst[%d] = %v, Float64s gave %v", i, dst[i], want[i])
		}
	}

	for _, tc := range []struct {
		name string
		data []byte
		n    int
	}{
		{"short dst", full, 2},
		{"long dst", full, 4},
		{"truncated run", full[:len(full)-1], 3},
	} {
		dst := []float64{7, 7, 7, 7}[:tc.n]
		d := NewDecoder(tc.data)
		d.Float64sInto(dst)
		if d.Err() == nil {
			t.Fatalf("%s: decoded cleanly", tc.name)
		}
		for i, v := range dst {
			if v != 7 {
				t.Fatalf("%s: dst[%d] = %v written on a failed read", tc.name, i, v)
			}
		}
	}
}

func TestGetMissesOnAbsentDir(t *testing.T) {
	c := newTestCache(filepath.Join(t.TempDir(), "never-created"))
	for i := 0; i < 3; i++ {
		if _, ok := c.Get(fmt.Sprintf("k%d", i)); ok {
			t.Fatal("hit on nonexistent directory")
		}
	}
}

func TestRelease(t *testing.T) {
	dir := t.TempDir()
	a := newTestCache(dir)
	a.Put("k", []byte("v"))
	Release(dir)
	b := newTestCache(dir)
	if a == b {
		t.Fatal("Release did not evict the registry entry")
	}
	// The fresh instance starts with a cold memory tier but still serves
	// the entry from disk.
	b.mu.Lock()
	resident := len(b.mem)
	b.mu.Unlock()
	if resident != 0 {
		t.Fatalf("fresh instance has %d resident entries", resident)
	}
	if got, ok := b.Get("k"); !ok || string(got) != "v" {
		t.Fatalf("disk entry lost across Release: %q %v", got, ok)
	}
	Release(filepath.Join(dir, "never-opened")) // no-op must not panic
}
