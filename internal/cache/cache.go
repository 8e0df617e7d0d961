// Package cache is a content-addressed, two-tier result cache for pipeline
// stage outputs. Keys identify a result by what produced it — the dataset
// digest, a digest of the options that affect the stage, the stage name and
// a stage codec version — so a hit is valid by construction and there is no
// invalidation protocol: change anything that matters and the key changes.
//
// The two tiers are an in-process LRU of encoded payloads (shared between
// every Cache opened on the same directory, so repeated runs in one process
// skip the disk entirely) and an on-disk store of one self-describing binary
// file per key:
//
//	<dir>/<stage>-v<version>-<dataset digest>-<options digest>.bin
//	  magic "ELCA" · format version · key echo · payload · XXH64 checksum
//
// FNV-64a (Hasher) derives keys only; payloads carry an XXH64 checksum,
// which covers a multi-megabyte primed directory in a fraction of the time
// a byte-at-a-time fold takes. Format version 2 introduced XXH64: an entry
// written under version 1 fails the version check and reads as a clean
// miss, so it is recomputed and rewritten once.
//
// Reads are paranoid — a missing file, bad magic, short payload, key
// mismatch or checksum failure is reported as a miss, never an error, so a
// corrupted cache silently degrades to recomputation. Writes go through a
// temp file and an atomic rename, so concurrent writers of the same key
// (identical content by construction) cannot tear each other's files.
//
// The same silent-miss contract covers I/O failure, not just corruption: a
// disk that errors on read or write (EACCES, ENOSPC, short writes, rename
// failure) costs a recomputation, never a report. Consecutive I/O errors
// trip a per-cache circuit breaker that stops touching the failing disk —
// the memory tier keeps serving — and periodically lets one half-open probe
// through; a probe that succeeds closes the breaker. Stats surfaces the
// error count and breaker state.
package cache

import (
	"container/list"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/bits"
	"os"
	"path/filepath"
	"sync"

	"elites/internal/faults"
)

// Key names one cached stage result. All four fields participate in the
// content address: Dataset is the dataset digest, Options a digest of every
// option that changes the stage's output (never of options that provably do
// not, like worker budgets), and Version the stage's codec/algorithm
// version — bump it when the encoding or the computation changes.
type Key struct {
	Stage   string
	Version int
	Dataset uint64
	Options uint64
}

// String renders the key in its canonical (and filesystem-safe) form.
func (k Key) String() string {
	return fmt.Sprintf("%s-v%d-%016x-%016x", k.Stage, k.Version, k.Dataset, k.Options)
}

// FNV-64a, the digest used for key derivation (payload checksums are XXH64).
const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

// Hasher accumulates a 64-bit content digest over typed values: FNV-64a
// byte folds for raw bytes and strings, one SplitMix64-style avalanche per
// 64-bit word (Word/Float64) so bulk numeric data hashes at word speed.
// The zero value is not ready; use NewHasher.
type Hasher struct{ h uint64 }

// NewHasher returns a ready Hasher.
func NewHasher() *Hasher { return &Hasher{h: fnvOffset} }

// Byte folds one byte into the digest.
func (h *Hasher) Byte(b byte) {
	h.h = (h.h ^ uint64(b)) * fnvPrime
}

// Word folds a 64-bit value into the digest with one SplitMix64-style
// avalanche per word (three multiply/shift rounds) rather than eight
// dependent byte folds — this is what keeps hashing a paper-scale CSR array
// (79M edges) in the hundreds of milliseconds instead of seconds.
func (h *Hasher) Word(v uint64) {
	x := h.h ^ v
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	h.h = x ^ (x >> 31)
}

// Float64 folds the raw IEEE-754 bits into the digest.
func (h *Hasher) Float64(v float64) { h.Word(math.Float64bits(v)) }

// String folds a length-prefixed string into the digest (length-prefixing
// keeps "ab"+"c" distinct from "a"+"bc").
func (h *Hasher) String(s string) {
	h.Word(uint64(len(s)))
	for i := 0; i < len(s); i++ {
		h.Byte(s[i])
	}
}

// Bytes folds a length-prefixed byte slice into the digest.
func (h *Hasher) Bytes(b []byte) {
	h.Word(uint64(len(b)))
	for _, c := range b {
		h.Byte(c)
	}
}

// Sum returns the digest of everything folded so far.
func (h *Hasher) Sum() uint64 { return h.h }

// HashWords digests a sequence of 64-bit words — the convenience form for
// option digests.
func HashWords(words ...uint64) uint64 {
	h := NewHasher()
	for _, w := range words {
		h.Word(w)
	}
	return h.Sum()
}

// XXH64 primes, from the published specification. Variables, not
// constants, because the lane set-up wraps around 2^64.
var (
	xxPrime1 uint64 = 11400714785074694791
	xxPrime2 uint64 = 14029467366897019727
	xxPrime3 uint64 = 1609587929392839161
	xxPrime4 uint64 = 9650029242287828579
	xxPrime5 uint64 = 2870177450012600261
)

// checksum is the payload XXH64 (seed 0) used by the disk format (raw
// bytes, no length prefix — the payload length is framed separately). Four
// independent lanes consume 32-byte stripes a word at a time.
func checksum(b []byte) uint64 {
	n := len(b)
	var h uint64
	if n >= 32 {
		v1, v2, v3, v4 := xxPrime1+xxPrime2, xxPrime2, uint64(0), -xxPrime1
		for ; len(b) >= 32; b = b[32:] {
			v1 = xxRound(v1, binary.LittleEndian.Uint64(b[0:8]))
			v2 = xxRound(v2, binary.LittleEndian.Uint64(b[8:16]))
			v3 = xxRound(v3, binary.LittleEndian.Uint64(b[16:24]))
			v4 = xxRound(v4, binary.LittleEndian.Uint64(b[24:32]))
		}
		h = bits.RotateLeft64(v1, 1) + bits.RotateLeft64(v2, 7) +
			bits.RotateLeft64(v3, 12) + bits.RotateLeft64(v4, 18)
		h = xxMerge(h, v1)
		h = xxMerge(h, v2)
		h = xxMerge(h, v3)
		h = xxMerge(h, v4)
	} else {
		h = xxPrime5
	}
	h += uint64(n)
	for ; len(b) >= 8; b = b[8:] {
		h ^= xxRound(0, binary.LittleEndian.Uint64(b))
		h = bits.RotateLeft64(h, 27)*xxPrime1 + xxPrime4
	}
	if len(b) >= 4 {
		h ^= uint64(binary.LittleEndian.Uint32(b)) * xxPrime1
		h = bits.RotateLeft64(h, 23)*xxPrime2 + xxPrime3
		b = b[4:]
	}
	for _, c := range b {
		h ^= uint64(c) * xxPrime5
		h = bits.RotateLeft64(h, 11) * xxPrime1
	}
	h ^= h >> 33
	h *= xxPrime2
	h ^= h >> 29
	h *= xxPrime3
	return h ^ h>>32
}

func xxRound(acc, input uint64) uint64 {
	return bits.RotateLeft64(acc+input*xxPrime2, 31) * xxPrime1
}

func xxMerge(acc, v uint64) uint64 {
	return (acc^xxRound(0, v))*xxPrime1 + xxPrime4
}

// Stats counts cache traffic since the process started.
type Stats struct {
	Hits         uint64 // memory or disk hits
	Misses       uint64
	Evictions    uint64 // memory-tier entries dropped to stay under the cap
	MemEntries   int
	MemBytes     int64
	MaxBytes     int64  // current memory-tier capacity
	IOErrors     uint64 // disk operations that failed with a real I/O error
	BreakerTrips uint64 // times the disk circuit breaker opened
	BreakerOpen  bool   // disk circuit breaker currently open
}

// DefaultMemBytes caps the in-memory tier per cache instance.
const DefaultMemBytes = 256 << 20

// Cache is one two-tier result cache. Obtain instances with New; all
// methods are safe for concurrent use.
type Cache struct {
	dir string

	mu        sync.Mutex
	mem       map[string]*list.Element
	lru       *list.List // front = most recent; values are *entry
	memBytes  int64
	maxBytes  int64
	hits      uint64
	misses    uint64
	evictions uint64

	fs     diskFS                // disk tier backend; osFS outside tests
	faults func(op string) error // optional injection hook (SetFaults)

	// br skips the disk while consecutive I/O errors hold it open, bar its
	// periodic probe; any disk success, even a clean miss, closes it.
	br       faults.Breaker
	ioErrors uint64 // lifetime I/O error count (Stats.IOErrors)
}

// diskResult classifies one disk-tier operation for the breaker.
type diskResult int

const (
	diskOK      diskResult = iota // operation succeeded
	diskMiss                      // clean miss (absent or corrupt entry) — the disk itself is fine
	diskIOError                   // the disk failed (read/write/rename error, ENOSPC, injected fault)
)

// diskFS is the filesystem surface the disk tier uses; tests substitute a
// faulting implementation to exercise every I/O error path.
type diskFS interface {
	ReadFile(name string) ([]byte, error)
	MkdirAll(dir string) error
	CreateTemp(dir, pattern string) (diskFile, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
}

// diskFile is the subset of *os.File the writer needs.
type diskFile interface {
	io.Writer
	Close() error
	Name() string
}

// osFS is the production diskFS.
type osFS struct{}

func (osFS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }
func (osFS) MkdirAll(dir string) error            { return os.MkdirAll(dir, 0o755) }
func (osFS) Rename(o, n string) error             { return os.Rename(o, n) }
func (osFS) Remove(name string) error             { return os.Remove(name) }
func (osFS) CreateTemp(dir, pattern string) (diskFile, error) {
	f, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return f, nil
}

type entry struct {
	key  string
	data []byte
}

// registry shares one instance per directory so the memory tier survives
// across Characterizer runs within a process.
var (
	regMu    sync.Mutex
	registry = map[string]*Cache{}
)

// New returns the cache rooted at dir, creating the directory lazily on the
// first Put. Calls with the same directory share one instance (and thus one
// memory tier); dir must be non-empty.
func New(dir string) (*Cache, error) {
	if dir == "" {
		return nil, fmt.Errorf("cache: empty directory")
	}
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	regMu.Lock()
	defer regMu.Unlock()
	if c, ok := registry[abs]; ok {
		return c, nil
	}
	c := &Cache{
		dir:      abs,
		mem:      map[string]*list.Element{},
		lru:      list.New(),
		maxBytes: DefaultMemBytes,
		fs:       osFS{},
	}
	registry[abs] = c
	return c, nil
}

// SetFaults installs (or, with nil, removes) a fault-injection hook consulted
// before every disk operation ("read", "write", "store"). A non-nil error
// from the hook is treated exactly like a real I/O failure at that point —
// this is how the chaos suite drives the breaker without a broken disk.
// Because New shares one instance per directory, the hook applies to every
// holder of that directory's cache.
func (c *Cache) SetFaults(fn func(op string) error) {
	c.mu.Lock()
	c.faults = fn
	c.mu.Unlock()
}

// Release drops the instance registered for dir: its memory tier is freed
// and the next New(dir) starts cold (the disk tier is untouched). Callers
// that open caches on many short-lived directories — benchmarks, batch
// drivers — use this to keep the per-directory registry from pinning every
// instance's LRU for the process lifetime. Releasing a directory that was
// never opened is a no-op.
func Release(dir string) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return
	}
	regMu.Lock()
	c, ok := registry[abs]
	delete(registry, abs)
	regMu.Unlock()
	if ok {
		c.DropMemory()
	}
}

// Dir returns the cache's on-disk root.
func (c *Cache) Dir() string { return c.dir }

// SetMaxBytes resizes the in-memory tier's capacity (n <= 0 restores
// DefaultMemBytes), evicting least-recently-used entries immediately if the
// resident set exceeds the new cap. Because New shares one instance per
// directory, the new capacity applies to every holder of that directory's
// cache — last caller wins, which is the sensible semantic for a process
// hosting several Characterizers over one cache.
func (c *Cache) SetMaxBytes(n int64) {
	if n <= 0 {
		n = DefaultMemBytes
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.maxBytes = n
	c.evictOverCap()
}

// Get returns the payload stored under key, consulting the memory tier
// first, then disk (promoting disk hits into memory). The returned slice
// must not be modified. ok is false on any miss, including a corrupted or
// truncated disk entry and any disk I/O failure.
func (c *Cache) Get(key string) (data []byte, ok bool) {
	c.mu.Lock()
	if el, hit := c.mem[key]; hit {
		c.lru.MoveToFront(el)
		c.hits++
		data = el.Value.(*entry).data
		c.mu.Unlock()
		return data, true
	}
	allowed := c.br.Allow()
	c.mu.Unlock()

	res := diskMiss
	if allowed {
		data, res = c.readFile(key)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if allowed {
		c.noteDiskLocked(res)
	}
	if res != diskOK {
		c.misses++
		return nil, false
	}
	c.hits++
	c.insert(key, data)
	return data, true
}

// Put stores payload under key in both tiers. Failures to persist (read-only
// filesystem, full disk) are deliberately swallowed: the cache is an
// accelerator, never a correctness dependency. They do feed the circuit
// breaker, so a persistently failing disk stops being touched at all.
func (c *Cache) Put(key string, data []byte) {
	c.mu.Lock()
	c.insert(key, data)
	allowed := c.br.Allow()
	c.mu.Unlock()
	if !allowed {
		return
	}
	res := c.writeFile(key, data)
	c.mu.Lock()
	c.noteDiskLocked(res)
	c.mu.Unlock()
}

// noteDiskLocked feeds one attempted disk operation's outcome to the
// breaker. Callers hold mu.
func (c *Cache) noteDiskLocked(res diskResult) {
	switch res {
	case diskOK, diskMiss:
		c.br.Success()
	case diskIOError:
		c.ioErrors++
		c.br.Failure()
	}
}

// insert adds or refreshes a memory entry and evicts LRU entries over the
// byte cap. Callers hold mu.
func (c *Cache) insert(key string, data []byte) {
	if el, ok := c.mem[key]; ok {
		c.memBytes += int64(len(data)) - int64(len(el.Value.(*entry).data))
		el.Value.(*entry).data = data
		c.lru.MoveToFront(el)
	} else {
		c.mem[key] = c.lru.PushFront(&entry{key: key, data: data})
		c.memBytes += int64(len(data))
	}
	c.evictOverCap()
}

// evictOverCap drops LRU entries until the resident set fits the cap (the
// most recent entry always stays, so a single oversized payload still
// serves). Callers hold mu.
func (c *Cache) evictOverCap() {
	for c.memBytes > c.maxBytes && c.lru.Len() > 1 {
		el := c.lru.Back()
		e := el.Value.(*entry)
		c.lru.Remove(el)
		delete(c.mem, e.key)
		c.memBytes -= int64(len(e.data))
		c.evictions++
	}
}

// DropMemory empties the in-memory tier (the disk tier is untouched). Used
// under memory pressure and by tests that need to exercise the disk path of
// a shared instance.
func (c *Cache) DropMemory() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.mem = map[string]*list.Element{}
	c.lru.Init()
	c.memBytes = 0
}

// Stats snapshots the traffic counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits: c.hits, Misses: c.misses, Evictions: c.evictions,
		MemEntries: c.lru.Len(), MemBytes: c.memBytes, MaxBytes: c.maxBytes,
		IOErrors: c.ioErrors, BreakerTrips: c.br.Trips(), BreakerOpen: c.br.Open(),
	}
}

// --- disk tier ---------------------------------------------------------------

const diskMagic = "ELCA"

// diskVersion 2 frames carry an XXH64 payload checksum; version 1 frames
// (FNV-64a checksum) read as clean misses.
const diskVersion = 2

func (c *Cache) path(key string) string {
	return filepath.Join(c.dir, key+".bin")
}

// faultHook snapshots the injection hook under the lock.
func (c *Cache) faultHook() func(op string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.faults
}

// readFile loads and validates one disk entry. An absent or corrupt entry
// is a clean miss; a filesystem error (or injected "read" fault) is an I/O
// error for the breaker. Either way the caller sees a miss.
func (c *Cache) readFile(key string) ([]byte, diskResult) {
	if ff := c.faultHook(); ff != nil {
		if err := ff("read"); err != nil {
			return nil, diskIOError
		}
	}
	raw, err := c.fs.ReadFile(c.path(key))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, diskMiss
		}
		return nil, diskIOError
	}
	payload, ok := decodeEntry(key, raw)
	if !ok {
		return nil, diskMiss
	}
	return payload, diskOK
}

// decodeEntry parses and validates one "ELCA" disk entry against the key it
// should hold. ok is false on any framing, echo or checksum failure.
func decodeEntry(key string, raw []byte) (payload []byte, ok bool) {
	if len(raw) < len(diskMagic) || string(raw[:len(diskMagic)]) != diskMagic {
		return nil, false
	}
	rest := raw[len(diskMagic):]
	version, n := binary.Uvarint(rest)
	if n <= 0 || version != diskVersion {
		return nil, false
	}
	rest = rest[n:]
	echo, rest, ok := readLenPrefixed(rest)
	if !ok || string(echo) != key {
		return nil, false
	}
	payload, rest, ok = readLenPrefixed(rest)
	if !ok || len(rest) != 8 {
		return nil, false
	}
	if binary.LittleEndian.Uint64(rest) != checksum(payload) {
		return nil, false
	}
	return payload, true
}

func readLenPrefixed(b []byte) (field, rest []byte, ok bool) {
	l, n := binary.Uvarint(b)
	if n <= 0 || uint64(len(b)-n) < l {
		return nil, nil, false
	}
	return b[n : n+int(l)], b[n+int(l):], true
}

// encodeEntry frames one payload in the "ELCA" disk format. The buffer is
// sized once for the whole frame, so a large payload is copied exactly once.
func encodeEntry(key string, payload []byte) []byte {
	buf := make([]byte, 0, len(diskMagic)+3*binary.MaxVarintLen64+len(key)+len(payload)+8)
	buf = append(buf, diskMagic...)
	buf = binary.AppendUvarint(buf, diskVersion)
	buf = binary.AppendUvarint(buf, uint64(len(key)))
	buf = append(buf, key...)
	buf = binary.AppendUvarint(buf, uint64(len(payload)))
	buf = append(buf, payload...)
	return binary.LittleEndian.AppendUint64(buf, checksum(payload))
}

// writeFile persists one entry atomically: temp file in the same directory,
// then rename over the final name. Errors are swallowed (see Put) but
// classified for the breaker: a short write, a failed close, a failed
// rename and the injected "write"/"store" faults all count as I/O errors,
// and the temp file is removed so a torn write can never hydrate a reader.
func (c *Cache) writeFile(key string, payload []byte) diskResult {
	ff := c.faultHook()
	if ff != nil {
		if err := ff("write"); err != nil {
			return diskIOError
		}
	}
	if err := c.fs.MkdirAll(c.dir); err != nil {
		return diskIOError
	}
	buf := encodeEntry(key, payload)
	tmp, err := c.fs.CreateTemp(c.dir, key+".tmp*")
	if err != nil {
		return diskIOError
	}
	name := tmp.Name()
	if n, err := tmp.Write(buf); err != nil || n < len(buf) {
		tmp.Close()
		c.fs.Remove(name)
		return diskIOError
	}
	if err := tmp.Close(); err != nil {
		c.fs.Remove(name)
		return diskIOError
	}
	if ff != nil {
		if err := ff("store"); err != nil {
			c.fs.Remove(name)
			return diskIOError
		}
	}
	if err := c.fs.Rename(name, c.path(key)); err != nil {
		c.fs.Remove(name)
		return diskIOError
	}
	return diskOK
}
