package fleet

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"elites/internal/cache"
)

// lkg.go is the router's graceful-degradation floor: the last-known-good
// body store. Every clean (non-degraded) 200 the router proxies for a
// GET under /v1/datasets is recorded against its identity key — written
// only when the stored bytes differ, so a warm GET reads and never writes —
// in the shared result-cache directory: the same content-addressed store the
// workers hydrate stages from, so the bodies survive router restarts and
// are visible to every router sharing the directory. When every replica
// for an identity is down or the retry budget is exhausted, the router
// serves these exact bytes with a Warning header instead of a 502: the
// degraded body is byte-identical to the last healthy response for the
// same identity, because it *is* that response.

// lkgStore persists last-known-good response bodies keyed by identity.
type lkgStore struct {
	c *cache.Cache // nil when the router runs cache-less (memory off too)
}

// newLKGStore opens the store over the shared cache directory; an empty
// dir yields a disabled store (get always misses, put is a no-op).
func newLKGStore(dir string) (*lkgStore, error) {
	if dir == "" {
		return &lkgStore{}, nil
	}
	c, err := cache.New(dir)
	if err != nil {
		return nil, err
	}
	return &lkgStore{c: c}, nil
}

// key renders the cache key for one identity.
func (s *lkgStore) key(identity uint64) string {
	return fmt.Sprintf("routerlkg-%016x", identity)
}

// put records a clean body and its content type for identity, and reports
// whether it wrote. The determinism contract fixes the body for an
// identity, so the entry is almost always stored already: put reads it back
// (memory tier, else a checksum-verified disk read) and writes only when
// the stored bytes differ from the new ones. It compares bytes rather than
// testing for existence so that a body which did change — a new codec, a
// different worker build — still replaces the old one, and the store keeps
// meaning "the last clean response".
func (s *lkgStore) put(identity uint64, contentType string, body []byte) (wrote bool) {
	if s.c == nil {
		return false
	}
	if ct, old, ok := s.get(identity); ok && ct == contentType && bytes.Equal(old, body) {
		return false
	}
	buf := binary.AppendUvarint(nil, uint64(len(contentType)))
	buf = append(buf, contentType...)
	buf = append(buf, body...)
	s.c.Put(s.key(identity), buf)
	return true
}

// get returns the last-known-good body for identity, if one was recorded.
// A malformed entry (impossible short frame) is treated as a miss — the
// cache layer already rejects torn or corrupted files by checksum.
func (s *lkgStore) get(identity uint64) (contentType string, body []byte, ok bool) {
	if s.c == nil {
		return "", nil, false
	}
	raw, ok := s.c.Get(s.key(identity))
	if !ok {
		return "", nil, false
	}
	n, used := binary.Uvarint(raw)
	if used <= 0 || uint64(len(raw)-used) < n {
		return "", nil, false
	}
	return string(raw[used : used+int(n)]), raw[used+int(n):], true
}
