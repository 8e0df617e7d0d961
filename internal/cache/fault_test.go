package cache

import (
	"bytes"
	"fmt"
	"os"
	"sync"
	"syscall"
	"testing"

	"elites/internal/faults"
)

// faultFS wraps osFS and fails selected operations, exercising the disk
// tier's I/O-error paths without a genuinely broken disk: EACCES on load,
// ENOSPC on store (rename), short writes, temp-file creation failure and
// rename failure.
type faultFS struct {
	osFS
	mu          sync.Mutex
	failRead    error // ReadFile returns this when set
	failMkdir   error
	failCreate  error
	failRename  error
	shortWrites bool // Write persists only half the buffer
	removed     int  // temp files cleaned up after a failure
}

func (f *faultFS) get(dst *error) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return *dst
}

func (f *faultFS) ReadFile(name string) ([]byte, error) {
	if err := f.get(&f.failRead); err != nil {
		return nil, err
	}
	return f.osFS.ReadFile(name)
}

func (f *faultFS) MkdirAll(dir string) error {
	if err := f.get(&f.failMkdir); err != nil {
		return err
	}
	return f.osFS.MkdirAll(dir)
}

func (f *faultFS) CreateTemp(dir, pattern string) (diskFile, error) {
	if err := f.get(&f.failCreate); err != nil {
		return nil, err
	}
	inner, err := f.osFS.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &faultFile{diskFile: inner, fs: f}, nil
}

func (f *faultFS) Rename(o, n string) error {
	if err := f.get(&f.failRename); err != nil {
		return err
	}
	return f.osFS.Rename(o, n)
}

func (f *faultFS) Remove(name string) error {
	f.mu.Lock()
	f.removed++
	f.mu.Unlock()
	return f.osFS.Remove(name)
}

type faultFile struct {
	diskFile
	fs *faultFS
}

func (f *faultFile) Write(p []byte) (int, error) {
	f.fs.mu.Lock()
	short := f.fs.shortWrites
	f.fs.mu.Unlock()
	if short && len(p) > 1 {
		n, _ := f.diskFile.Write(p[:len(p)/2])
		return n, nil // a short write with a nil error, like a full pipe
	}
	return f.diskFile.Write(p)
}

// newFaultCache builds a cache on its own temp dir backed by a faultFS.
func newFaultCache(t *testing.T) (*Cache, *faultFS) {
	t.Helper()
	c := newTestCache(t.TempDir())
	fs := &faultFS{}
	c.fs = fs
	return c, fs
}

func TestReadErrorIsSilentMiss(t *testing.T) {
	c, fs := newFaultCache(t)
	c.Put("k", []byte("payload"))
	c.DropMemory()

	fs.failRead = syscall.EACCES
	if _, ok := c.Get("k"); ok {
		t.Fatal("EACCES read served as a hit")
	}
	s := c.Stats()
	if s.IOErrors != 1 || s.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 IO error counted as a miss", s)
	}

	// The entry is intact on disk: clearing the fault restores the hit.
	fs.failRead = nil
	if got, ok := c.Get("k"); !ok || !bytes.Equal(got, []byte("payload")) {
		t.Fatalf("recovered Get = %q, %v", got, ok)
	}
}

func TestStoreFailuresLeaveNoPartialEntry(t *testing.T) {
	cases := []struct {
		name  string
		arm   func(fs *faultFS)
		wrote bool // temp file reached Remove cleanup
	}{
		{"enospc on rename", func(fs *faultFS) { fs.failRename = syscall.ENOSPC }, true},
		{"mkdir denied", func(fs *faultFS) { fs.failMkdir = syscall.EACCES }, false},
		{"createtemp denied", func(fs *faultFS) { fs.failCreate = syscall.EACCES }, false},
		{"short write", func(fs *faultFS) { fs.shortWrites = true }, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, fs := newFaultCache(t)
			tc.arm(fs)
			c.Put("k", []byte("payload-bytes"))

			// The memory tier still serves the entry...
			if _, ok := c.Get("k"); !ok {
				t.Fatal("memory tier lost the entry")
			}
			// ...but nothing (whole or torn) reached the final disk name,
			// and any temp file was cleaned up.
			if _, err := os.Stat(c.path("k")); !os.IsNotExist(err) {
				t.Fatalf("final entry exists after %s (err=%v)", tc.name, err)
			}
			ents, _ := os.ReadDir(c.Dir())
			if len(ents) != 0 {
				t.Fatalf("%d stray files left in cache dir", len(ents))
			}
			if tc.wrote && fs.removed == 0 {
				t.Fatal("temp file was not removed after the failure")
			}
			if s := c.Stats(); s.IOErrors != 1 {
				t.Fatalf("IOErrors = %d, want 1", s.IOErrors)
			}
		})
	}
}

func TestBreakerTripsAndRecovers(t *testing.T) {
	c, fs := newFaultCache(t)
	fs.failRead = syscall.EIO

	// faults.BreakerTripAfter consecutive failures open the breaker.
	for i := 0; i < faults.BreakerTripAfter; i++ {
		c.Get(fmt.Sprintf("k%d", i))
	}
	s := c.Stats()
	if !s.BreakerOpen || s.BreakerTrips != 1 || s.IOErrors != uint64(faults.BreakerTripAfter) {
		t.Fatalf("after %d failures: %+v, want open breaker", faults.BreakerTripAfter, s)
	}

	// While open, disk is not touched: the fault stays armed but IOErrors
	// must not advance for faults.BreakerProbeAfter-1 skipped operations.
	for i := 0; i < faults.BreakerProbeAfter-1; i++ {
		c.Get("skipped")
	}
	if s = c.Stats(); s.IOErrors != uint64(faults.BreakerTripAfter) {
		t.Fatalf("breaker leaked %d disk ops while open", s.IOErrors-uint64(faults.BreakerTripAfter))
	}

	// The next operation is the half-open probe; it still fails, so the
	// breaker stays open without re-tripping.
	c.Get("probe")
	if s = c.Stats(); s.IOErrors != uint64(faults.BreakerTripAfter)+1 || !s.BreakerOpen || s.BreakerTrips != 1 {
		t.Fatalf("failed probe: %+v", s)
	}

	// Clear the fault: the next probe succeeds and closes the breaker.
	fs.mu.Lock()
	fs.failRead = nil
	fs.mu.Unlock()
	for i := 0; i < faults.BreakerProbeAfter; i++ {
		c.Get("recovering")
	}
	if s = c.Stats(); s.BreakerOpen {
		t.Fatalf("breaker still open after a clean probe: %+v", s)
	}

	// Fully closed: writes flow to disk again.
	c.Put("fresh", []byte("data"))
	c.DropMemory()
	if _, ok := c.Get("fresh"); !ok {
		t.Fatal("post-recovery write did not persist")
	}
}

// TestBreakerRecoveryRestoresHits: an entry persisted before the disk
// fails must come back as a hit — with its original bytes — within one
// probe window (faults.BreakerProbeAfter operations) of the filesystem healing.
// This is the contract the serving layer's degraded mode leans on: a trip
// is an episode, not a permanent demotion to cold reads.
func TestBreakerRecoveryRestoresHits(t *testing.T) {
	c, fs := newFaultCache(t)
	payload := []byte("survives the outage")
	c.Put("k", payload)
	c.DropMemory() // only the disk tier has it now

	// Trip the breaker with consecutive read failures.
	fs.mu.Lock()
	fs.failRead = syscall.EIO
	fs.mu.Unlock()
	for i := 0; i < faults.BreakerTripAfter; i++ {
		if _, ok := c.Get("k"); ok {
			t.Fatal("Get hit through an EIO disk")
		}
	}
	if s := c.Stats(); !s.BreakerOpen || s.BreakerTrips != 1 {
		t.Fatalf("breaker not open after %d failures: %+v", faults.BreakerTripAfter, s)
	}

	// Heal the filesystem. The entry must be served again within one probe
	// window: the next half-open probe reads it, succeeds, and closes the
	// breaker.
	fs.mu.Lock()
	fs.failRead = nil
	fs.mu.Unlock()
	recovered := false
	for i := 0; i < faults.BreakerProbeAfter; i++ {
		if got, ok := c.Get("k"); ok {
			if !bytes.Equal(got, payload) {
				t.Fatalf("recovered entry = %q, want %q", got, payload)
			}
			recovered = true
			break
		}
	}
	if !recovered {
		t.Fatalf("no hit within %d operations of the disk healing", faults.BreakerProbeAfter)
	}
	if s := c.Stats(); s.BreakerOpen {
		t.Fatalf("breaker still open after successful probe: %+v", s)
	}

	// And it keeps hitting — memory tier re-primed by the recovery read.
	if _, ok := c.Get("k"); !ok {
		t.Fatal("hit did not stick after recovery")
	}
}

func TestInjectedFaultHookCountsAsIOError(t *testing.T) {
	c := newTestCache(t.TempDir())
	c.Put("k", []byte("payload"))
	c.DropMemory()

	c.SetFaults(func(op string) error {
		if op == "read" {
			return syscall.EIO
		}
		return nil
	})
	if _, ok := c.Get("k"); ok {
		t.Fatal("injected read fault served as a hit")
	}
	if s := c.Stats(); s.IOErrors != 1 {
		t.Fatalf("IOErrors = %d, want 1", s.IOErrors)
	}

	// "store" faults fire after the temp write, before rename: the final
	// name must never appear.
	c.SetFaults(func(op string) error {
		if op == "store" {
			return syscall.ENOSPC
		}
		return nil
	})
	c.Put("k2", []byte("second"))
	if _, err := os.Stat(c.path("k2")); !os.IsNotExist(err) {
		t.Fatal("store fault did not prevent the rename")
	}

	c.SetFaults(nil)
	if _, ok := c.Get("k"); !ok {
		t.Fatal("unhooked cache did not recover")
	}
}
