package pipeline

import (
	"context"
	"errors"
	"runtime/pprof"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// orderRecorder appends stage names under a lock so tests can assert
// scheduling constraints.
type orderRecorder struct {
	mu    sync.Mutex
	order []string
}

func (r *orderRecorder) stage(name string, deps ...string) Stage {
	return Stage{Name: name, Deps: deps, Run: func() error {
		r.mu.Lock()
		r.order = append(r.order, name)
		r.mu.Unlock()
		return nil
	}}
}

func (r *orderRecorder) index(name string) int {
	for i, n := range r.order {
		if n == name {
			return i
		}
	}
	return -1
}

func TestDependencyOrdering(t *testing.T) {
	for _, par := range []int{1, 4} {
		rec := &orderRecorder{}
		stages := []Stage{
			rec.stage("fan1"),
			rec.stage("root"),
			rec.stage("mid", "root"),
			rec.stage("leaf", "mid", "fan1"),
			rec.stage("fan2", "root"),
		}
		if _, err := RunContext(t.Context(), stages, Options{Parallelism: par}); err != nil {
			t.Fatalf("par=%d: %v", par, err)
		}
		if len(rec.order) != len(stages) {
			t.Fatalf("par=%d: ran %d stages, want %d", par, len(rec.order), len(stages))
		}
		for _, pair := range [][2]string{{"root", "mid"}, {"mid", "leaf"}, {"fan1", "leaf"}, {"root", "fan2"}} {
			if rec.index(pair[0]) > rec.index(pair[1]) {
				t.Errorf("par=%d: %q ran after dependent %q (order %v)", par, pair[0], pair[1], rec.order)
			}
		}
	}
}

func TestFailurePropagation(t *testing.T) {
	boom := errors.New("boom")
	var ranLeaf, ranSibling atomic.Bool
	stages := []Stage{
		{Name: "bad", Run: func() error { return boom }},
		{Name: "leaf", Deps: []string{"bad"}, Run: func() error { ranLeaf.Store(true); return nil }},
		{Name: "grandleaf", Deps: []string{"leaf"}, Run: func() error { ranLeaf.Store(true); return nil }},
		{Name: "sibling", Run: func() error { ranSibling.Store(true); return nil }},
	}
	timings, err := RunContext(t.Context(), stages, Options{Parallelism: 2})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	if ranLeaf.Load() {
		t.Fatal("dependent of failed stage must not run")
	}
	if !ranSibling.Load() {
		t.Fatal("independent sibling must still run")
	}
	byName := map[string]Timing{}
	for _, tm := range timings {
		byName[tm.Name] = tm
	}
	if tm := byName["bad"]; tm.Skipped || !errors.Is(tm.Err, boom) {
		t.Fatalf("bad timing = %+v", tm)
	}
	for _, name := range []string{"leaf", "grandleaf"} {
		tm := byName[name]
		if !tm.Skipped || !errors.Is(tm.Err, ErrDependencySkipped) {
			t.Fatalf("%s timing = %+v, want skipped with ErrDependencySkipped", name, tm)
		}
	}
	if tm := byName["sibling"]; tm.Skipped || tm.Err != nil {
		t.Fatalf("sibling timing = %+v", tm)
	}
	// The joined error mentions only the root cause, not the cascade.
	if got := err.Error(); strings.Contains(got, "leaf") {
		t.Fatalf("error should not include skipped dependents: %v", got)
	}
}

func TestStageSubsetting(t *testing.T) {
	rec := &orderRecorder{}
	stages := []Stage{
		rec.stage("root"),
		rec.stage("mid", "root"),
		rec.stage("leaf", "mid"),
		rec.stage("other"),
	}
	timings, err := RunContext(t.Context(), stages, Options{Only: []string{"mid"}, Parallelism: 3})
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(rec.order, ","); got != "root,mid" {
		t.Fatalf("ran %q, want root then mid only", got)
	}
	byName := map[string]Timing{}
	for _, tm := range timings {
		byName[tm.Name] = tm
	}
	for _, name := range []string{"leaf", "other"} {
		if tm := byName[name]; !tm.Skipped || tm.Err != nil {
			t.Fatalf("%s timing = %+v, want cleanly skipped", name, tm)
		}
	}
	if _, err := RunContext(t.Context(), stages, Options{Only: []string{"nope"}}); err == nil {
		t.Fatal("unknown subset name must error")
	}
}

func TestParallelismBound(t *testing.T) {
	var cur, peak atomic.Int64
	block := make(chan struct{})
	var stages []Stage
	for i := 0; i < 8; i++ {
		stages = append(stages, Stage{Name: string(rune('a' + i)), Run: func() error {
			if c := cur.Add(1); c > peak.Load() {
				peak.Store(c)
			}
			<-block
			cur.Add(-1)
			return nil
		}})
	}
	done := make(chan struct{})
	var timings []Timing
	go func() {
		timings, _ = RunContext(t.Context(), stages, Options{Parallelism: 2})
		close(done)
	}()
	// Let the pool saturate, then release everyone.
	for cur.Load() < 2 {
	}
	close(block)
	<-done
	if got := peak.Load(); got > 2 {
		t.Fatalf("observed %d concurrent stages, want <= 2", got)
	}
	for _, tm := range timings {
		if tm.Skipped {
			t.Fatalf("stage %s skipped", tm.Name)
		}
	}
}

func TestGraphValidation(t *testing.T) {
	ran := false
	mark := func() error { ran = true; return nil }
	for _, bad := range []struct {
		why    string
		stages []Stage
	}{
		{"unknown dep", []Stage{{Name: "a", Deps: []string{"missing"}, Run: mark}}},
		{"duplicate name", []Stage{{Name: "a", Run: mark}, {Name: "a", Run: mark}}},
		{"cycle", []Stage{{Name: "a", Deps: []string{"b"}, Run: mark}, {Name: "b", Deps: []string{"a"}, Run: mark}}},
		{"self-cycle", []Stage{{Name: "a", Deps: []string{"a"}, Run: mark}}},
		{"unnamed stage", []Stage{{Run: mark}}},
	} {
		if _, err := RunContext(t.Context(), bad.stages, Options{}); err == nil {
			t.Fatalf("%s must fail validation", bad.why)
		}
		if ran {
			t.Fatalf("%s: a stage ran before validation failed", bad.why)
		}
	}
	if _, err := RunContext(t.Context(), []Stage{{Name: "a", Run: mark}, {Name: "b", Deps: []string{"a"}, Run: mark}}, Options{}); err != nil || !ran {
		t.Fatalf("valid graph rejected: %v", err)
	}
}

func TestEmptyAndSingle(t *testing.T) {
	if timings, err := RunContext(t.Context(), nil, Options{}); err != nil || len(timings) != 0 {
		t.Fatalf("empty graph: %v %v", timings, err)
	}
	ran := false
	timings, err := RunContext(t.Context(), []Stage{{Name: "only", Run: func() error { ran = true; return nil }}}, Options{Parallelism: 16})
	if err != nil || !ran {
		t.Fatalf("single stage: ran=%v err=%v", ran, err)
	}
	if timings[0].Skipped || timings[0].Err != nil {
		t.Fatalf("timing = %+v", timings[0])
	}
}

// mapCache is an in-memory Cacher for scheduler tests.
type mapCache struct {
	mu   sync.Mutex
	m    map[string][]byte
	gets int
	puts int
}

func newMapCache() *mapCache { return &mapCache{m: map[string][]byte{}} }

func (c *mapCache) Get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gets++
	data, ok := c.m[key]
	return data, ok
}

func (c *mapCache) Put(key string, data []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.puts++
	c.m[key] = data
}

func TestCacheHitSkipsRun(t *testing.T) {
	cache := newMapCache()
	var state string
	mk := func() []Stage {
		var ran atomic.Int32
		return []Stage{{
			Name: "work",
			Run: func() error {
				ran.Add(1)
				state = "computed"
				return nil
			},
			CacheKey: "work-v1-k",
			Encode:   func() ([]byte, error) { return []byte(state), nil },
			Decode: func(b []byte) error {
				state = string(b)
				return nil
			},
		}}
	}

	// Cold: runs, stores.
	state = ""
	timings, err := RunContext(t.Context(), mk(), Options{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if timings[0].CacheHit {
		t.Fatal("cold run reported a cache hit")
	}
	if cache.puts != 1 {
		t.Fatalf("puts = %d, want 1", cache.puts)
	}

	// Warm: hydrates without running.
	state = ""
	timings, err = RunContext(t.Context(), mk(), Options{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if !timings[0].CacheHit {
		t.Fatal("warm run missed")
	}
	if state != "computed" {
		t.Fatalf("decode did not hydrate state: %q", state)
	}
	if cache.puts != 1 {
		t.Fatalf("warm run stored again: puts = %d", cache.puts)
	}
}

func TestCacheDecodeFailureFallsBackToRun(t *testing.T) {
	cache := newMapCache()
	cache.m["k"] = []byte("garbage")
	ran := false
	stages := []Stage{{
		Name:     "s",
		Run:      func() error { ran = true; return nil },
		CacheKey: "k",
		Encode:   func() ([]byte, error) { return []byte("good"), nil },
		Decode:   func(b []byte) error { return errors.New("corrupt") },
	}}
	timings, err := RunContext(t.Context(), stages, Options{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if timings[0].CacheHit || !ran {
		t.Fatalf("decode failure should fall back to Run (hit=%v ran=%v)", timings[0].CacheHit, ran)
	}
	if string(cache.m["k"]) != "good" {
		t.Fatal("fallback run should overwrite the bad entry")
	}
}

func TestCacheEncodeFailureStillSucceeds(t *testing.T) {
	cache := newMapCache()
	stages := []Stage{{
		Name:     "s",
		Run:      func() error { return nil },
		CacheKey: "k",
		Encode:   func() ([]byte, error) { return nil, errors.New("cannot encode") },
		Decode:   func(b []byte) error { return nil },
	}}
	timings, err := RunContext(t.Context(), stages, Options{Cache: cache})
	if err != nil || timings[0].Err != nil {
		t.Fatalf("encode failure must not fail the stage: %v %v", err, timings[0].Err)
	}
	if cache.puts != 0 {
		t.Fatal("failed encode should not store")
	}
}

func TestCacheIgnoredWithoutHooksOrCacher(t *testing.T) {
	// No Cacher configured: hooks are inert.
	calls := 0
	stages := []Stage{{
		Name:     "s",
		Run:      func() error { calls++; return nil },
		CacheKey: "k",
		Encode:   func() ([]byte, error) { return nil, nil },
		Decode:   func(b []byte) error { return nil },
	}}
	if _, err := RunContext(t.Context(), stages, Options{}); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatal("stage did not run without a cacher")
	}

	// Cacher configured but stage has no key: never consulted.
	cache := newMapCache()
	plain := []Stage{{Name: "p", Run: func() error { return nil }}}
	if _, err := RunContext(t.Context(), plain, Options{Cache: cache}); err != nil {
		t.Fatal(err)
	}
	if cache.gets != 0 || cache.puts != 0 {
		t.Fatalf("uncached stage touched the cache: gets=%d puts=%d", cache.gets, cache.puts)
	}
}

func TestCacheFailedStageNotStored(t *testing.T) {
	cache := newMapCache()
	boom := errors.New("boom")
	stages := []Stage{{
		Name:     "s",
		Run:      func() error { return boom },
		CacheKey: "k",
		Encode:   func() ([]byte, error) { return []byte("x"), nil },
		Decode:   func(b []byte) error { return nil },
	}}
	if _, err := RunContext(t.Context(), stages, Options{Cache: cache}); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if cache.puts != 0 {
		t.Fatal("failed stage must not be cached")
	}
}

// TestCancellationStopsScheduling cancels the context from inside the first
// stage of a chain: the running stage completes (and keeps its result), but
// no dependent starts, every unstarted stage is marked with ErrCanceled, and
// the run error matches context.Canceled exactly once.
func TestCancellationStopsScheduling(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran int32
	stages := []Stage{
		{Name: "a", Run: func() error {
			atomic.AddInt32(&ran, 1)
			cancel()
			return nil
		}},
		{Name: "b", Deps: []string{"a"}, Run: func() error {
			atomic.AddInt32(&ran, 1)
			return nil
		}},
		{Name: "c", Deps: []string{"b"}, Run: func() error {
			atomic.AddInt32(&ran, 1)
			return nil
		}},
	}
	timings, err := RunContext(ctx, stages, Options{Parallelism: 1})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if got := atomic.LoadInt32(&ran); got != 1 {
		t.Fatalf("ran %d stages, want 1 (only the cancelling stage)", got)
	}
	if timings[0].Skipped || timings[0].Err != nil {
		t.Fatalf("stage a should have completed: %+v", timings[0])
	}
	for _, i := range []int{1, 2} {
		if !timings[i].Skipped {
			t.Fatalf("stage %s should be skipped", timings[i].Name)
		}
		// b is cancellation-skipped; c cascades as either a dependency skip
		// or a cancellation skip depending on which the scheduler saw first.
		if !errors.Is(timings[i].Err, ErrCanceled) && !errors.Is(timings[i].Err, ErrDependencySkipped) {
			t.Fatalf("stage %s err = %v", timings[i].Name, timings[i].Err)
		}
	}
	// The single joined ctx error must not be repeated per stage.
	if n := strings.Count(err.Error(), context.Canceled.Error()); n < 1 {
		t.Fatalf("err %q should mention the context error", err)
	}
}

// TestPreCancelledContextRunsNothing: a context cancelled before RunContext
// is called must not execute any stage.
func TestPreCancelledContextRunsNothing(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran int32
	stages := []Stage{
		{Name: "a", Run: func() error { atomic.AddInt32(&ran, 1); return nil }},
		{Name: "b", Run: func() error { atomic.AddInt32(&ran, 1); return nil }},
	}
	timings, err := RunContext(ctx, stages, Options{Parallelism: 4})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if atomic.LoadInt32(&ran) != 0 {
		t.Fatal("no stage should run under a pre-cancelled context")
	}
	for _, tm := range timings {
		if !tm.Skipped || !errors.Is(tm.Err, ErrCanceled) {
			t.Fatalf("stage %s: %+v", tm.Name, tm)
		}
	}
}

// TestObserverSeesEveryExecutedStage: Observe fires once per executed stage
// (cache hits included), never for deselected or dependency-skipped ones.
func TestObserverSeesEveryExecutedStage(t *testing.T) {
	cache := newMapCache()
	cache.Put("hit", []byte("x"))
	boom := errors.New("boom")
	stages := []Stage{
		{Name: "ok", Run: func() error { return nil }},
		{Name: "cached", Run: func() error { t.Error("cached stage must not run"); return nil },
			CacheKey: "hit",
			Encode:   func() ([]byte, error) { return nil, nil },
			Decode:   func([]byte) error { return nil }},
		{Name: "fail", Run: func() error { return boom }},
		{Name: "skipped", Deps: []string{"fail"}, Run: func() error { return nil }},
	}
	var mu sync.Mutex
	seen := map[string]Timing{}
	_, err := RunContext(t.Context(), stages, Options{Cache: cache, Observe: func(tm Timing) {
		mu.Lock()
		seen[tm.Name] = tm
		mu.Unlock()
	}})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if len(seen) != 3 {
		t.Fatalf("observed %v, want ok/cached/fail", seen)
	}
	if !seen["cached"].CacheHit {
		t.Fatal("cached stage should report CacheHit to the observer")
	}
	if seen["fail"].Err == nil {
		t.Fatal("failed stage should reach the observer with its error")
	}
	if _, ok := seen["skipped"]; ok {
		t.Fatal("dependency-skipped stage must not reach the observer")
	}
}

// TestStagePprofLabels: while a stage executes, its goroutine (and any
// goroutine it spawns) must carry the pprof label stage=<name>, so CPU
// profiles of a battery run can be broken down per stage with
// `go tool pprof -tagshow stage`. The goroutine profile is what the
// profiler reads, so the assertion goes through it.
func TestStagePprofLabels(t *testing.T) {
	release := make(chan struct{})
	var running sync.WaitGroup
	running.Add(2)
	block := func() error {
		done := make(chan struct{})
		go func() { // labels must propagate to spawned goroutines
			defer close(done)
			running.Done()
			<-release
		}()
		<-done
		return nil
	}
	stages := []Stage{
		{Name: "alpha", Run: block},
		{Name: "beta", Run: block},
	}
	var runErr error
	var finished sync.WaitGroup
	finished.Add(1)
	go func() {
		defer finished.Done()
		_, runErr = RunContext(t.Context(), stages, Options{Parallelism: 2})
	}()
	running.Wait() // both stages are now blocked inside Run
	var buf strings.Builder
	if err := pprof.Lookup("goroutine").WriteTo(&buf, 1); err != nil {
		t.Fatal(err)
	}
	close(release)
	finished.Wait()
	if runErr != nil {
		t.Fatal(runErr)
	}
	for _, want := range []string{`"stage":"alpha"`, `"stage":"beta"`} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("goroutine profile lacks label %s:\n%s", want, buf.String())
		}
	}
}
