// Package pipeline executes a declarative stage graph on a bounded worker
// pool. A Stage is a named unit of work with explicit dependencies; Run
// schedules every stage whose dependencies have completed, so independent
// analyses proceed concurrently while ordered ones wait. The scheduler
// records per-stage wall clock, propagates failures to dependents (they are
// skipped, not run against missing inputs), and supports running a subset of
// the graph: requested stages are closed over their transitive dependencies.
//
// The package is deliberately value-free: stages communicate through
// whatever state their closures capture. Callers that need deterministic
// output under concurrency must make each stage's work independent of
// scheduling order — the core characterizer does this by deriving an
// independent RNG stream per stage (mathx.RNG.Derive).
//
// Stages may additionally opt into a result cache (Stage.CacheKey with
// Encode/Decode hooks, served by Options.Cache): on a hit the scheduler
// hydrates the stage's outputs instead of running it, which is how warm
// re-runs of the characterization battery skip the expensive analyses. See
// internal/cache for the content-addressed key discipline.
//
// RunContext accepts a context and stops scheduling at stage granularity
// when it is cancelled: stages already executing run to completion (their
// closures have no cancellation points), but no further stage starts, which
// is what lets a serving layer abandon a battery the client stopped waiting
// for without burning every remaining worker-hour.
//
// Failure containment: a panic inside a stage (its Run, Encode, Decode or
// the Intercept hook) is recovered into a typed *StagePanicError carrying
// the captured stack — the stage fails, its dependents are skipped, and the
// process survives. Options.Retries re-runs a stage that returned a plain
// error, after a fixed deterministic backoff; panics and cancellations are
// never retried.
package pipeline

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sync"
	"time"

	"elites/internal/faults"
)

// Stage is one named node of the graph. Run is invoked at most once, after
// every stage named in Deps has finished successfully.
//
// A stage that sets CacheKey (with Encode and Decode) opts into the result
// cache: when Options.Cache holds the key, the scheduler calls Decode to
// hydrate the stage's outputs instead of Run; after a successful Run it
// calls Encode and stores the payload. The key must be content-addressed —
// a pure function of everything that changes the stage's output — because
// the scheduler never invalidates, it only looks up.
type Stage struct {
	Name string
	Deps []string
	Run  func() error
	// CacheKey enables result caching for this stage when non-empty and
	// Options.Cache is set. Encode and Decode must both be non-nil then.
	CacheKey string
	// Encode serializes the stage's outputs after a successful Run. An
	// error skips the store (the run's results still stand).
	Encode func() ([]byte, error)
	// Decode hydrates the stage's outputs from a cached payload. An error
	// is treated as a miss and the stage runs normally.
	Decode func([]byte) error
}

// The wait before retry n (from 0) is retryBackoff·2ⁿ, capped at
// maxRetryBackoff. There is no jitter, so timed tests and chaos suites
// replay exactly.
const (
	retryBackoff    = 10 * time.Millisecond
	maxRetryBackoff = time.Second
)

// StagePanicError is the typed error a recovered stage panic converts to:
// the stage name, the panic value and the stack captured at recovery. The
// scheduler treats it like any stage failure (dependents are skipped), so a
// panicking stage can never take down the process hosting the pipeline.
type StagePanicError struct {
	Stage string
	Value any
	Stack []byte
}

// Error renders the panic value; the stack is carried separately.
func (e *StagePanicError) Error() string {
	return fmt.Sprintf("pipeline: stage %q panicked: %v", e.Stage, e.Value)
}

// Timing reports how one stage fared: wall-clock duration for executed
// stages, Skipped for stages that never ran (deselected, or a dependency
// failed), Err for failures (including dependency-failure skips), and
// CacheHit for stages hydrated from the result cache instead of executed.
type Timing struct {
	Name     string
	Duration time.Duration
	// Err is excluded from JSON: error values don't marshal usefully, so
	// callers render it themselves.
	Err      error `json:"-"`
	Skipped  bool
	CacheHit bool
	// Retries counts re-run attempts beyond the first (0 for stages that
	// succeeded or failed on their only attempt).
	Retries int
	// Start is when the stage began executing (zero for stages that never
	// ran); with Duration it places the stage on a trace timeline.
	Start time.Time
}

// Cacher is the result-cache surface the scheduler consumes; implemented by
// internal/cache.Cache. Get reports a miss (never an error) for unknown or
// unreadable keys; Put must tolerate concurrent writers of the same key.
type Cacher interface {
	Get(key string) ([]byte, bool)
	Put(key string, data []byte)
}

// Options tunes a Run.
type Options struct {
	// Parallelism bounds concurrently executing stages
	// (<= 0 means GOMAXPROCS).
	Parallelism int
	// Only, when non-empty, restricts execution to the named stages plus
	// their transitive dependencies. Unknown names are an error.
	Only []string
	// Cache, when non-nil, serves stages that declare a CacheKey.
	Cache Cacher
	// Retries re-runs a stage whose attempt returned a plain error up to
	// this many extra times (0 = none). Panics and cancellations are never
	// retried. Stages are deterministic, so a plain error is environmental
	// (an injected fault, a flaky cache disk) and a re-run is always safe.
	Retries int
	// Observe, when non-nil, is called once per executed stage as it
	// finishes (cache hits included; deselected, dependency-skipped and
	// cancellation-skipped stages never reach it). Concurrent stages may
	// invoke it concurrently; it must not block for long — the scheduler's
	// workers call it inline. Serving layers use it for live progress.
	Observe func(Timing)
	// Intercept, when non-nil, runs before every stage attempt (cache
	// lookup included) with the stage's context and name. A returned error
	// fails the attempt; a panic is contained like any stage panic. Fault
	// injectors hook here, which keeps the scheduler itself free of any
	// testing seams.
	Intercept func(ctx context.Context, stage string) error
}

// ErrDependencySkipped wraps the error recorded for a stage that was skipped
// because one of its (possibly transitive) dependencies failed.
var ErrDependencySkipped = errors.New("pipeline: dependency failed")

// ErrCanceled wraps the error recorded for a stage that never started
// because the run's context was cancelled. RunContext's returned error also
// matches the context's own error (context.Canceled / DeadlineExceeded).
var ErrCanceled = errors.New("pipeline: run cancelled")

func indexStages(stages []Stage) (map[string]int, error) {
	idx := make(map[string]int, len(stages))
	for i, s := range stages {
		if s.Name == "" {
			return nil, fmt.Errorf("pipeline: stage %d has no name", i)
		}
		if _, dup := idx[s.Name]; dup {
			return nil, fmt.Errorf("pipeline: duplicate stage %q", s.Name)
		}
		idx[s.Name] = i
	}
	for _, s := range stages {
		for _, d := range s.Deps {
			if _, ok := idx[d]; !ok {
				return nil, fmt.Errorf("pipeline: stage %q depends on unknown stage %q", s.Name, d)
			}
		}
	}
	return idx, nil
}

func checkAcyclic(stages []Stage, idx map[string]int) error {
	const (
		unvisited = 0
		onStack   = 1
		done      = 2
	)
	state := make([]int, len(stages))
	var visit func(i int) error
	visit = func(i int) error {
		switch state[i] {
		case onStack:
			return fmt.Errorf("pipeline: cycle through stage %q", stages[i].Name)
		case done:
			return nil
		}
		state[i] = onStack
		for _, d := range stages[i].Deps {
			if err := visit(idx[d]); err != nil {
				return err
			}
		}
		state[i] = done
		return nil
	}
	for i := range stages {
		if err := visit(i); err != nil {
			return err
		}
	}
	return nil
}

// selectStages returns the boolean inclusion mask for opts.Only closed over
// transitive dependencies (all stages when Only is empty).
func selectStages(stages []Stage, idx map[string]int, only []string) ([]bool, error) {
	include := make([]bool, len(stages))
	if len(only) == 0 {
		for i := range include {
			include[i] = true
		}
		return include, nil
	}
	var mark func(i int)
	mark = func(i int) {
		if include[i] {
			return
		}
		include[i] = true
		for _, d := range stages[i].Deps {
			mark(idx[d])
		}
	}
	for _, name := range only {
		i, ok := idx[name]
		if !ok {
			return nil, fmt.Errorf("pipeline: unknown stage %q", name)
		}
		mark(i)
	}
	return include, nil
}

// RunContext executes the stage graph and returns one Timing per stage, in
// the order the stages were declared. The returned error joins every stage
// error (dependency skips are not doubled in). The graph is validated first
// (names, dependencies, cycles), so a malformed graph fails before any
// stage executes.
//
// Once ctx is cancelled no further stage starts. Stages already executing
// finish normally and keep their results; stages that never started are
// marked Skipped with an error wrapping ErrCanceled, and the returned error
// wraps ctx.Err() exactly once (so errors.Is(err, context.Canceled) works)
// rather than once per unstarted stage.
func RunContext(ctx context.Context, stages []Stage, opts Options) ([]Timing, error) {
	idx, err := indexStages(stages)
	if err != nil {
		return nil, err
	}
	if err := checkAcyclic(stages, idx); err != nil {
		return nil, err
	}
	include, err := selectStages(stages, idx, opts.Only)
	if err != nil {
		return nil, err
	}

	workers := opts.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(stages) {
		workers = len(stages)
	}
	if workers < 1 {
		workers = 1
	}

	timings := make([]Timing, len(stages))
	for i, s := range stages {
		timings[i] = Timing{Name: s.Name, Skipped: true}
	}

	// dependents[i] lists stages waiting on i; pending[i] counts unmet deps.
	dependents := make([][]int, len(stages))
	pending := make([]int, len(stages))
	remaining := 0
	for i, s := range stages {
		if !include[i] {
			continue
		}
		remaining++
		pending[i] = len(s.Deps)
		for _, d := range s.Deps {
			dependents[idx[d]] = append(dependents[idx[d]], i)
		}
	}
	if remaining == 0 {
		return timings, nil
	}

	var (
		mu     sync.Mutex
		wg     sync.WaitGroup
		ready  = make(chan int, len(stages))
		failed = make([]bool, len(stages))
		closed = false
	)

	// finish marks stage i complete (ok=false on failure), releasing or
	// failing its dependents. Callers hold mu.
	var finish func(i int, ok bool)
	finish = func(i int, ok bool) {
		remaining--
		for _, d := range dependents[i] {
			if !include[d] {
				continue
			}
			if !ok && !failed[d] {
				failed[d] = true
				timings[d].Err = fmt.Errorf("%w: stage %q skipped because %q did not complete",
					ErrDependencySkipped, stages[d].Name, stages[i].Name)
			}
			pending[d]--
			if pending[d] == 0 {
				if failed[d] {
					finish(d, false) // cascade the skip
				} else {
					ready <- d
				}
			}
		}
		// Guarded: when a cascade above closed the channel already, this
		// outer frame also observes remaining == 0 and must not re-close.
		if remaining == 0 && !closed {
			closed = true
			close(ready)
		}
	}

	mu.Lock()
	for i := range stages {
		if include[i] && pending[i] == 0 {
			ready <- i
		}
	}
	mu.Unlock()

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range ready {
				if ctx.Err() != nil {
					// Cancelled: don't start the stage, but still flow it
					// through finish so dependents cascade and the ready
					// channel drains to termination.
					mu.Lock()
					timings[i].Err = fmt.Errorf("%w: stage %q not started: %v",
						ErrCanceled, stages[i].Name, ctx.Err())
					finish(i, false)
					mu.Unlock()
					continue
				}
				start := time.Now()
				hit, retries, err := execute(ctx, &stages[i], &opts)
				mu.Lock()
				timings[i].Start = start
				timings[i].Duration = time.Since(start)
				timings[i].Skipped = false
				timings[i].CacheHit = hit
				timings[i].Err = err
				timings[i].Retries = retries
				tm := timings[i]
				finish(i, err == nil)
				mu.Unlock()
				if opts.Observe != nil {
					opts.Observe(tm)
				}
			}
		}()
	}
	wg.Wait()

	var errs []error
	for i := range timings {
		if timings[i].Err != nil &&
			!errors.Is(timings[i].Err, ErrDependencySkipped) &&
			!errors.Is(timings[i].Err, ErrCanceled) {
			errs = append(errs, fmt.Errorf("stage %q: %w", stages[i].Name, timings[i].Err))
		}
	}
	if cerr := ctx.Err(); cerr != nil {
		errs = append(errs, fmt.Errorf("%w: %w", ErrCanceled, cerr))
	}
	return timings, errors.Join(errs...)
}

// execute runs one stage, retrying it per Options.Retries, consulting the
// result cache first when the stage opted in. A cache hit hydrates the
// stage's outputs through Decode and skips Run entirely; a decode failure
// (corrupt or stale payload) falls back to a normal run. After a successful
// run the encoded outputs are stored — Encode failures only skip the store,
// never fail the stage.
//
// The whole execution — cache lookup, Run, store — is wrapped in a pprof
// label ("stage" = the stage name), so a CPU profile of a battery run
// (go test -cpuprofile, or the server's /debug/pprof/profile) attributes
// samples to pipeline stages: `go tool pprof -tagfocus stage=betweenness`
// isolates one stage, `-tagshow stage` breaks the profile down by all of
// them. Labels propagate to goroutines the stage spawns (the parallel
// chunk workers inherit them), so sharded loops are attributed too.
func execute(ctx context.Context, s *Stage, opts *Options) (cacheHit bool, retries int, err error) {
	pprof.Do(ctx, pprof.Labels("stage", s.Name), func(ctx context.Context) {
		cacheHit, retries, err = executeWithRetries(ctx, s, opts)
	})
	return cacheHit, retries, err
}

// executeWithRetries drives the stage's attempt loop: up to 1+Retries
// attempts with the fixed backoff between them. Panics (already converted
// to *StagePanicError by executeOnce) and cancellations end the loop
// immediately — only plain errors are retried.
func executeWithRetries(ctx context.Context, s *Stage, opts *Options) (cacheHit bool, retries int, err error) {
	for attempt := 0; ; attempt++ {
		cacheHit, err = executeOnce(ctx, s, opts)
		var pe *StagePanicError
		if err == nil || errors.As(err, &pe) || ctx.Err() != nil || attempt >= opts.Retries {
			return cacheHit, attempt, err
		}
		t := time.NewTimer(faults.Backoff(retryBackoff, maxRetryBackoff, attempt))
		select {
		case <-ctx.Done():
			t.Stop()
			return cacheHit, attempt, err
		case <-t.C:
		}
	}
}

// executeOnce is one attempt. The deferred recover is the pipeline's panic
// containment: whatever the stage's closures do, the worker goroutine
// survives and the failure is a typed error with the stack attached.
func executeOnce(ctx context.Context, s *Stage, opts *Options) (cacheHit bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &StagePanicError{Stage: s.Name, Value: r, Stack: debug.Stack()}
		}
	}()
	if opts.Intercept != nil {
		if ierr := opts.Intercept(ctx, s.Name); ierr != nil {
			return false, ierr
		}
	}
	c := opts.Cache
	cached := c != nil && s.CacheKey != "" && s.Encode != nil && s.Decode != nil
	if cached {
		if data, ok := c.Get(s.CacheKey); ok {
			if tryDecode(s, data) {
				return true, nil
			}
		}
	}
	if err := s.Run(); err != nil {
		return false, err
	}
	if cached {
		if data, eerr := s.Encode(); eerr == nil {
			c.Put(s.CacheKey, data)
		}
	}
	return false, nil
}

// tryDecode hydrates the stage from a cached payload, treating a decoder
// panic exactly like a decode error: a miss. Corruption must degrade to
// recomputation, never fail (or crash) the stage.
func tryDecode(s *Stage, data []byte) (ok bool) {
	defer func() {
		if recover() != nil {
			ok = false
		}
	}()
	return s.Decode(data) == nil
}
