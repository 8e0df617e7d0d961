package serve

import (
	"context"
	"errors"
	"sync"

	"elites/internal/features"
	"elites/internal/obs"
)

// coalesce.go is the server's single-flight layer: N identical concurrent
// requests — same reportKey identity — trigger exactly one pipeline run
// and share its encoded body. Unlike a plain singleflight, each in-flight run owns a context
// that is cancelled only when its last remaining waiter abandons, so a
// popular run survives individual disconnects but a run nobody is waiting
// for stops burning workers at the next stage boundary.

// runOutcome is what one coalesced execution produces: the encoded response
// body plus whether it is a degraded (partial) report, or, for the
// features-only run, the feature matrix. Degraded bodies flow to every
// waiter of the faulted run but are never stored, so the first request
// after the fault clears re-runs and serves clean bytes.
type runOutcome struct {
	body     []byte
	degraded bool
	features *features.Matrix
}

// flight deduplicates concurrent executions by key.
type flight struct {
	mu    sync.Mutex
	calls map[string]*call
}

// call is one in-flight (or just-finished) execution.
type call struct {
	waiters int                // live waiters; last one out cancels the run
	cancel  context.CancelFunc // cancels the run's context
	done    chan struct{}      // closed after out/err are set
	out     runOutcome
	err     error
	prog    *progress // live per-stage progress, shared with job status
	traceID string    // the creator request's trace id; joiners link to it
}

func newFlight() *flight {
	return &flight{calls: map[string]*call{}}
}

// Do returns the body produced by fn for key, starting fn in a new
// goroutine if no identical execution is in flight, otherwise joining the
// existing one. fn receives a context that is cancelled when every waiter
// for this key has gone away; it must return promptly after that.
//
// The joined return reports whether this caller shared another caller's
// run. When the caller's own ctx is cancelled the call returns ctx.Err()
// immediately (the run keeps going for any remaining waiters). A joiner
// that receives a cancellation error from a run its own context did not
// cause (it piled onto a call whose waiters all left) retries on a fresh
// call rather than failing spuriously.
//
// watch, when non-nil, is handed the progress of every run this caller
// waits on, whether it started that run or joined another caller's.
func (f *flight) Do(ctx context.Context, key string, fn func(context.Context, *progress) (runOutcome, error), watch func(*progress)) (out runOutcome, joined bool, err error) {
	for {
		f.mu.Lock()
		c, ok := f.calls[key]
		if !ok {
			runCtx, cancel := context.WithCancel(context.Background())
			c = &call{cancel: cancel, done: make(chan struct{}), prog: newProgress(),
				traceID: obs.TraceIDFromContext(ctx)}
			f.calls[key] = c
			go func() {
				o, e := fn(runCtx, c.prog)
				c.out, c.err = o, e
				// Remove from the map before signalling completion so a
				// retrying waiter is guaranteed a fresh call.
				f.mu.Lock()
				delete(f.calls, key)
				f.mu.Unlock()
				close(c.done)
				cancel()
			}()
		}
		c.waiters++
		leaderTrace := c.traceID
		f.mu.Unlock()
		if watch != nil {
			watch(c.prog)
		}

		if ok {
			// Joined another request's run: record the causality on this
			// request's span as a link to the leader's trace.
			if sp := obs.SpanFromContext(ctx); sp != nil && leaderTrace != sp.TraceID().String() {
				if id, idOK := obs.ParseTraceID(leaderTrace); idOK {
					sp.AddLink(id)
				}
				sp.AddEvent("coalesced", "leader_trace", leaderTrace)
			}
		}

		select {
		case <-c.done:
			if ok && c.err != nil && errors.Is(c.err, context.Canceled) && ctx.Err() == nil {
				// We joined a run that was cancelled by *other* waiters
				// leaving; our request is still live, so run it afresh.
				continue
			}
			return c.out, ok, c.err
		case <-ctx.Done():
			f.mu.Lock()
			c.waiters--
			if c.waiters == 0 {
				c.cancel()
			}
			f.mu.Unlock()
			return runOutcome{}, ok, ctx.Err()
		}
	}
}
