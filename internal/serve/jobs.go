package serve

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"elites/internal/cache"
	"elites/internal/core"
)

// jobs.go is the async half of the report endpoint. When a cold run
// exceeds the server's latency budget (Config.AsyncAfter), the handler
// returns 202 with a job id instead of holding the connection; the run
// continues detached (it is its own waiter, so client disconnects never
// cancel it) and the client polls /v1/jobs/{id} for per-stage progress and
// fetches /v1/jobs/{id}/result when done. Job ids are content-addressed
// from the same identity the coalescer uses, so re-POSTing the same
// request while a job is running lands on the same job.

// progress accumulates per-stage completions as a run executes; shared
// between the pipeline's StageObserver and job status requests.
type progress struct {
	mu     sync.Mutex
	stages []core.StageTiming
}

func newProgress() *progress { return &progress{} }

func (p *progress) observe(st core.StageTiming) {
	p.mu.Lock()
	p.stages = append(p.stages, st)
	p.mu.Unlock()
}

func (p *progress) snapshot() []core.StageTiming {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]core.StageTiming, len(p.stages))
	copy(out, p.stages)
	return out
}

// job is one detached report run.
type job struct {
	ID          string
	Dataset     string
	Key         string
	ContentType string
	Created     time.Time

	done chan struct{} // closed when body/err are final

	// prog is the progress of the run the job waits on, whether the job
	// started that run or joined another request's; nil until attached.
	prog atomic.Pointer[progress]

	mu  sync.Mutex
	out runOutcome
	err error
}

// progressSnapshot returns the stages the job's run has completed so far.
func (j *job) progressSnapshot() []core.StageTiming {
	if p := j.prog.Load(); p != nil {
		return p.snapshot()
	}
	return nil
}

func (j *job) finish(out runOutcome, err error) {
	j.mu.Lock()
	j.out, j.err = out, err
	j.mu.Unlock()
	close(j.done)
}

func (j *job) result() (runOutcome, error, bool) {
	select {
	case <-j.done:
		j.mu.Lock()
		defer j.mu.Unlock()
		return j.out, j.err, true
	default:
		return runOutcome{}, nil, false
	}
}

// jobTable tracks live and recently finished jobs, bounded: completed jobs
// beyond keep are evicted oldest-first (running jobs are never evicted).
type jobTable struct {
	mu    sync.Mutex
	byID  map[string]*job
	order []string // insertion order, for eviction
	keep  int
}

// jobsKept bounds the finished jobs a server retains.
const jobsKept = 64

func newJobTable(keep int) *jobTable {
	return &jobTable{byID: map[string]*job{}, keep: keep}
}

// jobID derives the content-addressed id for a coalescer key.
func jobID(key string) string {
	h := cache.NewHasher()
	h.String(key)
	return fmt.Sprintf("j%012x", h.Sum()&0xffffffffffff)
}

// getOrCreate returns the job for key, creating (and marking created=true)
// if none is live. A finished job for the same key is replaced — its result
// is served from the result cache anyway on the re-run. A *live* job under
// the same id but a different key is a 48-bit hash collision between two
// request identities; getOrCreate refuses (error) rather than hand one
// request's body to the other.
func (t *jobTable) getOrCreate(key, datasetID, ctype string, now time.Time) (*job, bool, error) {
	id := jobID(key)
	t.mu.Lock()
	defer t.mu.Unlock()
	if j, ok := t.byID[id]; ok {
		_, _, finished := j.result()
		if !finished {
			if j.Key != key {
				return nil, false, fmt.Errorf("serve: job id collision for %s; retry shortly", id)
			}
			return j, false, nil
		}
		// Replacing a finished job under the same id (same key, or a
		// stale colliding one): drop its eviction-order entry so the
		// replacement gets a fresh position instead of inheriting the old
		// job's (oldest-first) slot.
		for i, oid := range t.order {
			if oid == id {
				t.order = append(t.order[:i], t.order[i+1:]...)
				break
			}
		}
	}
	j := &job{
		ID: id, Dataset: datasetID, Key: key, ContentType: ctype,
		Created: now, done: make(chan struct{}),
	}
	t.byID[id] = j
	t.order = append(t.order, id)
	t.evictLocked()
	return j, true, nil
}

// running counts jobs that have not finished — the jobs a shutdown right
// now would abandon.
func (t *jobTable) running() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, j := range t.byID {
		if _, _, finished := j.result(); !finished {
			n++
		}
	}
	return n
}

func (t *jobTable) get(id string) (*job, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	j, ok := t.byID[id]
	return j, ok
}

// evictLocked drops the oldest finished jobs over the keep bound.
func (t *jobTable) evictLocked() {
	for len(t.byID) > t.keep {
		evicted := false
		for i, id := range t.order {
			j, ok := t.byID[id]
			if !ok {
				t.order = append(t.order[:i], t.order[i+1:]...)
				evicted = true
				break
			}
			if _, _, finished := j.result(); finished {
				delete(t.byID, id)
				t.order = append(t.order[:i], t.order[i+1:]...)
				evicted = true
				break
			}
		}
		if !evicted {
			return // everything is still running; never evict live jobs
		}
	}
}
