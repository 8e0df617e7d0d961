package fleet

import (
	"fmt"
	"net/url"
	"sort"
	"strings"
	"sync"

	"elites/internal/cache"
	"elites/internal/faults"
)

// worker.go is the per-worker half of the fleet's robustness machinery:
// the health state machine the prober drives (up → down after consecutive
// probe failures, down → probation on the first healthy probe, probation →
// up after a streak of clean probes — with any failure during probation
// sending the worker straight back down), and a request-path
// faults.Breaker, the same breaker as the result cache's disk tier
// (consecutive request failures open it; while open the worker is skipped
// except for a periodic pass-through probe request).

// workerState is the health prober's verdict on one worker.
type workerState int

const (
	// stateUp: serving normally.
	stateUp workerState = iota
	// stateProbation: readmitted after an ejection, serving traffic again,
	// but one probe or request failure sends it straight back down.
	stateProbation
	// stateDown: ejected; receives no traffic until a probe succeeds.
	stateDown
)

func (s workerState) String() string {
	switch s {
	case stateUp:
		return "up"
	case stateProbation:
		return "probation"
	case stateDown:
		return "down"
	}
	return fmt.Sprintf("workerState(%d)", int(s))
}

// worker is one eliteserve replica plus its health and breaker state.
type worker struct {
	url  *url.URL
	name string // host:port — the metrics label and fault point ("net:<name>")
	hash uint64 // rendezvous half, fixed at construction

	mu         sync.Mutex
	state      workerState
	probeFails int // consecutive failed probes
	probeOKs   int // consecutive clean probes while in probation

	br       faults.Breaker
	requests uint64 // proxied attempts sent to this worker
	failures uint64 // attempts that failed (transport error or 5xx)

	identities map[string]string // dataset id -> identity, as the last healthy probe listed them
}

// newWorker parses one base URL ("http://127.0.0.1:9001").
func newWorker(raw string) (*worker, error) {
	if !strings.Contains(raw, "://") {
		raw = "http://" + raw
	}
	u, err := url.Parse(raw)
	if err != nil {
		return nil, fmt.Errorf("fleet: worker url %q: %w", raw, err)
	}
	if u.Host == "" {
		return nil, fmt.Errorf("fleet: worker url %q has no host", raw)
	}
	u.Path, u.RawQuery, u.Fragment = "", "", ""
	h := cache.NewHasher()
	h.String("fleet/worker")
	h.String(u.Host)
	return &worker{url: u, name: u.Host, hash: h.Sum()}, nil
}

// score is this worker's rendezvous (highest-random-weight) score for an
// identity key: a pure function of (worker, key), so every router instance
// ranks the same workers identically and a worker leaving never remaps
// identities between the survivors.
func (w *worker) score(key uint64) uint64 {
	h := cache.NewHasher()
	h.Word(w.hash)
	h.Word(key)
	return h.Sum()
}

// rendezvousOrder ranks workers for key by descending score (name-ordered
// on the vanishingly unlikely tie, for determinism).
func rendezvousOrder(workers []*worker, key uint64) []*worker {
	out := make([]*worker, len(workers))
	copy(out, workers)
	sort.SliceStable(out, func(i, j int) bool {
		si, sj := out[i].score(key), out[j].score(key)
		if si != sj {
			return si > sj
		}
		return out[i].name < out[j].name
	})
	return out
}

// selectable reports whether this worker may receive the next request:
// never while down; while the breaker is open, only as the periodic
// pass-through probe (every faults.BreakerProbeAfter-th ask).
func (w *worker) selectable() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.state != stateDown && w.br.Allow()
}

// available reports whether the prober currently considers the worker
// servable (up or probation) — the eliterouter_worker_up gauge.
func (w *worker) available() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.state != stateDown
}

// learn replaces the identities the worker lists with those of its latest
// healthy probe: a dataset it no longer serves, or serves under other
// options, stops naming the old identity's bodies.
func (w *worker) learn(identities map[string]string) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.identities = identities
}

// identityOf is the identity the worker's last healthy probe listed for a
// dataset, "" for none.
func (w *worker) identityOf(dataset string) string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.identities[dataset]
}

// noteRequestSuccess records a successful proxied attempt: the breaker
// closes (the live request doubled as its half-open probe) and the
// failure streak resets.
func (w *worker) noteRequestSuccess() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.requests++
	w.br.Success()
}

// noteRequestFailure records a failed attempt; enough in a row trip the
// breaker, and any failure while in probation re-ejects the worker.
// It reports whether this failure tripped the breaker.
func (w *worker) noteRequestFailure() (tripped bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.requests++
	w.failures++
	if w.state == stateProbation {
		w.state = stateDown
		w.probeOKs = 0
	}
	return w.br.Failure()
}

// probationProbes is the clean-probe streak that promotes a readmitted
// worker from probation back to up.
const probationProbes = 3

// noteProbe feeds one health-probe outcome through the state machine.
// ejectAfter is the consecutive-failure ejection threshold. It reports
// state transitions for the metrics (ejected, readmitted to probation).
func (w *worker) noteProbe(ok bool, ejectAfter int) (ejected, readmitted bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if ok {
		w.probeFails = 0
		switch w.state {
		case stateDown:
			w.state = stateProbation
			w.probeOKs = 1
			readmitted = true
		case stateProbation:
			w.probeOKs++
			if w.probeOKs >= probationProbes {
				w.state = stateUp
				w.probeOKs = 0
			}
		}
		// A reachable worker also closes the request breaker: the probe is
		// the half-open check.
		w.br.Success()
		return
	}
	w.probeFails++
	w.probeOKs = 0
	switch w.state {
	case stateProbation:
		w.state = stateDown
		ejected = true
	case stateUp:
		if w.probeFails >= ejectAfter {
			w.state = stateDown
			ejected = true
		}
	}
	return
}

// workerInfo is the JSON row for GET /fleet/workers and the metrics
// snapshot.
type workerInfo struct {
	Worker      string `json:"worker"`
	State       string `json:"state"`
	BreakerOpen bool   `json:"breaker_open"`
	Requests    uint64 `json:"requests"`
	Failures    uint64 `json:"failures"`
	ProbeFails  int    `json:"probe_fails"`

	brTrips uint64
}

func (w *worker) info() workerInfo {
	w.mu.Lock()
	defer w.mu.Unlock()
	return workerInfo{
		Worker:      w.name,
		State:       w.state.String(),
		BreakerOpen: w.br.Open(),
		Requests:    w.requests,
		Failures:    w.failures,
		ProbeFails:  w.probeFails,
		brTrips:     w.br.Trips(),
	}
}
