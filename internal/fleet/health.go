package fleet

import (
	"context"
	"encoding/json"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// health.go is the router's active health model. A background prober hits
// every worker's /healthz on a fixed cadence; consecutive failures eject
// the worker (it receives no traffic), the first healthy probe readmits
// it to probation, and a clean streak promotes it back to up — with any
// wobble during probation sending it straight back down. Probes travel
// through the same fault-injected transport as real requests, so a chaos
// spec that drops a worker's connections also ejects it, exactly as a
// real partition would. A draining worker answers /healthz with 503 and
// is ejected the same way: drain + ejection is the fleet's graceful
// removal path.
//
// Healthy probes double as the dataset-digest learning channel: the first
// clean probe after (re)admission fetches the worker's /v1/datasets
// listing and records each dataset's content digest, so the router's
// identity keys match the workers' own cache identities.

// probeLoop runs until Close; probeDone closes on exit.
func (rt *Router) probeLoop() {
	defer close(rt.probeDone)
	t := time.NewTicker(rt.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-rt.probeStop:
			return
		case <-t.C:
			rt.probeAll(context.Background())
		}
	}
}

// probeAll probes every worker once, concurrently, and applies the state
// machine. Exported via ProbeNow for synchronous use (startup, tests).
func (rt *Router) probeAll(ctx context.Context) {
	var wg sync.WaitGroup
	for _, wk := range rt.workers {
		wg.Add(1)
		go func(wk *worker) {
			defer wg.Done()
			rt.probeWorker(ctx, wk)
		}(wk)
	}
	wg.Wait()
}

// ProbeNow runs one synchronous probe round, so callers can settle the
// fleet view before serving (and tests can step the state machine
// deterministically).
func (rt *Router) ProbeNow(ctx context.Context) { rt.probeAll(ctx) }

func (rt *Router) probeWorker(ctx context.Context, wk *worker) {
	timeout := rt.cfg.ProbeInterval
	if timeout > time.Second {
		timeout = time.Second
	}
	pctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()

	ok := rt.probeOnce(pctx, wk, "/healthz") == http.StatusOK
	if !ok {
		rt.met.probeFails.Inc()
	}
	ejected, readmitted := wk.noteProbe(ok, rt.cfg.EjectAfter, rt.cfg.ProbationProbes)
	if ejected {
		rt.met.ejections.Inc()
		wk.mu.Lock()
		wk.sawDigests = false
		wk.mu.Unlock()
		if lg := rt.cfg.Logger; lg != nil {
			lg.Warn("worker ejected", "worker", wk.name)
		}
	}
	if readmitted {
		rt.met.readmissions.Inc()
		if lg := rt.cfg.Logger; lg != nil {
			lg.Info("worker readmitted", "worker", wk.name)
		}
	}
	if ok {
		wk.mu.Lock()
		saw := wk.sawDigests
		wk.sawDigests = true
		wk.mu.Unlock()
		if !saw {
			rt.learnDigests(pctx, wk)
		}
	}
}

// probeOnce GETs one worker path through the (fault-injected) transport
// and returns the status code, or 0 on a transport failure.
func (rt *Router) probeOnce(ctx context.Context, wk *worker, path string) int {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, wk.url.String()+path, nil)
	if err != nil {
		return 0
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		return 0
	}
	defer resp.Body.Close()
	// Drain a bounded amount so the connection can be reused.
	buf := make([]byte, 4096)
	for {
		if _, err := resp.Body.Read(buf); err != nil {
			break
		}
	}
	return resp.StatusCode
}

// learnDigests fetches the worker's dataset listing and records each
// dataset's content digest for identity routing. Failures are silent —
// routing falls back to hashing the dataset id, which is still stable.
func (rt *Router) learnDigests(ctx context.Context, wk *worker) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, wk.url.String()+"/v1/datasets", nil)
	if err != nil {
		return
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return
	}
	var listing struct {
		Datasets []struct {
			ID     string `json:"id"`
			Digest string `json:"digest"`
		} `json:"datasets"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&listing); err != nil {
		return
	}
	rt.digestMu.Lock()
	for _, d := range listing.Datasets {
		if v, err := strconv.ParseUint(d.Digest, 16, 64); err == nil {
			rt.digests[d.ID] = v
		}
	}
	rt.digestMu.Unlock()
}
