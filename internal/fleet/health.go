package fleet

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
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
// Healthy probes double as the identity learning channel: a worker's
// /healthz lists each dataset's identity (dataset digest and result
// digest), and the router reads last-known-good bodies only under the
// identities it learned this way.

// maxHealthBody bounds the /healthz body a probe reads. A longer body still
// counts as healthy on a 200, but teaches no identities.
const maxHealthBody = 64 << 10

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

	status, identities := rt.probeOnce(pctx, wk)
	ok := status == http.StatusOK
	if !ok {
		rt.met.probeFails.Inc()
	}
	ejected, readmitted := wk.noteProbe(ok, rt.cfg.EjectAfter)
	if ejected {
		rt.met.ejections.Inc()
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
		rt.identityMu.Lock()
		for id, identity := range identities {
			rt.identities[id] = identity
		}
		rt.identityMu.Unlock()
	}
}

// probeOnce GETs the worker's /healthz through the (fault-injected)
// transport and returns the status code (0 on a transport failure) and the
// dataset identities the body lists. It reads at most maxHealthBody bytes.
func (rt *Router) probeOnce(ctx context.Context, wk *worker) (status int, identities map[string]string) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, wk.url.String()+"/healthz", nil)
	if err != nil {
		return 0, nil
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		return 0, nil
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, maxHealthBody+1))
	var health struct {
		Identities map[string]string `json:"identities"`
	}
	if err != nil || len(raw) > maxHealthBody || json.Unmarshal(raw, &health) != nil {
		return resp.StatusCode, nil
	}
	return resp.StatusCode, health.Identities
}
