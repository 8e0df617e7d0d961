package fleet

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"strings"

	"elites/internal/faults"
)

// transport.go injects the fleet's network fault surface into the router's
// HTTP transport. Every proxied attempt consults the injector at
// "net:<worker host:port>" before touching the wire, so a chaos spec like
// "net:127.0.0.1:9001=drop:times=3,net:*=slow:delay=5ms:p=0.2" produces
// deterministic connection drops, added latency and 5xx bursts — the
// failure menu the retry/breaker machinery exists to absorb —
// without a flaky network or iptables.

// faultTransport wraps a base RoundTripper with injected network faults.
type faultTransport struct {
	base http.RoundTripper
	inj  *faults.Injector
}

// RoundTrip consults the injector for the target worker. KindSlow rules
// delay in Net (honoring the request context); a KindDrop error surfaces
// as a transport failure (torn connection); a Kind5xx error synthesizes a
// 503 from the worker without touching it, like an overloaded or crashing
// replica answering from its front door.
func (t *faultTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if err := t.inj.Net(req.Context(), req.URL.Host); err != nil {
		switch {
		case errors.Is(err, faults.ErrHTTP5xx):
			body := `{"error":"injected upstream 5xx"}` + "\n"
			return &http.Response{
				StatusCode:    http.StatusServiceUnavailable,
				Status:        "503 Service Unavailable",
				Proto:         req.Proto,
				ProtoMajor:    req.ProtoMajor,
				ProtoMinor:    req.ProtoMinor,
				Header:        http.Header{"Content-Type": []string{"application/json"}},
				Body:          io.NopCloser(strings.NewReader(body)),
				ContentLength: int64(len(body)),
				Request:       req,
			}, nil
		default:
			// Drops, context expiry from a slow rule, and any other
			// injected failure all surface as transport errors.
			return nil, err
		}
	}
	return t.base.RoundTrip(req)
}

// upstreamResponse is one fully-read worker response: the attempt loop
// buffers bodies so a failed attempt's answer can be discarded for a
// retry and the served one written whole.
type upstreamResponse struct {
	status int
	header http.Header
	body   []byte
}

// copyHeaders transplants the response headers a client needs from a
// buffered upstream response (Content-Length is recomputed by the writer).
func (u *upstreamResponse) copyHeaders(dst http.Header) {
	for _, k := range []string{"Content-Type", "Warning", "Retry-After", "X-Elites-Identity"} {
		if v := u.header.Get(k); v != "" {
			dst.Set(k, v)
		}
	}
}

// readResponse drains and closes an *http.Response into an
// upstreamResponse, capped at maxResponseBody.
func readResponse(resp *http.Response) (*upstreamResponse, error) {
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxResponseBody))
	if err != nil {
		return nil, err
	}
	return &upstreamResponse{status: resp.StatusCode, header: resp.Header, body: body}, nil
}

// bodyReader returns a fresh reader over the buffered request body for one
// attempt (every retry re-sends the same bytes).
func bodyReader(body []byte) io.ReadCloser {
	if len(body) == 0 {
		return http.NoBody
	}
	return io.NopCloser(bytes.NewReader(body))
}
