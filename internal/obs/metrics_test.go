package obs

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestRegistryRenderGolden pins the classic exposition bytes the
// registry produces — the same format the hand-rolled serve and fleet
// emitters printed, which CI greps and scripts/fleetload.sh parse.
func TestRegistryRenderGolden(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("demo_total", "Things counted.")
	c.Add(3)
	r.GaugeFunc("demo_uptime_seconds", "Uptime.", 3, func() float64 { return 1.5 })
	g := r.Gauge("demo_workers", "Workers.", GaugeShortest)
	g.Set(2)
	h := r.Histogram("demo_seconds", "Latency.", []float64{0.005, 0.01})
	h.Observe(0.003)
	h.Observe(0.007)
	h.Observe(9)
	cv := r.CounterVec("demo_requests_total", "Requests.", "route", "code")
	cv.Inc("report", "200")
	cv.Inc("healthz", "200")
	cv.Inc("report", "200")
	gv := r.GaugeVec("demo_up", "Per-worker up.", GaugeShortest, "worker")
	gv.Set(1, "b")
	gv.Set(0, "a") // first-Set order, NOT sorted

	var b strings.Builder
	r.Write(&b, false)
	want := `# HELP demo_total Things counted.
# TYPE demo_total counter
demo_total 3
# HELP demo_uptime_seconds Uptime.
# TYPE demo_uptime_seconds gauge
demo_uptime_seconds 1.500
# HELP demo_workers Workers.
# TYPE demo_workers gauge
demo_workers 2
# HELP demo_seconds Latency.
# TYPE demo_seconds histogram
demo_seconds_bucket{le="0.005"} 1
demo_seconds_bucket{le="0.01"} 2
demo_seconds_bucket{le="+Inf"} 3
demo_seconds_sum 9.010000
demo_seconds_count 3
# HELP demo_requests_total Requests.
# TYPE demo_requests_total counter
demo_requests_total{route="healthz",code="200"} 1
demo_requests_total{route="report",code="200"} 2
# HELP demo_up Per-worker up.
# TYPE demo_up gauge
demo_up{worker="b"} 1
demo_up{worker="a"} 0
`
	if got := b.String(); got != want {
		t.Fatalf("classic render:\n%s\nwant:\n%s", got, want)
	}
	if err := ValidateExposition([]byte(b.String())); err != nil {
		t.Fatalf("golden output fails its own validator: %v", err)
	}
}

// TestCounterVecLabelOrder: CounterVec sorts series lexicographically by
// label values, so scrapes are stable regardless of Inc order.
func TestCounterVecLabelOrder(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec("x_total", "X.", "route", "code")
	cv.Inc("b", "500")
	cv.Inc("a", "200")
	cv.Inc("a", "503")
	var b strings.Builder
	r.Write(&b, false)
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")[2:]
	want := []string{
		`x_total{route="a",code="200"} 1`,
		`x_total{route="a",code="503"} 1`,
		`x_total{route="b",code="500"} 1`,
	}
	for i, w := range want {
		if lines[i] != w {
			t.Fatalf("series %d = %q, want %q\nfull:\n%s", i, lines[i], w, b.String())
		}
	}
}

// TestLabelEscaping: backslash, quote and newline escape identically for
// every vec family — the drift between the old emitters this package
// retired.
func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec("esc_total", "Escaping.", "v")
	cv.Inc("a\\b\"c\nd")
	var b strings.Builder
	r.Write(&b, false)
	want := `esc_total{v="a\\b\"c\nd"} 1`
	if !strings.Contains(b.String(), want) {
		t.Fatalf("escaped render missing %q:\n%s", want, b.String())
	}
	if err := ValidateExposition([]byte(b.String())); err != nil {
		t.Fatalf("escaped output invalid: %v", err)
	}
}

// TestExemplarsOnlyInOpenMetrics: classic output carries no exemplars
// (fleetload.sh's awk parsing depends on plain "name value" samples);
// the OM flavor carries them plus the EOF marker.
func TestExemplarsOnlyInOpenMetrics(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "Latency.", DefaultLatencyBuckets)
	h.ObserveExemplar(0.007, "4bf92f3577b34da6a3ce929d0e0e4736")

	var classic, om strings.Builder
	r.Write(&classic, false)
	r.Write(&om, true)
	if strings.Contains(classic.String(), "trace_id") || strings.Contains(classic.String(), "# EOF") {
		t.Fatalf("classic render leaked OM syntax:\n%s", classic.String())
	}
	if !strings.Contains(om.String(), `# {trace_id="4bf92f3577b34da6a3ce929d0e0e4736"} 0.007`) {
		t.Fatalf("OM render missing exemplar:\n%s", om.String())
	}
	if !strings.HasSuffix(om.String(), "# EOF\n") {
		t.Fatalf("OM render missing EOF marker:\n%s", om.String())
	}
	if err := ValidateExposition([]byte(classic.String())); err != nil {
		t.Fatalf("classic render invalid: %v", err)
	}
}

// TestNegotiateExposition: ServeHTTP renders OM, with exemplars and the
// EOF marker, only on an explicit Accept.
func TestNegotiateExposition(t *testing.T) {
	r := NewRegistry()
	r.Histogram("lat_seconds", "Latency.", DefaultLatencyBuckets).
		ObserveExemplar(0.007, "4bf92f3577b34da6a3ce929d0e0e4736")
	scrape := func(accept string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		rec := httptest.NewRecorder()
		r.ServeHTTP(rec, req)
		return rec
	}
	if rec := scrape(""); !strings.Contains(rec.Header().Get("Content-Type"), "0.0.4") ||
		strings.Contains(rec.Body.String(), "# EOF") {
		t.Fatalf("no Accept: ct=%q body:\n%s", rec.Header().Get("Content-Type"), rec.Body.String())
	}
	if rec := scrape("application/openmetrics-text; version=1.0.0"); !strings.Contains(rec.Header().Get("Content-Type"), "openmetrics") ||
		!strings.Contains(rec.Body.String(), "trace_id") || !strings.HasSuffix(rec.Body.String(), "# EOF\n") {
		t.Fatalf("OM Accept: ct=%q body:\n%s", rec.Header().Get("Content-Type"), rec.Body.String())
	}
}

// TestDuplicateRegistrationPanics: duplicate names are programming
// errors and fail loudly.
func TestDuplicateRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("dup_total", "First.")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	r.Counter("dup_total", "Second.")
}

// TestGaugeVecReset: Reset drops all series so scrape handlers can
// rebuild per-worker gauges from a live snapshot.
func TestGaugeVecReset(t *testing.T) {
	r := NewRegistry()
	gv := r.GaugeVec("up", "Up.", GaugeShortest, "worker")
	gv.Set(1, "w1")
	gv.Reset()
	gv.Set(0, "w2")
	var b strings.Builder
	r.Write(&b, false)
	if strings.Contains(b.String(), "w1") || !strings.Contains(b.String(), `up{worker="w2"} 0`) {
		t.Fatalf("Reset did not drop old series:\n%s", b.String())
	}
}

// TestValidateExposition: the validator accepts well-formed exposition
// and rejects each class of malformation with a line number.
func TestValidateExposition(t *testing.T) {
	good := "# HELP a_total A.\n# TYPE a_total counter\na_total 1\n"
	if err := ValidateExposition([]byte(good)); err != nil {
		t.Fatalf("good exposition rejected: %v", err)
	}
	bad := []struct {
		name, in string
	}{
		{"sample without TYPE", "a_total 1\n"},
		{"bad metric name", "# HELP 1bad A.\n# TYPE 1bad counter\n1bad 1\n"},
		{"unknown TYPE kind", "# TYPE a_total thing\na_total 1\n"},
		{"duplicate TYPE", "# TYPE a_total counter\n# TYPE a_total counter\na_total 1\n"},
		{"TYPE after samples", "# TYPE a_total counter\na_total 1\n# TYPE a_total counter\n"},
		{"bad value", "# TYPE a_total counter\na_total xyz\n"},
		{"bad label name", "# TYPE a_total counter\na_total{1x=\"v\"} 1\n"},
		{"unquoted label", "# TYPE a_total counter\na_total{x=v} 1\n"},
		{"bad escape", "# TYPE a_total counter\na_total{x=\"\\q\"} 1\n"},
		{"unterminated label", "# TYPE a_total counter\na_total{x=\"v\" 1\n"},
		{"blank line inside", "# TYPE a_total counter\n\na_total 1\n"},
		{"bucket without le", "# TYPE h histogram\nh_bucket{x=\"1\"} 1\nh_sum 1\nh_count 1\n"},
		{"histogram missing parts", "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 1\n"},
	}
	for _, tc := range bad {
		if err := ValidateExposition([]byte(tc.in)); err == nil {
			t.Errorf("%s: accepted:\n%s", tc.name, tc.in)
		}
	}
}
