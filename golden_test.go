package elites

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"elites/internal/core"
	"elites/internal/serve"
	"elites/internal/twitter"
)

// reportGolden pins the bytes of three outputs for the instance
// `eliteanalyze -n 2000 -seed 7` builds (default options otherwise):
//
//   - text: the rendered report, i.e. eliteanalyze's stdout;
//   - json: the GET /report body as eliteserve writes it;
//   - batch: the users:batch body for ranks 1,2,3, i.e. the stdout of
//     `eliteanalyze -n 2000 -seed 7 -features 1,2,3`.
//
// A refactor must leave every hash unchanged. A change that bumps a codec
// or deliberately changes a number may update a hash, and says why in
// CHANGES.md.
var reportGolden = map[string]string{
	"text":  "e1de2271db3e6a0cb296f11ae39aaeceb90cd2e474e946faa5b59b469a40dab2",
	"json":  "65533fcb9b0d75db6274a6e91327768bb24179ef3de6466c146e20046b5a8b5b",
	"batch": "8f7d0a55c5d1b2b7b24d02a3ec002400fc2132ffb64febea65d8af87526d1e46",
}

// reportGoldenViewVersion is the core.ViewVersion the hashes above were
// taken at. Served bodies are stored in the result cache under that
// version, so a change to their bytes and a version bump land together:
// update both here in the same edit.
const reportGoldenViewVersion = 1

func TestReportGolden(t *testing.T) {
	if core.ViewVersion != reportGoldenViewVersion {
		t.Fatalf("core.ViewVersion is %d, the golden hashes were taken at %d: re-take them and record the new version",
			core.ViewVersion, reportGoldenViewVersion)
	}
	if testing.Short() {
		t.Skip("full battery at n=2000")
	}
	cfg := twitter.DefaultPlatformConfig(2000)
	cfg.Seed = 7
	p, err := twitter.NewPlatform(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := twitter.DatasetFromPlatform(p)
	if err != nil {
		t.Fatal(err)
	}
	activity := p.ActivitySeries(p.EnglishNodes())
	opts := core.Options{Seed: 7}

	rep, err := core.NewCharacterizer(opts).Run(ds, activity)
	if err != nil {
		t.Fatal(err)
	}
	var text bytes.Buffer
	rep.Render(&text)

	srv := serve.New(serve.Config{Options: opts})
	if err := srv.RegisterDataset("golden", ds, activity, "test"); err != nil {
		t.Fatal(err)
	}
	fetch := func(method, path, body string) []byte {
		t.Helper()
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s %s: status %d: %s", method, path, rec.Code, rec.Body)
		}
		return rec.Body.Bytes()
	}
	got := map[string][]byte{
		"text":  text.Bytes(),
		"json":  fetch(http.MethodGet, "/v1/datasets/golden/report", ""),
		"batch": fetch(http.MethodPost, "/v1/datasets/golden/users:batch", `{"ranks":[1,2,3]}`),
	}
	for _, name := range []string{"text", "json", "batch"} {
		sum := sha256.Sum256(got[name])
		if h := hex.EncodeToString(sum[:]); h != reportGolden[name] {
			t.Errorf("%s: sha256 %s, golden %s (%d bytes)", name, h, reportGolden[name], len(got[name]))
		}
	}
}
