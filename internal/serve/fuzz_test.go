package serve

import (
	"slices"
	"strings"
	"testing"

	"elites/internal/core"
)

// FuzzParseStages feeds parseStages arbitrary ?stages= values, as any
// client can send. The invariants: it never panics, what it accepts is a
// subset of core.StageNames() in canonical order without repeats, and
// feeding the joined result back in returns the same slice, so every
// spelling of a subset shares one coalescing and cache key. Seeds live in
// testdata/fuzz/FuzzParseStages.
func FuzzParseStages(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw string) {
		stages, err := parseStages(raw)
		if err != nil {
			return
		}
		next := 0
		for _, s := range stages {
			i := slices.Index(core.StageNames()[next:], s)
			if i < 0 {
				t.Fatalf("%q: %v is not a canonical-order subset of %v", raw, stages, core.StageNames())
			}
			next += i + 1
		}
		again, err := parseStages(strings.Join(stages, ","))
		if err != nil || !slices.Equal(again, stages) {
			t.Fatalf("%q: %v re-parses to %v (err %v)", raw, stages, again, err)
		}
	})
}
