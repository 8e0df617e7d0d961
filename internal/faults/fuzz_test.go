package faults

import "testing"

// FuzzParseFaults feeds Parse arbitrary specs, as the -faults flag and the
// ELITES_FAULTS variable pass them through. The invariants: it never
// panics, and it returns exactly one of an error and an injector. Seeds
// live in testdata/fuzz/FuzzParseFaults.
func FuzzParseFaults(f *testing.F) {
	f.Fuzz(func(t *testing.T, spec string, seed uint64) {
		inj, err := Parse(spec, seed)
		if (err == nil) == (inj == nil) {
			t.Fatalf("Parse(%q) = %v, %v: want exactly one of an injector and an error", spec, inj, err)
		}
	})
}
