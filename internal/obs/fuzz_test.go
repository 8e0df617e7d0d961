package obs

import (
	"strings"
	"testing"
)

// FuzzParseTraceparent feeds ParseTraceparent arbitrary header values, as
// any client can send. The invariants: it never panics, it never accepts
// an all-zero id or an upper-case version, trace id, parent id or flags
// field, and every accepted value re-renders through Traceparent and
// parses back to the same ids. A value accepted under a later version
// re-renders under "00" with its extra fields dropped. Seeds live in
// testdata/fuzz/FuzzParseTraceparent.
func FuzzParseTraceparent(f *testing.F) {
	f.Fuzz(func(t *testing.T, v string) {
		trace, parent, ok := ParseTraceparent(v)
		if !ok {
			if !trace.IsZero() || !parent.IsZero() {
				t.Fatalf("rejected %q but returned ids %s %s", v, trace, parent)
			}
			return
		}
		if trace.IsZero() || parent.IsZero() {
			t.Fatalf("accepted %q with a zero id", v)
		}
		for _, field := range strings.Split(strings.TrimSpace(v), "-")[:4] {
			if field != strings.ToLower(field) {
				t.Fatalf("accepted %q with upper-case field %q", v, field)
			}
		}
		re := (&Span{trace: trace, id: parent}).Traceparent()
		trace2, parent2, ok2 := ParseTraceparent(re)
		if !ok2 || trace2 != trace || parent2 != parent {
			t.Fatalf("%q re-rendered as %q parses to %s %s ok=%v", v, re, trace2, parent2, ok2)
		}
	})
}
