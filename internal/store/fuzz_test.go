package store

import (
	"bytes"
	"slices"
	"testing"
)

// FuzzReadGraph feeds ReadGraph arbitrary graph.bin bytes, as a dataset
// directory from anywhere can hold. The invariants: it never panics; what
// it accepts has no more nodes and edges than the input has bytes (each
// row and each edge costs at least one), so memory follows the input and
// not the header's claims; and an accepted graph written back reads back
// the same. Seeds live in testdata/fuzz/FuzzReadGraph, among them a
// header that claims 2^62 edges for a 15-byte file.
func FuzzReadGraph(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte) {
		g, err := ReadGraph(bytes.NewReader(raw))
		if err != nil {
			return
		}
		if g.NumNodes() > len(raw) || g.NumEdges() > int64(len(raw)) {
			t.Fatalf("%d bytes decoded to %d nodes and %d edges", len(raw), g.NumNodes(), g.NumEdges())
		}
		var buf bytes.Buffer
		if err := WriteGraph(&buf, g); err != nil {
			t.Fatal(err)
		}
		again, err := ReadGraph(&buf)
		if err != nil {
			t.Fatalf("re-reading a written graph: %v", err)
		}
		off, adj := g.CSR()
		off2, adj2 := again.CSR()
		if !slices.Equal(off, off2) || !slices.Equal(adj, adj2) {
			t.Fatal("an accepted graph does not round-trip")
		}
	})
}
