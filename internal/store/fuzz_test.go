package store

import (
	"bytes"
	"compress/gzip"
	"math"
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

// FuzzReadProfiles feeds ReadProfiles arbitrary profiles.jsonl.gz bytes,
// as a dataset directory from anywhere can hold, both raw and gzipped by
// the test so that mutations reach the JSON lines behind the checksum. The
// invariants: it never panics, and accepted profiles written back read
// back the same. Seeds live in testdata/fuzz/FuzzReadProfiles.
func FuzzReadProfiles(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte) {
		var gz bytes.Buffer
		zw := gzip.NewWriter(&gz)
		zw.Write(raw)
		zw.Close()
		for _, in := range [][]byte{raw, gz.Bytes()} {
			profiles, err := ReadProfiles(bytes.NewReader(in))
			if err != nil {
				continue
			}
			var buf bytes.Buffer
			if err := WriteProfiles(&buf, profiles); err != nil {
				t.Fatal(err)
			}
			again, err := ReadProfiles(&buf)
			if err != nil {
				t.Fatalf("re-reading written profiles: %v", err)
			}
			if len(again) != len(profiles) {
				t.Fatalf("%d profiles read back as %d", len(profiles), len(again))
			}
			for i, p := range profiles {
				q := again[i]
				if !p.CreatedAt.Equal(q.CreatedAt) {
					t.Fatalf("profile %d: created_at %v read back as %v", i, p.CreatedAt, q.CreatedAt)
				}
				p.CreatedAt = q.CreatedAt
				if p != q {
					t.Fatalf("profile %d: %+v read back as %+v", i, profiles[i], again[i])
				}
			}
		}
	})
}

// FuzzReadSeries feeds ReadSeries arbitrary activity.csv bytes. The
// invariants: it never panics; what it accepts has no more days than the
// input has bytes; and an accepted series written back reads back the
// same start and the same value bits. Seeds live in
// testdata/fuzz/FuzzReadSeries.
func FuzzReadSeries(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte) {
		s, err := ReadSeries(bytes.NewReader(raw))
		if err != nil {
			return
		}
		if s.Len() > len(raw) {
			t.Fatalf("%d bytes decoded to %d days", len(raw), s.Len())
		}
		var buf bytes.Buffer
		if err := WriteSeries(&buf, s); err != nil {
			t.Fatal(err)
		}
		again, err := ReadSeries(&buf)
		if err != nil {
			t.Fatalf("re-reading a written series: %v\n%s", err, buf.Bytes())
		}
		if again.Len() != s.Len() || s.Len() > 0 && !again.Start.Equal(s.Start) {
			t.Fatalf("%d days from %v read back as %d from %v", s.Len(), s.Start, again.Len(), again.Start)
		}
		for i, v := range s.Values {
			if math.Float64bits(v) != math.Float64bits(again.Values[i]) {
				t.Fatalf("day %d: %v read back as %v", i, v, again.Values[i])
			}
		}
	})
}
