package features

import (
	"math"
	"testing"
)

// FuzzFeatureShardDecode throws arbitrary bytes at the shard codec. The
// contract under test is the cache-miss discipline: a corrupted entry must
// decode to an error (which the Store treats as a silent miss and the
// pipeline as a recompute), never a panic, and never a partially-populated
// Rows fragment whose range disagrees with what the caller asked for. The
// in-place decoder Store.Load hydrates through gets the same input inside a
// larger matrix: it must agree with the fragment decoder and never write
// outside its shard's rows. The one-row decoder LoadRow reads through must
// accept exactly the same inputs and return the same rows.
func FuzzFeatureShardDecode(f *testing.F) {
	// Seed the corpus with a real encoded shard plus the classic mutations;
	// the checked-in files under testdata/fuzz pin the same shapes.
	m := testMatrix(f, 24)
	valid := encodeShard(m, 0, m.N)
	f.Add(valid, m.N)
	f.Add([]byte{}, 1)
	f.Add(valid[:len(valid)/3], m.N)
	f.Add(append(append([]byte{}, valid...), 0x00), m.N)
	flipped := append([]byte{}, valid...)
	flipped[0] ^= 0x01 // NumFeatures echo
	f.Add(flipped, m.N)
	lenCorrupt := append([]byte{}, valid...)
	lenCorrupt[3] = 0xFF // count varint region
	f.Add(lenCorrupt, m.N)

	f.Fuzz(func(t *testing.T, data []byte, wantCount int) {
		if wantCount < 1 || wantCount > ShardRows {
			wantCount = 1 + (wantCount&0x7FFFFFFF)%ShardRows
		}
		for _, lo := range []int{0, ShardRows} {
			checkInPlaceDecode(t, data, lo, wantCount)
			checkRowDecode(t, data, lo, wantCount)
			r, err := decodeShard(data, lo, wantCount)
			if err != nil {
				if r != nil {
					t.Fatalf("error %v with non-nil rows", err)
				}
				continue
			}
			// A successful decode must be fully hydrated and in range.
			if r == nil {
				t.Fatal("nil rows without error")
			}
			if r.Lo != lo || r.Count() != wantCount {
				t.Fatalf("range mismatch: got lo=%d count=%d want lo=%d count=%d",
					r.Lo, r.Count(), lo, wantCount)
			}
			if len(r.Data) != wantCount*NumFeatures ||
				len(r.Probs) != wantCount*NumClasses ||
				len(r.Class) != wantCount {
				t.Fatalf("partial hydration: %d/%d/%d for count=%d",
					len(r.Data), len(r.Probs), len(r.Class), wantCount)
			}
			for i, c := range r.Class {
				if c >= NumClasses {
					t.Fatalf("Class[%d]=%d out of range", i, c)
				}
			}
		}
	})
}

// checkInPlaceDecode runs decodeShardInto on the window of rows [lo,
// lo+wantCount) with guard rows on both sides, as Store.Load decodes a shard
// inside the whole matrix. It must accept exactly what decodeShard accepts,
// fill the window with the same bits, and leave every guard row as it was.
func checkInPlaceDecode(t *testing.T, data []byte, lo, wantCount int) {
	const guard = 2
	const poison = 0x7ff8dead // a NaN payload no encoder writes
	m := &Rows{
		Lo:    lo - guard,
		Data:  make([]float64, (wantCount+2*guard)*NumFeatures),
		Probs: make([]float64, (wantCount+2*guard)*NumClasses),
		Class: make([]uint8, wantCount+2*guard),
	}
	inWindow := func(row int) bool { return row >= guard && row < guard+wantCount }
	for row := range m.Class {
		if inWindow(row) {
			continue
		}
		for j := row * NumFeatures; j < (row+1)*NumFeatures; j++ {
			m.Data[j] = math.Float64frombits(poison)
		}
		for j := row * NumClasses; j < (row+1)*NumClasses; j++ {
			m.Probs[j] = math.Float64frombits(poison)
		}
		m.Class[row] = 0xEE
	}
	err := decodeShardInto(data, m.window(lo, wantCount))
	want, wantErr := decodeShard(data, lo, wantCount)
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("in-place decode err=%v, fragment decode err=%v", err, wantErr)
	}
	for i, v := range m.Data {
		if row := i / NumFeatures; !inWindow(row) && math.Float64bits(v) != poison {
			t.Fatalf("guard row %d Data written", row)
		} else if inWindow(row) && err == nil &&
			math.Float64bits(v) != math.Float64bits(want.Data[i-guard*NumFeatures]) {
			t.Fatalf("Data[%d] differs from fragment decode", i)
		}
	}
	for i, v := range m.Probs {
		if row := i / NumClasses; !inWindow(row) && math.Float64bits(v) != poison {
			t.Fatalf("guard row %d Probs written", row)
		} else if inWindow(row) && err == nil &&
			math.Float64bits(v) != math.Float64bits(want.Probs[i-guard*NumClasses]) {
			t.Fatalf("Probs[%d] differs from fragment decode", i)
		}
	}
	for row, c := range m.Class {
		if !inWindow(row) && c != 0xEE {
			t.Fatalf("guard row %d Class written", row)
		} else if inWindow(row) && err == nil && c != want.Class[row-guard] {
			t.Fatalf("Class[%d] differs from fragment decode", row)
		}
	}
}

// checkRowDecode runs decodeRow on the first, a middle and the last row of
// the window [lo, lo+wantCount). It must accept exactly what decodeShard
// accepts and return that decode's row bits.
func checkRowDecode(t *testing.T, data []byte, lo, wantCount int) {
	want, wantErr := decodeShard(data, lo, wantCount)
	for _, u := range []int{lo, lo + wantCount/2, lo + wantCount - 1} {
		r, err := decodeRow(data, lo, wantCount, u)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("row %d decode err=%v, fragment decode err=%v", u, err, wantErr)
		}
		if err != nil {
			if r != nil {
				t.Fatalf("row %d: error %v with non-nil rows", u, err)
			}
			continue
		}
		if r.Lo != u || r.Count() != 1 || r.ClassOf(u) != want.ClassOf(u) {
			t.Fatalf("row %d: lo=%d count=%d class=%d, fragment class %d", u, r.Lo, r.Count(), r.ClassOf(u), want.ClassOf(u))
		}
		for j, v := range r.Row(u) {
			if math.Float64bits(v) != math.Float64bits(want.Row(u)[j]) {
				t.Fatalf("row %d feature %d differs from fragment decode", u, j)
			}
		}
		for j, v := range r.ProbsRow(u) {
			if math.Float64bits(v) != math.Float64bits(want.ProbsRow(u)[j]) {
				t.Fatalf("row %d prob %d differs from fragment decode", u, j)
			}
		}
	}
}
