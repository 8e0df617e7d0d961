package parallel

import (
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"
	"time"
)

func TestChunkReduceCoversRange(t *testing.T) {
	for _, n := range []int{0, 1, 5, 100, 4097} {
		for _, workers := range []int{0, 1, 3, 16} {
			var total atomic.Int64
			parts := ChunkReduce(n, 7, workers, func(lo, hi int) int {
				s := 0
				for i := lo; i < hi; i++ {
					total.Add(1)
					s += i
				}
				return s
			})
			sum := 0
			for _, p := range parts {
				sum += p
			}
			want := n * (n - 1) / 2
			if sum != want {
				t.Fatalf("n=%d workers=%d: sum=%d want %d", n, workers, sum, want)
			}
			if int(total.Load()) != n {
				t.Fatalf("n=%d workers=%d: visited %d items", n, workers, total.Load())
			}
		}
	}
}

// TestChunkReduceOrderInvariant checks the determinism contract: the
// per-chunk output layout is identical at every worker count, so an ordered
// fold over it cannot depend on scheduling.
func TestChunkReduceOrderInvariant(t *testing.T) {
	const n, chunk = 1000, 13
	fn := func(lo, hi int) [2]int { return [2]int{lo, hi} }
	ref := ChunkReduce(n, chunk, 1, fn)
	for _, workers := range []int{2, 4, 7, 32} {
		got := ChunkReduce(n, chunk, workers, fn)
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("workers=%d: chunk layout differs from sequential", workers)
		}
	}
}

func TestChunkReduceDegenerateChunk(t *testing.T) {
	parts := ChunkReduce(10, 0, 4, func(lo, hi int) int { return hi - lo })
	if len(parts) != 1 || parts[0] != 10 {
		t.Fatalf("chunk<=0 must yield one full-range chunk, got %v", parts)
	}
}

// TestChunkFoldInOrder checks ChunkFold's contract under a schedule that
// finishes chunks out of order: one chunk in eight, at random, sleeps 20
// times longer than the rest, yet fold must see every chunk exactly once
// and in index order, and at no time may more than 2·workers chunks be
// started but not yet folded (without the bound, the other workers run
// far ahead of a slow chunk).
func TestChunkFoldInOrder(t *testing.T) {
	const n, chunk = 157, 4 // 40 chunks, the last one short
	chunks := (n + chunk - 1) / chunk
	for _, workers := range []int{1, 2, 3, 8} {
		rng := rand.New(rand.NewSource(int64(workers)))
		delay := make([]time.Duration, chunks)
		for c := range delay {
			delay[c] = time.Millisecond
			if rng.Intn(8) == 0 {
				delay[c] *= 20
			}
		}
		var live, peak atomic.Int64
		var got [][2]int
		ChunkFold(n, chunk, workers, func(lo, hi int) [2]int {
			l := live.Add(1)
			for p := peak.Load(); l > p && !peak.CompareAndSwap(p, l); p = peak.Load() {
			}
			time.Sleep(delay[lo/chunk])
			return [2]int{lo, hi}
		}, func(r [2]int) {
			live.Add(-1)
			got = append(got, r)
		})
		if len(got) != chunks {
			t.Fatalf("workers=%d: folded %d chunks, want %d", workers, len(got), chunks)
		}
		for c, r := range got {
			if want := [2]int{c * chunk, min(c*chunk+chunk, n)}; r != want {
				t.Fatalf("workers=%d: fold %d saw chunk %v, want %v", workers, c, r, want)
			}
		}
		if p := peak.Load(); p > int64(2*workers) {
			t.Fatalf("workers=%d: %d chunks held at once, bound is %d", workers, p, 2*workers)
		}
	}
}

func TestWorkers(t *testing.T) {
	if Workers(3) != 3 {
		t.Fatal("positive budget must pass through")
	}
	if Workers(0) < 1 || Workers(-5) < 1 {
		t.Fatal("non-positive budget must resolve to at least one worker")
	}
}
