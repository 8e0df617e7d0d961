//go:build !unix

package spectral

// mapSlab has no off-heap mapping on this platform: it returns a nil slab,
// and the caller allocates each basis vector on the heap.
func mapSlab(n int) (slab []float64, release func()) { return nil, func() {} }
