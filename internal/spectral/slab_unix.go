//go:build unix

package spectral

import (
	"syscall"
	"unsafe"
)

// mapSlab returns n float64s of zeroed memory from an anonymous private
// mapping, outside the Go heap, and the function that unmaps it. The
// garbage collector neither scans nor counts the mapping, so a large
// Krylov basis does not raise the heap goal, and unmapping returns its
// pages to the system at once. The slab must not be used after release.
// When the mapping fails, mapSlab returns a nil slab and a no-op release,
// and the caller allocates on the heap instead.
func mapSlab(n int) (slab []float64, release func()) {
	if n <= 0 {
		return nil, func() {}
	}
	b, err := syscall.Mmap(-1, 0, n*8, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, func() {}
	}
	// A page-aligned mapping is aligned for float64.
	slab = unsafe.Slice((*float64)(unsafe.Pointer(unsafe.SliceData(b))), n)
	return slab, func() { _ = syscall.Munmap(b) }
}
