//go:build !race

package core

import (
	"runtime"
	"runtime/debug"
	"testing"

	"abftchol/internal/hetsim"
	"abftchol/internal/mat"
)

// TestRunKeepsOneMatrixCopy pins that a real-plane run allocates one
// n x n matrix, its working copy, which becomes Result.L: everything
// else it allocates (checksums, scratch, bookkeeping) stays well under
// half a matrix. The race detector's instrumentation would distort the
// count, hence the build tag.
func TestRunKeepsOneMatrixCopy(t *testing.T) {
	const n, b = 256, 64
	o := Options{Profile: hetsim.Laptop(), N: n, BlockSize: b, Scheme: SchemeEnhanced, ConcurrentRecalc: true, Data: mat.RandSPD(n, 3)}
	// A GC empties the BLAS packing pool, and refilling it would cost
	// about a matrix per worker; with the collector off, the warm-up
	// run's buffers stay pooled for the measured one.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	// sync.Pool keeps a cache per P: a buffer Put on one P is missed by
	// a Get on another and allocated again. One P keeps the warm-up's
	// buffers where the measured run looks for them.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	mustRun(t, o)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	mustRun(t, o)
	runtime.ReadMemStats(&after)
	const limit = 1.5 * 8 * n * n
	if got := after.TotalAlloc - before.TotalAlloc; got >= limit {
		t.Fatalf("Run allocated %d bytes, want under %d (1.5 copies of the matrix)", got, uint64(limit))
	}
}
