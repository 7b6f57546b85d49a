//go:build !race

package core

import (
	"runtime"
	"runtime/debug"
	"testing"

	"abftchol/internal/fault"
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

// TestModelTrialAllocations pins the allocation count of one
// model-plane trial, the unit a reliability campaign runs thousands
// of: laptop, n=512, b=32, K=2, Enhanced. A trial takes its executor,
// platform, streams, ledger and injector from execPool, so in steady
// state it allocates only what its Result returns: nothing fault-free,
// and the one-entry Injections history with one storage fault. Each
// ceiling is that count plus 2: a GC that empties the pool makes one
// of the ten measured runs build its executor again, about 28
// allocations, which adds 2 to the per-run average. Before
// the pool the same trials took 24 and 29 allocations; before kernel
// names were formatted lazily and the fault ledger, the verification
// lists and the model-plane verifier stopped allocating, 234 and 241.
func TestModelTrialAllocations(t *testing.T) {
	o := Options{Profile: hetsim.Laptop(), N: 512, BlockSize: 32, K: 2, Scheme: SchemeEnhanced}
	for _, c := range []struct {
		name      string
		scenarios []fault.Scenario
		ceiling   float64
	}{
		{"fault-free", nil, 2},
		{"one storage fault", []fault.Scenario{fault.DefaultStorage(3)}, 3},
	} {
		o.Scenarios = c.scenarios
		got := testing.AllocsPerRun(10, func() {
			if _, err := Run(o); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s trial: %v allocations", c.name, got)
		if got > c.ceiling {
			t.Errorf("%s trial: %v allocations, ceiling %v", c.name, got, c.ceiling)
		}
	}
}
