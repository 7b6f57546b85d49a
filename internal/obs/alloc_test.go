//go:build !race

package obs

import "testing"

// TestCounterAddDoesNotAllocate pins that the guarded registry costs
// no allocation per emission: the function passed to the lock must
// stay on the stack.
func TestCounterAddDoesNotAllocate(t *testing.T) {
	r := NewRegistry()
	if a := testing.AllocsPerRun(100, func() {
		r.Add("kernel.launches.gemm", 2)
		r.Inc("run.count")
	}); a != 0 {
		t.Fatalf("Add+Inc allocated %.1f times per call, want 0", a)
	}
	if got := r.Counter("kernel.launches.gemm"); got < 200 {
		t.Fatalf("counter %d after the timed calls, want at least 200", got)
	}
}
