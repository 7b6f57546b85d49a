//go:build !race

package experiments

import "testing"

// TestClaimOnMemoHitDoesNotAllocate pins that the guarded memo costs
// no allocation per lookup. A campaign calls claim once per trial, so
// a lock closure that escaped to the heap would show up in its
// per-trial allocation.
func TestClaimOnMemoHitDoesNotAllocate(t *testing.T) {
	s := NewScheduler(1, nil)
	const fp = "0123456789abcdef"
	first, created := s.claim(fp)
	if !created {
		t.Fatal("the first claim of a fingerprint did not create its outcome")
	}
	if a := testing.AllocsPerRun(100, func() {
		if oc, created := s.claim(fp); created || oc != first {
			t.Fatal("a memo hit created a new outcome")
		}
	}); a != 0 {
		t.Fatalf("claim on a memo hit allocated %.1f times per call, want 0", a)
	}
}
