package outputtest

import (
	"testing"
	"time"
)

// An output package's tests may read the clock and log in map order:
// the rules guard shipped output, not test diagnostics.
func TestExempt(t *testing.T) {
	start := time.Now()
	for k := range map[string]int{"a": 1} {
		t.Logf("%s after %v", k, time.Since(start))
	}
}
