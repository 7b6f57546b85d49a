package coretest

import (
	"testing"
	"time"
)

// The numeric core's tests replay seeded runs too, so the input rules
// reach them.
func TestClock(t *testing.T) {
	_ = time.Now() // want "reads the wall clock"
}
