// Seeded determinism bug: a wall-clock read in the numeric core, where
// the same seed must reproduce the same run.
package core

import "time"

// stamp labels a run with the host clock, so no two runs agree.
func stamp() int64 {
	return time.Now().UnixNano()
}

var _ = stamp
