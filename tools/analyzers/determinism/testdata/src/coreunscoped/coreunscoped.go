// Package coreunscoped holds wall-clock code the determinism analyzer
// would flag in a numeric-core package, loaded under an import path
// outside both of its rule sets: the analyzer must stay silent, proving
// the AppliesTo scoping works.
package coreunscoped

import "time"

func wallClockIsFineHere() time.Time {
	return time.Now()
}
