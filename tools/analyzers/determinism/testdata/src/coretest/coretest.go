// Package coretest exercises the determinism analyzer's numeric-core
// rules: wall-clock reads and global randomness are flagged, seeded
// generators and the nolint escape are not.
package coretest

import (
	"crypto/rand" // want "crypto/rand is non-deterministic"
	mrand "math/rand"
	"time"
)

func flaggedClock(start time.Time) time.Duration {
	_ = time.Now()         // want "reads the wall clock"
	d := time.Since(start) // want "reads the wall clock"
	time.Sleep(1)          // want "reads the wall clock"
	return d
}

func flaggedGlobalRand() float64 {
	mrand.Shuffle(2, func(i, j int) {}) // want "global rand"
	return mrand.Float64()              // want "global rand"
}

func allowedSeeded(seed int64) float64 {
	rng := mrand.New(mrand.NewSource(seed))
	if rng.Intn(2) == 0 {
		return rng.NormFloat64()
	}
	return rng.Float64()
}

// allowedDurations shows that time the *type* and duration arithmetic
// stay legal; only observing the real clock is forbidden.
func allowedDurations(d time.Duration) time.Duration {
	return d * 2
}

func escaped() {
	_ = time.Now() //nolint:determinism — exercising the sanctioned escape hatch
}

func cryptoUse() {
	// The import above is the single flagged site for crypto/rand.
	_, _ = rand.Read(make([]byte, 8))
}
