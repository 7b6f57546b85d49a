package server

import (
	"time"

	"abftchol/internal/guard"
)

// rateLimiter is a per-client token bucket: each client starts with
// burst tokens, every submission spends one, and tokens refill at rate
// per second up to burst. Time comes from the injected clock, so the
// limiter is as deterministic as its caller — a fixed clock never
// refills, which is exactly what the documentation generator uses to
// capture a reproducible 429.
type rateLimiter struct {
	rate  float64 // tokens per second
	burst float64
	now   func() time.Time

	buckets guard.Mutex[map[string]*bucket]
}

type bucket struct {
	tokens float64
	last   time.Time
}

func newRateLimiter(rate, burst float64, now func() time.Time) *rateLimiter {
	l := &rateLimiter{rate: rate, burst: burst, now: now}
	l.buckets.Do(func(m *map[string]*bucket) { *m = make(map[string]*bucket) })
	return l
}

// allow spends one token for key. When the bucket is empty it reports
// false and how long until a full token has refilled — the Retry-After
// hint.
func (l *rateLimiter) allow(key string) (ok bool, retry time.Duration) {
	now := l.now()
	l.buckets.Do(func(m *map[string]*bucket) {
		buckets := *m
		b, found := buckets[key]
		if !found {
			pruneBuckets(buckets, l.burst)
			b = &bucket{tokens: l.burst, last: now}
			buckets[key] = b
		} else {
			b.tokens += now.Sub(b.last).Seconds() * l.rate
			if b.tokens > l.burst {
				b.tokens = l.burst
			}
			b.last = now
		}
		if b.tokens >= 1 {
			b.tokens--
			ok = true
			return
		}
		need := (1 - b.tokens) / l.rate
		retry = time.Duration(need * float64(time.Second))
	})
	return ok, retry
}

// pruneBuckets caps the bucket map: full buckets carry no history (a
// new bucket behaves identically), so they are safe to forget.
func pruneBuckets(buckets map[string]*bucket, burst float64) {
	if len(buckets) < 1024 {
		return
	}
	for k, b := range buckets {
		if b.tokens >= burst {
			delete(buckets, k)
		}
	}
}
