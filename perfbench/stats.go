package main

import (
	"math"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
)

// minBeyond is how many samples must lie above a reported tail
// percentile.
const minBeyond = 10

// sample is what one timed loop measured.
type sample struct {
	opMs  []float64 // wall-time latency samples, ms per operation
	cpuMs []float64 // process CPU time of each timed window, ms per operation
	ops   int       // operations completed
	alloc uint64    // heap bytes allocated during the loop
}

// window records a timed window of n operations that used cpu of
// process CPU time.
func (s *sample) window(n int, cpu time.Duration) {
	s.cpuMs = append(s.cpuMs, ms(cpu)/float64(n))
	s.ops += n
}

// cpuTime is the CPU time the process has used, user and system. With
// paravirtual steal accounting the guest kernel leaves out the time the
// hypervisor gave to other guests, so a busy host stretches wall time
// but not this.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// meter counts the heap bytes allocated since it started.
type meter struct{ start runtime.MemStats }

func startMeter() *meter {
	runtime.GC()
	m := &meter{}
	runtime.ReadMemStats(&m.start)
	return m
}

func (m *meter) allocated() uint64 {
	var now runtime.MemStats
	runtime.ReadMemStats(&now)
	return now.TotalAlloc - m.start.TotalAlloc
}

// tally counts attempted operations and failed output checks. The
// daemon workload's clients record into it concurrently.
type tally struct {
	mu        sync.Mutex // guards the fields below
	attempted int
	failed    int
	problems  []string // the first few failures, for the log
}

// op records one checked operation; a non-nil err marks it failed.
func (t *tally) op(err error) { t.ops(1, err) }

// ops records n operations that share one check.
func (t *tally) ops(n int, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted += n
	if err == nil {
		return
	}
	t.failed += n
	if len(t.problems) < 10 {
		t.problems = append(t.problems, err.Error())
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// median returns the middle value of xs (the mean of the middle two
// for an even count), or NaN for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailPercentile returns the highest whole percentile, at most 99,
// that leaves at least minBeyond of n samples above its nearest-rank
// position, and false when n is too small for any.
func tailPercentile(n int) (int, bool) {
	for p := 99; p >= 1; p-- {
		if n-rank(p, n) >= minBeyond {
			return p, true
		}
	}
	return 0, false
}

// rank is the 1-based nearest-rank position of the p-th percentile of
// n samples, ceil(p·n/100).
func rank(p, n int) int { return (p*n + 99) / 100 }

// tail returns the percentile tailPercentile picks for xs and its
// nearest-rank value.
func tail(xs []float64) (int, float64, bool) {
	p, ok := tailPercentile(len(xs))
	if !ok {
		return 0, math.NaN(), false
	}
	return p, percentile(xs, p), true
}

// percentile is the nearest-rank p-th percentile of xs (1 <= p <= 100).
func percentile(xs []float64, p int) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return sortedCopy(xs)[max(rank(p, len(xs)), 1)-1]
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
