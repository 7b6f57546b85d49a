// Package goleaktest exercises the goleak analyzer: WaitGroup
// discipline (Add dominating the spawn, Done on all goroutine exits,
// Wait on all spawner exits including zero-trip loop edges), channel
// joins, and the //nolint escape.
package goleaktest

import "sync"

// goodLoop is the sweep scheduler's disciplined fan-out pattern.
func goodLoop(xs []int) int {
	var wg sync.WaitGroup
	out := make([]int, len(xs))
	for i, x := range xs {
		wg.Add(1)
		go func(i, x int) {
			defer wg.Done()
			out[i] = x * x
		}(i, x)
	}
	wg.Wait()
	total := 0
	for _, v := range out {
		total += v
	}
	return total
}

// leakNoJoin spawns workers nothing ever joins.
func leakNoJoin(xs []int) {
	for _, x := range xs {
		go func(x int) { // want "no join point"
			_ = x * x
		}(x)
	}
}

// addAfterSpawn bumps the counter after launching: Wait can observe
// zero and return while the worker still runs.
func addAfterSpawn(done *int) {
	var wg sync.WaitGroup
	go func() { // want "wg.Add does not dominate this spawn"
		defer wg.Done()
		*done++
	}()
	wg.Add(1)
	wg.Wait()
}

// doneConditional skips Done on the early-return path, hanging Wait
// forever on inputs that take it.
func doneConditional(flags []bool) {
	var wg sync.WaitGroup
	for _, f := range flags {
		wg.Add(1)
		go func(f bool) { // want "Done is not called on every exit path"
			if f {
				return
			}
			wg.Done()
		}(f)
	}
	wg.Wait()
}

// waitZeroTrip only waits inside a loop over results: when results is
// empty the loop body never runs (the CFG's zero-trip edge) and the
// spawn is never joined.
func waitZeroTrip(results []int) {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // want "can return without crossing wg.Wait"
		defer wg.Done()
	}()
	for range results {
		wg.Wait()
	}
}

// channelJoin synchronizes on a local channel the spawner drains.
func channelJoin(xs []int) int {
	ch := make(chan int)
	go func() {
		total := 0
		for _, x := range xs {
			total += x
		}
		ch <- total
	}()
	return <-ch
}

// channelNoJoin signals on a local channel nobody reads.
func channelNoJoin() {
	done := make(chan struct{})
	go func() { // want "never receives from it"
		close(done)
	}()
}

// escapedChannel sends on a caller-owned channel: the join lives with
// whoever owns the channel, so the local pass stays quiet.
func escapedChannel(ch chan int, v int) {
	go func() {
		ch <- v
	}()
}

type flusher struct{}

func (flusher) flush() {}

// methodSpawn launches a method value: a spawn without a literal body
// has no body for goleak to inspect.
func methodSpawn(f flusher) {
	go f.flush()
}

// escaped exercises the sanctioned suppression.
func escaped(hook func()) {
	go func() { //nolint:goleak — fire-and-forget shutdown hook, joined at process exit
		hook()
	}()
}
