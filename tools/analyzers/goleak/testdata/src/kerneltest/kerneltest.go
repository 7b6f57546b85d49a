// Package kerneltest exercises goleak on the spawn shapes of the
// kernel-executing packages: fire-and-forget literals are flagged;
// WaitGroup, channel, and argument handoffs, a channel returned to the
// caller, named-function goroutines, and the nolint escape are not. A
// goroutine that only polls a channel is joined by nothing and is
// flagged.
package kerneltest

import "sync"

func flaggedNaked(n int) {
	go func() { // want "no join point"
		_ = n * 2
	}()
}

func flaggedWithArgs(xs []float64) {
	go func(v []float64) { // want "no join point"
		v[0] = 1
	}(xs)
}

func allowedWaitGroup(xs []float64) {
	var wg sync.WaitGroup
	for i := range xs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			xs[i] *= 2
		}(i)
	}
	wg.Wait()
}

// allowedChannelClose returns its local channel: the caller owns the
// join.
func allowedChannelClose() <-chan struct{} {
	done := make(chan struct{})
	go func() {
		defer close(done)
	}()
	return done
}

func allowedChannelSend() int {
	res := make(chan int, 1)
	go func() {
		res <- 7
	}()
	return <-res
}

// allowedChannelArg signals on the literal's parameter, which the
// spawn binds to the caller-owned done.
func allowedChannelArg(done chan struct{}) {
	go func(d chan<- struct{}) {
		d <- struct{}{}
	}(done)
}

// localChannelArg binds a local channel to the literal's parameter
// and receives from it.
func localChannelArg() int {
	res := make(chan int)
	go func(out chan<- int) {
		out <- 1
	}(res)
	return <-res
}

// flaggedSelect polls stop but signals nothing anyone waits on.
func flaggedSelect(stop chan struct{}) {
	go func() { // want "no join point"
		select {
		case <-stop:
		default:
		}
	}()
}

type worker struct{}

func (w *worker) loop() {}

// allowedNamed delegates the join question to the callee; only
// literal bodies are inspected.
func allowedNamed(w *worker) {
	go w.loop()
}

func escaped() {
	go func() { //nolint:goleak — exercising the per-analyzer escape hatch
	}()
}
