// Package ctxchecktest exercises ctxcheck's five rules. The package
// is loaded under abftchol/internal/server, inside the analyzer's
// scope; functions carrying a context.Context or *http.Request
// parameter are request-scoped.
package ctxchecktest

import (
	"context"
	"net/http"
	"time"

	"abftchol/internal/guard"
)

// handlerBackground mints a root context on a request path (R1).
func handlerBackground(w http.ResponseWriter, r *http.Request) {
	ctx := context.Background() // want "context\\.Background\\(\\) in request-scoped code"
	_ = ctx
	_ = w
}

// badSelect blocks with no way out (R2).
func badSelect(ctx context.Context, ch chan int) int {
	select { // want "blocking select on a request path has no ctx\\.Done\\(\\) or deadline case"
	case v := <-ch:
		return v
	}
}

// goodSelect carries the Done case.
func goodSelect(ctx context.Context, ch chan int) int {
	select {
	case v := <-ch:
		return v
	case <-ctx.Done():
		return 0
	}
}

// deadlineSelect carries a deadline-channel case (the daemon's
// injected Clock.After shape).
func deadlineSelect(ctx context.Context, ch chan int, after func(time.Duration) <-chan time.Time) int {
	expired := after(time.Second)
	select {
	case v := <-ch:
		return v
	case <-expired:
		return 0
	}
}

// nonBlocking probes with a default clause; nothing to prove.
func nonBlocking(ctx context.Context, ch chan int) int {
	select {
	case v := <-ch:
		return v
	default:
		return 0
	}
}

// bareRecv blocks outside any select (R3).
func bareRecv(ctx context.Context, ch chan int) int {
	return <-ch // want "bare channel receive on a request path"
}

// bareSend blocks outside any select (R3).
func bareSend(ctx context.Context, ch chan int) {
	ch <- 1 // want "bare channel send on a request path"
}

// waitDone receives from the cancellation channel itself; that is the
// observation, not a violation.
func waitDone(ctx context.Context) {
	<-ctx.Done()
}

// sleepClock waits out a bounded deadline channel.
func sleepClock(ctx context.Context, after func(time.Duration) <-chan time.Time) {
	<-after(time.Second)
}

// deadlineDominated is the sanctioned bare-op shape: every path to the
// receive passes a WithTimeout that bounds it.
func deadlineDominated(ctx context.Context, ch chan int) int {
	ctx, cancel := context.WithTimeout(ctx, time.Second)
	defer cancel()
	_ = ctx
	return <-ch
}

// zeroTrip is the zero-trip negative: the WithTimeout lives only
// inside a loop that may run zero times, so it does not dominate the
// receive after the loop.
func zeroTrip(ctx context.Context, ch chan int, n int) int {
	for i := 0; i < n; i++ {
		bounded, cancel := context.WithTimeout(ctx, time.Second)
		_ = bounded
		cancel()
	}
	return <-ch // want "bare channel receive on a request path"
}

// pollLoop round-trips forever without observing cancellation (R4).
func pollLoop(ctx context.Context, c *http.Client, req *http.Request) error {
	for { // want "loop with blocking operations does not observe cancellation"
		resp, err := c.Do(req)
		if err != nil {
			return err
		}
		resp.Body.Close()
	}
}

// pollLoopChecked re-checks cancellation each iteration.
func pollLoopChecked(ctx context.Context, c *http.Client, req *http.Request) error {
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		resp, err := c.Do(req)
		if err != nil {
			return err
		}
		resp.Body.Close()
	}
}

// blockingHelper is not request-scoped itself; its summary marks
// it blocking for callers.
func blockingHelper(ch chan int) int {
	return <-ch
}

// summaryLoop blocks through a package-local callee's summary (R4,
// interprocedural).
func summaryLoop(ctx context.Context, ch chan int) int {
	total := 0
	for i := 0; i < 3; i++ { // want "loop with blocking operations does not observe cancellation"
		total += blockingHelper(ch)
	}
	return total
}

// spawns launches a goroutine: the literal has its own lifecycle, and
// whoever joins it — not the request — bounds it.
func spawns(ctx context.Context, ch chan int, done chan struct{}) {
	go func() {
		<-ch
		close(done)
	}()
}

// groupSpawns hands a blocking loop to a Group: the literal runs on
// the Group's goroutine, so it is not request-scoped.
func groupSpawns(ctx context.Context, g *guard.Group, ch chan int) {
	g.Go(func() {
		for range 3 {
			<-ch
		}
	})
}

// groupNotSpawned builds the same literal without handing it to Go; it
// runs on the request goroutine and inherits request scope.
func groupNotSpawned(ctx context.Context, ch chan int) func() {
	f := func() {
		for range 3 { // want "loop with blocking operations does not observe cancellation"
			<-ch // want "bare channel receive on a request path"
		}
	}
	return f
}

// groupWaitLoop joins Groups in a loop that never checks ctx (R4).
func groupWaitLoop(ctx context.Context, gs []*guard.Group) {
	for _, g := range gs { // want "loop with blocking operations does not observe cancellation"
		g.Wait()
	}
}

// inherits shows literals that stay on the request goroutine inherit
// request scope.
func inherits(ctx context.Context, ch chan int) func() int {
	return func() int {
		return <-ch // want "bare channel receive on a request path"
	}
}

// buildRequest constructs a context-free request (R5).
func buildRequest(ctx context.Context, url string) (*http.Request, error) {
	return http.NewRequest("GET", url, nil) // want "use http\\.NewRequestWithContext"
}

// fetch uses the convenience helpers; R5 applies even without a ctx
// parameter in scope.
func fetch(url string) (*http.Response, error) {
	return http.Get(url) // want "http\\.Get carries no context"
}

// notRequestScoped has no request to honor; worker internals may
// block (whoever spawned the worker joins it).
func notRequestScoped(ch chan int) int {
	return <-ch
}

// suppressed exercises the //nolint escape: the finding exists but the
// driver filters it, so no want comment appears here.
func suppressed(ctx context.Context, finished chan struct{}) {
	<-finished //nolint:ctxcheck // drain converges: the producer closes finished unconditionally
}
