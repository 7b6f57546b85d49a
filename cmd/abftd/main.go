// Command abftd serves ABFT Cholesky factorizations as a service: an
// HTTP+JSON daemon accepting the same (machine, n, scheme, K, fault
// plan) points cmd/abftchol runs locally, executing them on the sweep
// engine's deduplicating scheduler, and serving results, traces, and
// metrics. See docs/SERVICE.md for the API and a worked session.
//
//	abftd                               # 127.0.0.1:8787, defaults
//	abftd -addr 127.0.0.1:0             # random port (printed on stdout)
//	abftd -cache -workers 8 -queue 128  # shared on-disk result store
//	abftd -rate 5 -burst 10             # per-client admission control
//
// The daemon drains gracefully on SIGINT/SIGTERM: submissions get
// 503, accepted jobs finish (bounded by -grace), and the final
// metrics snapshot is flushed to -metrics-out if set. cmd/abftchol
// -server <addr> is the reference client.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"abftchol/internal/experiments"
	"abftchol/internal/guard"
	"abftchol/internal/server"
)

func main() {
	var (
		addr       = flag.String("addr", "127.0.0.1:8787", "listen address; port 0 picks a free port (printed on stdout)")
		workers    = flag.Int("workers", 4, "concurrent factorizations")
		queue      = flag.Int("queue", 64, "bounded job queue depth; submissions beyond it get 429")
		jobTimeout = flag.Duration("job-timeout", 0, "per-job deadline from submission; 0 = none")
		rate       = flag.Float64("rate", 0, "per-client submissions per second; 0 = unlimited")
		burst      = flag.Int("burst", 8, "per-client token-bucket burst (-rate)")
		useCache   = flag.Bool("cache", false, "serve repeat jobs from an on-disk result store (see -cache-dir)")
		cacheDir   = flag.String("cache-dir", "artifacts/cache", "result store location used by -cache; shared with abftchol -cache")
		metricsOut = flag.String("metrics-out", "", "flush the global metrics snapshot here on shutdown")
		grace      = flag.Duration("grace", 60*time.Second, "drain deadline after SIGINT/SIGTERM; still-queued jobs are canceled past it")
	)
	flag.Parse()

	var cache *experiments.Cache
	if *useCache {
		cache = experiments.NewCache(*cacheDir)
	}
	srv, err := server.New(server.Config{
		Workers:     *workers,
		QueueDepth:  *queue,
		JobTimeout:  *jobTimeout,
		RatePerSec:  *rate,
		RateBurst:   *burst,
		Cache:       cache,
		Clock:       server.Clock{Now: time.Now, After: time.After},
		MetricsPath: *metricsOut,
	})
	if err != nil {
		fatal(err)
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	// The one line scripts parse: the resolved address, on stdout.
	fmt.Printf("abftd: listening on http://%s\n", ln.Addr())

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	served := make(chan error, 1)
	var serving guard.Group
	serving.Go(func() { served <- srv.Serve(ln) })
	defer serving.Wait()
	select {
	case sig := <-sigs:
		fmt.Fprintf(os.Stderr, "abftd: %v: draining\n", sig)
		ctx, cancel := context.WithTimeout(context.Background(), *grace)
		err := srv.Shutdown(ctx)
		cancel()
		if serr := <-served; err == nil {
			err = serr
		}
		if err != nil {
			fatal(err)
		}
		fmt.Fprintln(os.Stderr, "abftd: drained")
	case err := <-served:
		if err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "abftd:", err)
	os.Exit(1)
}
