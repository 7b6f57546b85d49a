// Command sweepbench records the sweep engine's acceptance benchmark:
// it renders the full `-exp all` experiment set three ways — serial
// with a cold start, parallel with a cold cache, and parallel again
// over the warm cache — verifies all three produce byte-identical
// output, and writes the wall-clock comparison to BENCH_sweep.json at
// the repository root plus a metrics snapshot showing the cache-hit
// accounting. `make bench` runs it; CI archives both files.
//
// Wall-clock timing lives here, outside internal/experiments, on
// purpose: the simulator packages are determinism-clean (no time.Now), and
// the benchmark is the one place where real elapsed time is the
// measurement, not a hazard.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"abftchol/internal/experiments"
	"abftchol/internal/obs"
)

type report struct {
	// What ran.
	Experiments []string `json:"experiments"`
	Quick       bool     `json:"quick"`
	Workers     int      `json:"workers"`
	GOMAXPROCS  int      `json:"gomaxprocs"`

	// Wall-clock, seconds.
	SerialColdSeconds   float64 `json:"serial_cold_seconds"`
	ParallelColdSeconds float64 `json:"parallel_cold_seconds"`
	ParallelWarmSeconds float64 `json:"parallel_warm_seconds"`
	// SpeedupWarm is serial-cold over parallel-warm: the factor the
	// cache (plus the pool, on multi-core hosts) buys a repeated sweep.
	SpeedupWarm float64 `json:"speedup_warm_vs_serial_cold"`

	// Scheduler accounting from the warm pass.
	PointsPlanned  int64 `json:"points_planned"`
	PointsExecuted int64 `json:"points_executed_warm"`
	CacheHits      int64 `json:"cache_hits_warm"`
	DedupHits      int64 `json:"dedup_hits_warm"`

	// ByteIdentical records that all three renderings matched; the
	// tool exits nonzero if they do not, so an archived report always
	// says true.
	ByteIdentical bool `json:"byte_identical"`
}

func main() {
	var (
		out        = flag.String("out", "BENCH_sweep.json", "write the benchmark report here")
		metricsOut = flag.String("metrics-out", "", "write the warm pass's metrics snapshot (cache-hit accounting) here")
		cacheDir   = flag.String("cache-dir", "", "cache directory (default: a throwaway temp dir)")
		quick      = flag.Bool("quick", false, "benchmark the shortened -quick sweep instead of the full one")
		workers    = flag.Int("parallel", 0, "worker pool size for the parallel passes (0 = GOMAXPROCS)")
	)
	flag.Parse()

	dir := *cacheDir
	if dir == "" {
		tmp, err := os.MkdirTemp("", "sweepbench-cache-")
		if err != nil {
			fatal(err)
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	}

	cfg := experiments.Config{}
	if *quick {
		cfg.Sizes = []int{5120, 10240}
		cfg.CapabilityN = 10240
	}
	reg := experiments.Registry()
	ids := experiments.IDs()

	render := func(sched *experiments.Scheduler, sink *experiments.Obs) string {
		var b strings.Builder
		c := cfg
		c.Obs = sink
		for _, id := range ids {
			ent := reg[id]
			fmt.Fprintln(&b, sched.Run(ent.Run, ent.Profile, c))
		}
		return b.String()
	}
	timeIt := func(fn func() string) (string, float64) {
		start := time.Now()
		s := fn()
		return s, time.Since(start).Seconds()
	}

	serialOut, serialSec := timeIt(func() string {
		return render(experiments.NewScheduler(1, nil), nil)
	})
	coldOut, coldSec := timeIt(func() string {
		return render(experiments.NewScheduler(*workers, experiments.NewCache(dir)), nil)
	})
	warmSink := &experiments.Obs{Metrics: obs.NewRegistry()}
	warmSched := experiments.NewScheduler(*workers, experiments.NewCache(dir))
	warmOut, warmSec := timeIt(func() string {
		return render(warmSched, warmSink)
	})
	if err := warmSched.StoreErr(); err != nil {
		fatal(err)
	}

	identical := serialOut == coldOut && coldOut == warmOut
	rep := report{
		Experiments:         append([]string(nil), ids...),
		Quick:               *quick,
		Workers:             experiments.NewScheduler(*workers, nil).Workers(),
		GOMAXPROCS:          runtime.GOMAXPROCS(0),
		SerialColdSeconds:   serialSec,
		ParallelColdSeconds: coldSec,
		ParallelWarmSeconds: warmSec,
		PointsPlanned:       warmSink.Metrics.Counter("sweep.points.planned"),
		PointsExecuted:      warmSink.Metrics.Counter("sweep.points.executed"),
		CacheHits:           warmSink.Metrics.Counter("sweep.cache.hits"),
		DedupHits:           warmSink.Metrics.Counter("sweep.dedup.hits"),
		ByteIdentical:       identical,
	}
	if warmSec > 0 {
		rep.SpeedupWarm = serialSec / warmSec
	}
	sort.Strings(rep.Experiments)

	if !identical {
		fatal(fmt.Errorf("serial, cold-cache, and warm-cache outputs are not byte-identical"))
	}

	data, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := writeFile(*out, append(data, '\n')); err != nil {
		fatal(err)
	}
	if *metricsOut != "" {
		snap, err := warmSink.Metrics.Snapshot()
		if err != nil {
			fatal(err)
		}
		if err := writeFile(*metricsOut, snap); err != nil {
			fatal(err)
		}
	}
	fmt.Printf("sweepbench: serial %.3fs, cold %.3fs, warm %.3fs (%.1fx), %d/%d points from cache -> %s\n",
		serialSec, coldSec, warmSec, rep.SpeedupWarm, rep.CacheHits, rep.PointsPlanned, *out)
}

func writeFile(path string, data []byte) error {
	if dir := filepath.Dir(path); dir != "." && dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	return os.WriteFile(path, data, 0o644)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sweepbench:", err)
	os.Exit(1)
}
