// Command relbench records the reliability-campaign acceptance
// benchmark: it runs the default (machine × scheme × fault class)
// campaign grid twice — serial, then on the parallel worker pool —
// verifies both produce byte-identical reports, and writes the timing
// comparison plus the canonical coverage report (outcome rates with
// Wilson 95% confidence intervals per cell) to BENCH_reliability.json
// at the repository root. `make bench` runs it; CI archives the file.
//
// Wall-clock timing lives here, outside internal/reliability, on
// purpose: campaign execution is determinism-clean, and the benchmark is
// the one place where real elapsed time is the measurement.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"abftchol/internal/experiments"
	"abftchol/internal/reliability/campaign"
)

type report struct {
	// What ran.
	Workers    int `json:"workers"`
	GOMAXPROCS int `json:"gomaxprocs"`

	// Wall-clock, seconds.
	SerialSeconds   float64 `json:"serial_seconds"`
	ParallelSeconds float64 `json:"parallel_seconds"`
	Speedup         float64 `json:"speedup_parallel_vs_serial"`
	// TrialsPerSecond is the parallel pass's injection throughput —
	// the figure that sizes a million-trial overnight campaign.
	TrialsPerSecond float64 `json:"trials_per_second_parallel"`

	// ByteIdentical records that both passes matched; the tool exits
	// nonzero if they do not, so an archived report always says true.
	ByteIdentical bool `json:"byte_identical"`

	// Campaign is the canonical coverage report, byte-for-byte what
	// `abftchol -campaign` with the same config would print.
	Campaign json.RawMessage `json:"campaign"`
}

func main() {
	var (
		out     = flag.String("out", "BENCH_reliability.json", "write the benchmark report here")
		trials  = flag.Int("trials", 0, "trials per grid cell (0 = campaign default)")
		seed    = flag.Int64("seed", 20160523, "campaign seed")
		workers = flag.Int("parallel", 0, "worker pool size for the parallel pass (0 = GOMAXPROCS)")
	)
	flag.Parse()

	cfg := campaign.Config{TrialsPerCell: *trials, Seed: *seed}
	cfg, err := cfg.Normalize()
	if err != nil {
		fatal(err)
	}

	run := func(w int) ([]byte, float64) {
		start := time.Now()
		rep, err := campaign.Run(context.Background(), cfg, experiments.NewScheduler(w, nil), campaign.RunOptions{})
		if err != nil {
			fatal(err)
		}
		data, err := rep.Marshal()
		if err != nil {
			fatal(err)
		}
		return data, time.Since(start).Seconds()
	}
	serialOut, serialSec := run(1)
	parallelOut, parallelSec := run(*workers)

	identical := string(serialOut) == string(parallelOut)
	total := len(cfg.Machines) * len(cfg.Schemes) * len(cfg.Classes) * cfg.TrialsPerCell
	rep := report{
		Workers:       experiments.NewScheduler(*workers, nil).Workers(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		SerialSeconds: serialSec, ParallelSeconds: parallelSec,
		ByteIdentical: identical,
		Campaign:      json.RawMessage(parallelOut),
	}
	if parallelSec > 0 {
		rep.Speedup = serialSec / parallelSec
		rep.TrialsPerSecond = float64(total) / parallelSec
	}
	if !identical {
		fatal(fmt.Errorf("serial and parallel campaign reports are not byte-identical"))
	}

	data, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := writeFile(*out, append(data, '\n')); err != nil {
		fatal(err)
	}
	fmt.Printf("relbench: %d trials, serial %.3fs, parallel %.3fs (%.1fx, %.0f trials/s) -> %s\n",
		total, serialSec, parallelSec, rep.Speedup, rep.TrialsPerSecond, *out)
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
	fmt.Fprintln(os.Stderr, "relbench:", err)
	os.Exit(1)
}
