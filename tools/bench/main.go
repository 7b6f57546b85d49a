// Command bench records and gates the repository's measured
// benchmarks. Each subcommand times one subsystem and writes
// BENCH_<name>.json at the repository root in one schema: the
// environment it ran in, its timed entries (reps, median and min wall
// milliseconds), rates derived from those entries, and the exact
// values any rerun must reproduce.
//
//	go run ./tools/bench <blas|sweep|reliability>         # re-record BENCH_<name>.json
//	go run ./tools/bench -check <blas|sweep|reliability>  # gate against it
//
// With -check the fresh report goes to artifacts/BENCH_<name>.json
// instead, and the run fails when an entry is on one side only or an
// entry's median exceeds checkFactor times its committed median. The
// factor is loose because wall time varies across machines, but a path
// that got three times slower than its recorded self is a regression,
// not noise. The exact values have one runner, TestExactValues
// (`go test ./tools/bench`), which runs each bench's passes once,
// untimed, and compares them with the committed files.
//
// Wall-clock timing lives here, outside the determinism-clean
// internal packages: the benchmark is the one place where real elapsed
// time is the measurement, not a hazard.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"abftchol/internal/blas"
)

// checkFactor bounds how much slower than its committed median an
// entry's median may be under -check.
const checkFactor = 3

var benches = map[string]func(*Report) error{
	"blas":        benchBLAS,
	"sweep":       benchSweep,
	"reliability": benchReliability,
}

// Report is the schema of every BENCH_<name>.json.
type Report struct {
	Env     Env     `json:"env"`
	Entries []Entry `json:"entries"`
	// Rates are derived from the entries for a reader (throughput,
	// speedups, overheads); -check does not compare them.
	Rates map[string]float64 `json:"rates,omitempty"`
	// Exact holds the values a rerun must reproduce byte for byte;
	// TestExactValues compares them, -check does not.
	Exact map[string]json.RawMessage `json:"exact"`
}

// Env is the machine and toolchain a report was measured on: the
// fields perfbench prints in its header, and the micro-kernel
// (blas.Kernel) the CPU selected.
type Env struct {
	GoVersion   string `json:"go_version"`
	GOARCH      string `json:"goarch"`
	NumCPU      int    `json:"num_cpu"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	BLASWorkers int    `json:"blas_workers"`
	BLASKernel  string `json:"blas_kernel"`
}

// Entry summarizes the wall-clock samples of one timed step.
type Entry struct {
	Name     string  `json:"name"`
	Reps     int     `json:"reps"`
	MedianMS float64 `json:"median_ms"`
	MinMS    float64 `json:"min_ms"`

	samples []float64
}

func main() {
	check := flag.Bool("check", false, "write artifacts/BENCH_<name>.json and gate it against the committed file instead of rewriting that")
	flag.Parse()
	run, ok := benches[flag.Arg(0)]
	if flag.NArg() != 1 || !ok {
		fmt.Fprintln(os.Stderr, "usage: bench [-check] <blas|sweep|reliability>")
		os.Exit(2)
	}
	if err := record(flag.Arg(0), run, *check); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// newReport is an empty report of this machine and toolchain.
func newReport() *Report {
	return &Report{
		Env:   Env{runtime.Version(), runtime.GOARCH, runtime.NumCPU(), runtime.GOMAXPROCS(0), blas.Workers, blas.Kernel()},
		Rates: map[string]float64{},
		Exact: map[string]json.RawMessage{},
	}
}

func record(name string, run func(*Report) error, check bool) error {
	r := newReport()
	if err := run(r); err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	for _, e := range r.Entries {
		fmt.Printf("%-26s %3d reps  median %10.3f ms  min %10.3f ms\n", e.Name, e.Reps, e.MedianMS, e.MinMS)
	}
	for _, k := range slices.Sorted(maps.Keys(r.Rates)) {
		fmt.Printf("%-26s %10.2f\n", k, r.Rates[k])
	}
	committed := "BENCH_" + name + ".json"
	out := committed
	if check {
		out = filepath.Join("artifacts", committed)
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	if err := writeFile(out, append(data, '\n')); err != nil {
		return err
	}
	if !check {
		fmt.Printf("bench: wrote %s\n", out)
		return nil
	}
	data, err = os.ReadFile(committed)
	if err != nil {
		return fmt.Errorf("%w (run without -check to record it)", err)
	}
	var base Report
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("%s: %w", committed, err)
	}
	if fails := compare(&base, r); len(fails) > 0 {
		return fmt.Errorf("%s fails the gate against %s (re-record it only for an intended change):\n  %s",
			out, committed, strings.Join(fails, "\n  "))
	}
	fmt.Printf("bench: %s has every entry of %s, every median within %dx\n", out, committed, checkFactor)
	return nil
}

// compare lists every way fresh's timings fail the gate that base
// sets.
func compare(base, fresh *Report) []string {
	var fails []string
	for _, b := range base.Entries {
		f := fresh.entry(b.Name)
		switch {
		case f == nil:
			fails = append(fails, fmt.Sprintf("entry %s: committed but not measured", b.Name))
		case f.MedianMS > checkFactor*b.MedianMS:
			fails = append(fails, fmt.Sprintf("entry %s: median %.3f ms is over %dx the committed %.3f ms",
				b.Name, f.MedianMS, checkFactor, b.MedianMS))
		}
	}
	for _, f := range fresh.Entries {
		if base.entry(f.Name) == nil {
			fails = append(fails, fmt.Sprintf("entry %s: measured but not committed", f.Name))
		}
	}
	return fails
}

func (r *Report) entry(name string) *Entry {
	for i := range r.Entries {
		if r.Entries[i].Name == name {
			return &r.Entries[i]
		}
	}
	return nil
}

// add records one wall-clock sample of the named entry, creating the
// entry on its first sample.
func (r *Report) add(name string, d time.Duration) {
	e := r.entry(name)
	if e == nil {
		r.Entries = append(r.Entries, Entry{Name: name})
		e = &r.Entries[len(r.Entries)-1]
	}
	e.samples = append(e.samples, float64(d.Nanoseconds())/1e6)
	s := slices.Sorted(slices.Values(e.samples))
	e.Reps, e.MinMS, e.MedianMS = len(s), s[0], (s[(len(s)-1)/2]+s[len(s)/2])/2
}

// time runs fn once and records its wall clock under name.
func (r *Report) time(name string, fn func() error) error {
	start := time.Now()
	err := fn()
	r.add(name, time.Since(start))
	return err
}

// setExact records v as a value a rerun must reproduce. The benches
// set only numbers, strings and valid JSON, which always encode.
func (r *Report) setExact(key string, v any) {
	r.Exact[key], _ = json.Marshal(v)
}

func writeFile(path string, data []byte) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
