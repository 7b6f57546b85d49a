// Command perfbench is the repository's benchmark. It drives three
// workloads through the packages' public Go APIs — real-arithmetic
// factorizations (factor), a reliability campaign (campaign), and job
// round trips through an in-process daemon (daemon) — checks every
// output, and prints one JSON result object as its last line.
//
// Run it from the repository root; run.sh builds it first:
//
//	bash perfbench/run.sh --workload factor --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics of the
// workload. With --trace 1 it carries the per-layer metrics, measured
// with spans recorded around the calls into each layer. README.md
// lists every metric and the end-to-end number it should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"abftchol/internal/blas"
)

// scratchDir, relative to the checkout root the benchmark runs from,
// receives everything a run writes: temporary journals and caches, and
// the span files of traced runs.
const scratchDir = ".bench_build"

// setupReps is how many times an untraced run builds its inputs;
// setup_s is the median of the repetitions.
const setupReps = 5

// procs is the benchmark's GOMAXPROCS. On one Go processor the process
// CPU time the end-to-end metrics report is the work the program does:
// with two, idle processors spin looking for goroutines to run, and how
// long they spin depends on how the host schedules the two threads.
const procs = 1

var workloadNames = []string{"factor", "campaign", "daemon"}

// endToEndNames and perLayerNames are the metrics untraced and traced
// runs print, in BENCHMARK.json's order.
var endToEndNames = []string{"cpu_ms_per_op", "alloc_kb_per_op", "setup_s"}

var perLayerNames = []string{
	"blas.syrk_ms", "blas.gemm_ms", "blas.trsm_ms", "blas.potf2_ms", "blas.gflops",
	"checksum.encode_ms", "checksum.update_ms", "checksum.verify_ms", "checksum.verify_blocks",
	"checksum.overhead_pct", "hetsim.model_overhead_pct",
	"core.bookkeeping_ms", "core.self_ms",
	"core.magma_ms", "core.online_ms", "core.enhanced_ms", "core.recover_ms",
	"fault.plan_us", "core.trial_us", "reliability.classify_us",
	"experiments.execute_ms", "experiments.self_ms", "experiments.busy_share",
	"campaign.journal_ms", "campaign.report_ms",
	"server.submit_ms", "server.wait_ms", "server.result_ms",
	"server.queue_wait_ms", "server.run_ms", "server.overhead_ms", "server.tail_ms",
	"experiments.executed", "experiments.dedup_hits", "experiments.cache_stores", "experiments.hit_ratio",
	"trace.factor_overhead_pct", "trace.campaign_overhead_pct", "trace.daemon_overhead_pct",
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workload is one benchmark workload.
type workload interface {
	// setup builds the seeded inputs and the reference outputs the
	// checks compare against.
	setup(seed int64) error
	// measure warms up, then runs the timed closed loop with tracing
	// off for at least d, recording every output check in t.
	measure(d time.Duration, t *tally) (sample, error)
	// layers runs the traced measurement for at least d and returns
	// the per-layer metrics of the layers the workload exercises.
	layers(d time.Duration, tr *tracer, t *tally) (map[string]metric, error)
	// rescaled reports whether the workload's CPU times are rescaled by
	// the reference kernel (calib.go): true where floating point does
	// the work.
	rescaled() bool
}

func newWorkload(name, scratch string) (workload, error) {
	switch name {
	case "factor":
		return &factorBench{}, nil
	case "campaign":
		return &campaignBench{scratch: scratch}, nil
	case "daemon":
		return &daemonBench{scratch: scratch}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want factor, campaign or daemon)", name)
}

func main() {
	name := flag.String("workload", "", "workload to run: factor, campaign or daemon")
	seed := flag.Int64("seed", 1, "seed the inputs are generated from")
	seconds := flag.Int("seconds", 30, "length of the timed loop, in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run printing per-layer metrics")
	flag.Parse()
	runtime.GOMAXPROCS(procs)
	if *seconds < 1 || (*trace != 0 && *trace != 1) || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	res, err := run(*name, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err == nil {
		var line []byte
		if line, err = json.Marshal(res); err == nil {
			fmt.Println(string(line))
			return
		}
	}
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// run performs one benchmark run.
func run(name string, seed int64, d time.Duration, traced bool) (*result, error) {
	if _, err := newWorkload(name, ""); err != nil {
		return nil, err
	}
	tmp := filepath.Join(scratchDir, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	scratch, err := os.MkdirTemp(tmp, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)

	fmt.Printf("# env go=%s goarch=%s numcpu=%d gomaxprocs=%d blas.workers=%d\n",
		runtime.Version(), runtime.GOARCH, runtime.NumCPU(), runtime.GOMAXPROCS(0), blas.Workers)
	fmt.Printf("# run workload=%s seed=%d seconds=%g traced=%t\n", name, seed, d.Seconds(), traced)
	t := &tally{}
	var metrics map[string]metric
	names := endToEndNames
	if traced {
		names = perLayerNames
		metrics, err = runTraced(name, seed, d, scratch, t)
	} else {
		metrics, err = runUntraced(name, seed, d, scratch, t)
	}
	if err == nil {
		err = checkNames(metrics, names)
	}
	if err != nil {
		return nil, err
	}
	for _, n := range names {
		fmt.Printf("# %-28s %14.6g %s\n", n, metrics[n].Value, metrics[n].Unit)
	}
	for _, p := range t.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	return &result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: metrics}, nil
}

// runUntraced builds the inputs setupReps times, then measures the
// end-to-end metrics with tracing off.
func runUntraced(name string, seed int64, d time.Duration, scratch string, t *tally) (map[string]metric, error) {
	w, err := newWorkload(name, scratch)
	if err != nil {
		return nil, err
	}
	var ref *refKernel
	if w.rescaled() {
		ref = newRefKernel()
	}
	var setupCPU, setupWall []float64
	for range setupReps {
		runtime.GC()
		var r time.Duration
		if ref != nil {
			r = ref.run()
		}
		cpu, start := cpuTime(), time.Now()
		if err := w.setup(seed); err != nil {
			return nil, fmt.Errorf("%s setup: %w", name, err)
		}
		setupWall = append(setupWall, time.Since(start).Seconds())
		cpu = cpuTime() - cpu
		if ref != nil {
			cpu = rescale(cpu, (r+ref.run())/2)
		}
		setupCPU = append(setupCPU, cpu.Seconds())
	}
	s, err := w.measure(d, t)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	if s.ops == 0 {
		return nil, fmt.Errorf("%s: the timed loop completed no operation", name)
	}
	fmt.Printf("# setup: CPU %.4g s, wall %.4g s\n", setupCPU, setupWall)
	fmt.Printf("# %s: %d operations, %d wall latency samples, p25 %.4g ms, p50 %.4g ms, p75 %.4g ms",
		name, s.ops, len(s.opMs), percentile(s.opMs, 25), median(s.opMs), percentile(s.opMs, 75))
	if p, v, ok := tail(s.opMs); ok {
		fmt.Printf(", p%d %.4g ms", p, v)
	}
	fmt.Println()
	fmt.Printf("# %s: %d CPU windows, p25 %.4g ms, p50 %.4g ms, p75 %.4g ms per operation\n",
		name, len(s.cpuMs), percentile(s.cpuMs, 25), median(s.cpuMs), percentile(s.cpuMs, 75))
	return map[string]metric{
		"cpu_ms_per_op":   {median(s.cpuMs), "ms"},
		"alloc_kb_per_op": {float64(s.alloc) / 1024 / float64(s.ops), "KB"},
		"setup_s":         {median(setupCPU), "s"},
	}, nil
}

// runTraced measures the per-layer metrics. Every traced run reports
// every layer, so it runs all three workloads' traced measurements: the
// named workload for half of d, the other two for a quarter each. The
// spans stay in memory until the end, then go to scratchDir/spans.
func runTraced(name string, seed int64, d time.Duration, scratch string, t *tally) (map[string]metric, error) {
	order := []string{name}
	for _, n := range workloadNames {
		if n != name {
			order = append(order, n)
		}
	}
	tr := newTracer()
	metrics := map[string]metric{}
	for i, wn := range order {
		share := d / 4
		if i == 0 {
			share = d / 2
		}
		w, err := newWorkload(wn, scratch)
		if err != nil {
			return nil, err
		}
		if err := w.setup(seed); err != nil {
			return nil, fmt.Errorf("%s setup: %w", wn, err)
		}
		m, err := w.layers(share, tr, t)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", wn, err)
		}
		for k, v := range m {
			metrics[k] = v
		}
	}
	path := filepath.Join(scratchDir, "spans", fmt.Sprintf("%s-seed%d.jsonl", name, seed))
	n, err := tr.writeJSONL(path)
	if err != nil {
		return nil, err
	}
	fmt.Printf("# %d spans written to %s\n", n, path)
	return metrics, nil
}

// checkNames verifies that metrics holds exactly the named metrics,
// each a finite number.
func checkNames(metrics map[string]metric, names []string) error {
	for _, n := range names {
		m, ok := metrics[n]
		if !ok {
			return fmt.Errorf("metric %s was not measured", n)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", n, m.Value)
		}
	}
	if len(metrics) != len(names) {
		return fmt.Errorf("%d metrics measured, %d declared", len(metrics), len(names))
	}
	return nil
}
