// Command blasbench records the BLAS3 hot-path acceptance benchmark:
// sustained GFLOPS for the three kernels the factorization spends its
// time in (Dgemm, Dsyrk, Dtrsm), each measured serial and parallel,
// plain and fused with its ABFT checksum update. The fused numbers are
// the ones the paper's overhead argument rests on — the checksum
// update is O(n²) against the kernel's O(n³), so fused GFLOPS should
// track plain GFLOPS closely and the report makes that visible as
// fused_overhead_percent.
//
// `make bench` runs it; CI archives BENCH_blas.json. Wall-clock timing
// lives here, outside the determinism-clean internal packages, exactly as
// with sweepbench.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"abftchol/internal/blas"
	"abftchol/internal/checksum"
	"abftchol/internal/mat"
)

type kernelResult struct {
	Op      string  `json:"op"`      // dgemm | dsyrk | dtrsm
	Variant string  `json:"variant"` // serial | parallel | fused-serial | fused-parallel
	Flops   float64 `json:"flops"`   // per invocation, data kernel only
	Seconds float64 `json:"best_seconds"`
	GFLOPS  float64 `json:"gflops"`
}

type report struct {
	N          int    `json:"n"`
	K          int    `json:"k"`
	Reps       int    `json:"reps"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Workers    int    `json:"workers"`
	GoVersion  string `json:"go_version"`

	Kernels []kernelResult `json:"kernels"`

	// FusedOverheadPercent[op] compares fused-serial against serial:
	// how much of the kernel's throughput the online checksum update
	// costs at this size.
	FusedOverheadPercent map[string]float64 `json:"fused_overhead_percent"`
}

func main() {
	var (
		out  = flag.String("out", "BENCH_blas.json", "write the benchmark report here")
		n    = flag.Int("n", 256, "matrix dimension")
		k    = flag.Int("k", 128, "inner (rank) dimension for gemm/syrk")
		reps = flag.Int("reps", 5, "repetitions; best time is reported")
	)
	flag.Parse()

	r := run(*n, *k, *reps)

	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "blasbench:", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "blasbench:", err)
		os.Exit(1)
	}
	for _, kr := range r.Kernels {
		fmt.Printf("%-7s %-15s %8.3f ms  %6.2f GFLOPS\n", kr.Op, kr.Variant, kr.Seconds*1e3, kr.GFLOPS)
	}
	fmt.Printf("blasbench: wrote %s\n", *out)
}

// best times fn over reps runs and returns the fastest wall clock.
func best(reps int, fn func()) float64 {
	bestT := 0.0
	for i := 0; i < reps; i++ {
		start := time.Now()
		fn()
		el := time.Since(start).Seconds()
		if i == 0 || el < bestT {
			bestT = el
		}
	}
	return bestT
}

func fill(s []float64, seed int) {
	for i := range s {
		s[i] = float64((i*7+seed)%13)/13 - 0.5
	}
}

func run(n, k, reps int) *report {
	r := &report{
		N:                    n,
		K:                    k,
		Reps:                 reps,
		GOMAXPROCS:           runtime.GOMAXPROCS(0),
		Workers:              blas.Workers,
		GoVersion:            runtime.Version(),
		FusedOverheadPercent: map[string]float64{},
	}

	a := make([]float64, n*k)
	b := make([]float64, n*k)
	c := make([]float64, n*n)
	fill(a, 1)
	fill(b, 2)

	// Checksum slabs for the fused variants: the 2-vector code over
	// the operands, updated online exactly as the factorization does.
	chkC := mat.New(2, n) // checksum of the updated block columns
	chkA := mat.New(2, k) // checksum of the multiplying panel
	panel := mat.FromSlice(n, k, b)
	fill(chkC.Data, 3)
	fill(chkA.Data, 4)

	record := func(op, variant string, flops float64, fn func()) {
		fn() // warm-up: pool, caches, goroutine machinery
		sec := best(reps, fn)
		r.Kernels = append(r.Kernels, kernelResult{
			Op: op, Variant: variant, Flops: flops,
			Seconds: sec, GFLOPS: flops / sec / 1e9,
		})
	}

	// ---- Dgemm: C -= A·Bᵀ, the trailing update's dominant shape.
	gemmFlops := 2 * float64(n) * float64(n) * float64(k)
	record("dgemm", "serial", gemmFlops, func() {
		blas.Dgemm(blas.NoTrans, blas.Trans, n, n, k, -1, a, n, b, n, 1, c, n)
	})
	record("dgemm", "parallel", gemmFlops, func() {
		blas.DgemmParallel(blas.NoTrans, blas.Trans, n, n, k, -1, a, n, b, n, 1, c, n)
	})
	record("dgemm", "fused-serial", gemmFlops, func() {
		blas.Dgemm(blas.NoTrans, blas.Trans, n, n, k, -1, a, n, b, n, 1, c, n)
		checksum.UpdateRankK(chkC, chkA, panel)
	})
	record("dgemm", "fused-parallel", gemmFlops, func() {
		blas.DgemmParallel(blas.NoTrans, blas.Trans, n, n, k, -1, a, n, b, n, 1, c, n)
		checksum.UpdateRankK(chkC, chkA, panel)
	})

	// ---- Dsyrk: C -= A·Aᵀ on the lower triangle (diagonal block update).
	syrkFlops := float64(n) * float64(n+1) * float64(k)
	record("dsyrk", "serial", syrkFlops, func() {
		blas.Dsyrk(n, k, -1, a, n, 1, c, n)
	})
	record("dsyrk", "parallel", syrkFlops, func() {
		blas.DsyrkParallel(n, k, -1, a, n, 1, c, n)
	})
	record("dsyrk", "fused-serial", syrkFlops, func() {
		blas.Dsyrk(n, k, -1, a, n, 1, c, n)
		checksum.UpdateRankK(chkC, chkA, panel)
	})

	// ---- Dtrsm: B·L⁻ᵀ with the factorization's Right/Trans shape.
	// Build a well-conditioned lower triangle in l.
	l := make([]float64, k*k)
	fill(l, 5)
	for j := 0; j < k; j++ {
		l[j+j*k] = float64(k)
		for i := 0; i < j; i++ {
			l[i+j*k] = 0
		}
	}
	bt := make([]float64, n*k)
	fill(bt, 6)
	lm := mat.FromSlice(k, k, l)
	chkB := mat.New(2, k)
	fill(chkB.Data, 7)
	trsmFlops := float64(n) * float64(k) * float64(k)
	record("dtrsm", "serial", trsmFlops, func() {
		blas.Dtrsm(blas.Right, blas.Trans, n, k, 1, l, k, bt, n)
	})
	record("dtrsm", "parallel", trsmFlops, func() {
		blas.DtrsmParallel(blas.Right, blas.Trans, n, k, 1, l, k, bt, n)
	})
	record("dtrsm", "fused-serial", trsmFlops, func() {
		blas.Dtrsm(blas.Right, blas.Trans, n, k, 1, l, k, bt, n)
		checksum.UpdateTRSM(chkB, lm)
	})

	// Fused overhead per op, serial vs fused-serial.
	byKey := map[string]kernelResult{}
	for _, kr := range r.Kernels {
		byKey[kr.Op+"/"+kr.Variant] = kr
	}
	for _, op := range []string{"dgemm", "dsyrk", "dtrsm"} {
		plain, fused := byKey[op+"/serial"], byKey[op+"/fused-serial"]
		if plain.Seconds > 0 {
			r.FusedOverheadPercent[op] = (fused.Seconds - plain.Seconds) / plain.Seconds * 100
		}
	}
	return r
}
