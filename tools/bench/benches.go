package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"

	"abftchol/internal/blas"
	"abftchol/internal/checksum"
	"abftchol/internal/core"
	"abftchol/internal/experiments"
	"abftchol/internal/hetsim"
	"abftchol/internal/mat"
	"abftchol/internal/obs"
	"abftchol/internal/reliability/campaign"
)

// The blas bench times the three kernels the factorization spends its
// time in (Dgemm, Dsyrk, Dtrsm), serial and parallel, plain and fused
// with the ABFT checksum update the factorization pairs them with. The
// update is O(n²) against the kernel's O(n³), so fused should track
// plain closely: the fused_overhead_pct rates show how closely. Rates
// use the min, the least disturbed sample.
//
// The level-2 entries time the checksum and unblocked kernels at the
// factorization's shape, a B = 64 block of an n = 512 matrix (lda 512):
// encode and clean verify at m = 2 (the AVX2 checksum kernel) and m = 4
// (the weighted scalar loop), Dpotf2, and UpdatePOTF2 at m = 2. Each
// takes microseconds, so it gets level2Reps samples of one call, its
// set-up left out of the timing.
//
// The dgemm-nt entries time single C -= A·Bᵀ calls that one
// factorization (n = 512, B = 64, m = 2) issues at its step j = 3, at
// its strides: the left-looking panel GEMM, 256 rows of L against the
// 64-row panel over 192 depth steps (working stride 520, its largest
// call), and the checksum slab update, the 8 checksum rows of the
// blocks below the panel (checksum stride 16) against the same panel,
// under one ragged 16-row tile. Their rates are GFLOP/s from the min.
//
// The magma entries time a whole real-plane factorization (MAGMA's
// Algorithm 1, no fault tolerance) on the laptop profile at B = 32, at
// n = 2048 and its neighbours n ± 64. The cliff_2048_vs_neighbours rate
// is n = 2048's GFLOPS over the mean of theirs: a power-of-two leading
// dimension maps every depth step of an operand read in place to the
// same cache sets, and the rate reads well below 1 when that hurts.
const (
	blasN, blasK = 256, 128
	blasReps     = 20
	level2N      = 512
	level2B      = 64
	level2Reps   = 200
	magmaB       = 32
	magmaReps    = 9
)

// magmaNs are the magma entries' orders: 2048 between its neighbours.
var magmaNs = [...]int{1984, 2048, 2112}

func benchBLAS(r *Report) error {
	n, k := blasN, blasK
	a := make([]float64, n*k)
	b := make([]float64, n*k)
	c := make([]float64, n*n)
	fill(a, 1)
	fill(b, 2)

	// Dtrsm solves B·L⁻ᵀ over a well-conditioned lower triangle l.
	l := make([]float64, k*k)
	fill(l, 5)
	for j := range k {
		clear(l[j*k : j*k+j]) // column j above the diagonal
		l[j+j*k] = float64(k)
	}
	bt := make([]float64, n*k)
	fill(bt, 6)

	// Checksum slabs for the fused variants: the 2-vector code over
	// the operands, updated online exactly as the factorization does.
	chkC := mat.New(2, n) // checksum of the updated block columns
	chkA := mat.New(2, k) // checksum of the multiplying panel
	chkB := mat.New(2, k) // checksum of the solved panel
	panel, lm := mat.FromSlice(n, k, b), mat.FromSlice(k, k, l)
	fill(chkC.Data, 3)
	fill(chkA.Data, 4)
	fill(chkB.Data, 7)

	// The factorization's shapes: the trailing update C -= A·Bᵀ, the
	// diagonal block update C -= A·Aᵀ, and the Right/Trans panel solve.
	gemm := func() { blas.Dgemm(blas.NoTrans, blas.Trans, n, n, k, -1, a, n, b, n, 1, c, n) }
	gemmPar := func() { blas.DgemmParallel(blas.NoTrans, blas.Trans, n, n, k, -1, a, n, b, n, 1, c, n) }
	syrk := func() { blas.Dsyrk(n, k, -1, a, n, 1, c, n) }
	syrkPar := func() { blas.DsyrkParallel(n, k, -1, a, n, 1, c, n) }
	trsm := func() { blas.Dtrsm(blas.Right, blas.Trans, n, k, 1, l, k, bt, n) }
	trsmPar := func() { blas.DtrsmParallel(blas.Right, blas.Trans, n, k, 1, l, k, bt, n) }
	rankK := func() { checksum.UpdateRankK(chkC, chkA, panel) }
	fused := func(kernel, update func()) func() { return func() { kernel(); update() } }

	flops := map[string]float64{
		"dgemm": 2 * float64(n) * float64(n) * float64(k),
		"dsyrk": float64(n) * float64(n+1) * float64(k),
		"dtrsm": float64(n) * float64(k) * float64(k),
	}
	for _, kr := range []struct {
		op, variant string
		fn          func()
	}{
		{"dgemm", "serial", gemm},
		{"dgemm", "parallel", gemmPar},
		{"dgemm", "fused-serial", fused(gemm, rankK)},
		{"dgemm", "fused-parallel", fused(gemmPar, rankK)},
		{"dsyrk", "serial", syrk},
		{"dsyrk", "parallel", syrkPar},
		{"dsyrk", "fused-serial", fused(syrk, rankK)},
		{"dtrsm", "serial", trsm},
		{"dtrsm", "parallel", trsmPar},
		{"dtrsm", "fused-serial", fused(trsm, func() { checksum.UpdateTRSM(chkB, lm) })},
	} {
		name := kr.op + "/" + kr.variant
		kr.fn() // warm-up: pool, caches, goroutine machinery
		for range blasReps {
			r.time(name, func() error { kr.fn(); return nil })
		}
		r.Rates["gflops/"+name] = flops[kr.op] / r.entry(name).MinMS / 1e6
	}
	for op := range flops {
		plain, fused := r.entry(op+"/serial").MinMS, r.entry(op+"/fused-serial").MinMS
		r.Rates["fused_overhead_pct/"+op] = (fused - plain) / plain * 100
	}
	r.setExact("n", n)
	r.setExact("k", k)
	if err := benchTileShapes(r); err != nil {
		return err
	}
	if err := benchLevel2(r); err != nil {
		return err
	}
	return benchMagma(r)
}

func benchMagma(r *Report) error {
	var gflops [len(magmaNs)]float64
	for i, n := range magmaNs {
		o := core.Options{Profile: hetsim.Laptop(), N: n, BlockSize: magmaB, Scheme: core.SchemeNone, Data: dominantSPD(n)}
		name := fmt.Sprintf("magma/n=%d", n)
		run := func() error { _, err := core.Run(o); return err }
		if err := run(); err != nil { // warm-up
			return fmt.Errorf("%s: %w", name, err)
		}
		for range magmaReps {
			if err := r.time(name, run); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
		}
		gflops[i] = float64(n) * float64(n) * float64(n) / 3 / r.entry(name).MinMS / 1e6
		r.Rates["gflops/"+name] = gflops[i]
	}
	r.Rates["cliff_2048_vs_neighbours"] = gflops[1] / ((gflops[0] + gflops[2]) / 2)
	r.setExact("magma_n", magmaNs)
	r.setExact("magma_b", magmaB)
	return nil
}

// dominantSPD is a symmetric n x n matrix with off-diagonal elements in
// [-0.5, 0.5) and n on the diagonal: strictly diagonally dominant, so
// positive definite, and built in O(n²) where mat.RandSPD takes O(n³).
func dominantSPD(n int) *mat.Matrix {
	a := mat.New(n, n)
	for j := range n {
		for i := j; i < n; i++ {
			v := float64((i*7+j*3)%13)/13 - 0.5
			if i == j {
				v = float64(n)
			}
			a.Set(i, j, v)
			a.Set(j, i, v)
		}
	}
	return a
}

func benchTileShapes(r *Report) error {
	const n, b, j, m = level2N, level2B, 3, 2
	const ld, chkLd = 520, m * n / b // the working copy's and chk's strides
	const k, r0 = j * b, (j + 1) * b
	w := make([]float64, ld*n)
	fill(w, 8)
	chk := make([]float64, chkLd*n)
	fill(chk, 9)
	panel := w[j*b:] // L[jB:(j+1)B, 0:jB]
	for _, sh := range []struct {
		rows int
		a    []float64
		lda  int
		c    []float64
		ldc  int
	}{
		{n - r0, w[r0:], ld, w[r0+j*b*ld:], ld},
		{m * (n/b - j - 1), chk[m*(j+1):], chkLd, chk[m*(j+1)+j*b*chkLd:], chkLd},
	} {
		name := fmt.Sprintf("dgemm-nt/%dx%dx%d", sh.rows, b, k)
		call := func() error {
			blas.Dgemm(blas.NoTrans, blas.Trans, sh.rows, b, k, -1, sh.a, sh.lda, panel, ld, 1, sh.c, sh.ldc)
			return nil
		}
		call() // warm-up
		for range level2Reps {
			r.time(name, call)
		}
		r.Rates["gflops/"+name] = 2 * float64(sh.rows*b*k) / r.entry(name).MinMS / 1e6
	}
	return nil
}

func benchLevel2(r *Report) error {
	const b = level2B
	a := mat.RandSPD(level2N, 1)
	blk := a.View(b, 0, b, b) // a below-diagonal block at lda 512
	level2 := func(name string, setup func(), fn func() error) error {
		setup()
		if err := fn(); err != nil { // warm-up
			return fmt.Errorf("%s: %w", name, err)
		}
		for range level2Reps {
			setup()
			if err := r.time(name, fn); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
		}
		return nil
	}
	none := func() {}
	for _, m := range []int{2, 4} {
		chk, scratch := mat.New(m, b), mat.New(m, b)
		encode := func() error { checksum.EncodeBlockInto(blk, chk); return nil }
		verify := func() error { _, err := checksum.VerifyAndCorrect(blk, chk, scratch); return err }
		if err := level2(fmt.Sprintf("encode/m=%d", m), none, encode); err != nil {
			return err
		}
		if err := level2(fmt.Sprintf("verify/m=%d", m), none, verify); err != nil {
			return err
		}
	}
	w := a.Clone()
	diag := w.View(0, 0, b, b)
	src := a.View(0, 0, b, b)
	if err := level2("dpotf2", func() { diag.CopyFrom(src) }, func() error {
		return blas.Dpotf2(b, diag.Data, diag.Stride)
	}); err != nil {
		return err
	}
	chk, chk0 := mat.New(2, b), mat.New(2, b)
	checksum.EncodeBlockInto(src, chk0)
	if err := level2("updatepotf2/m=2", func() { chk.CopyFrom(chk0) }, func() error {
		checksum.UpdatePOTF2(chk, diag)
		return nil
	}); err != nil {
		return err
	}
	r.setExact("level2_n", level2N)
	r.setExact("level2_b", b)
	return nil
}

func fill(s []float64, seed int) {
	for i := range s {
		s[i] = float64((i*7+seed)%13)/13 - 0.5
	}
}

// The sweep bench renders the full `-exp all` experiment set three
// ways per rep: serial from a cold start, parallel over a cold cache,
// and parallel again over the now warm cache. All three must be
// byte-identical, and the warm pass must execute no point: a cold pass
// that failed to fill the cache would still render identical output.
// The warm pass's metrics snapshot, the cache-hit accounting, goes to
// sweepMetricsOut.
const (
	sweepReps       = 5
	sweepMetricsOut = "artifacts/sweep-cache-metrics.json"
)

func benchSweep(r *Report) error {
	root, err := os.MkdirTemp("", "bench-sweep-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(root)
	reg, ids := experiments.Registry(), experiments.IDs()
	var want string
	pass := func(name string, sched *experiments.Scheduler, sink *experiments.Obs) error {
		return r.time(name, func() error {
			var b strings.Builder
			for _, id := range ids {
				fmt.Fprintln(&b, sched.Run(reg[id].Run, reg[id].Profile, experiments.Config{Obs: sink}))
			}
			if err := sched.StoreErr(); err != nil {
				return fmt.Errorf("%s pass: %w", name, err)
			}
			if want == "" {
				want = b.String()
			} else if b.String() != want {
				return fmt.Errorf("the %s pass did not render byte-identical output", name)
			}
			return nil
		})
	}
	var warm *experiments.Obs
	for i := range sweepReps {
		cache := experiments.NewCache(filepath.Join(root, strconv.Itoa(i)))
		warm = &experiments.Obs{Metrics: obs.NewRegistry()}
		if err := pass("serial_cold", experiments.NewScheduler(1, nil), nil); err != nil {
			return err
		}
		if err := pass("parallel_cold", experiments.NewScheduler(0, cache), nil); err != nil {
			return err
		}
		if err := pass("parallel_warm", experiments.NewScheduler(0, cache), warm); err != nil {
			return err
		}
		if n := warm.Metrics.Counter("sweep.points.executed"); n != 0 {
			return fmt.Errorf("the warm pass executed %d points the cold pass should have cached", n)
		}
	}
	r.Rates["speedup_warm_vs_serial_cold"] = r.entry("serial_cold").MedianMS / r.entry("parallel_warm").MedianMS
	r.setExact("experiments", slices.Sorted(slices.Values(ids)))
	r.setExact("byte_identical", true)
	r.setExact("points_planned", warm.Metrics.Counter("sweep.points.planned"))
	r.setExact("points_executed_warm", warm.Metrics.Counter("sweep.points.executed"))
	r.setExact("cache_hits_warm", warm.Metrics.Counter("sweep.cache.hits"))
	r.setExact("dedup_hits_warm", warm.Metrics.Counter("sweep.dedup.hits"))
	snap, err := warm.Metrics.Snapshot()
	if err != nil {
		return err
	}
	return writeFile(sweepMetricsOut, snap)
}

// The reliability bench runs the default (machine × scheme × fault
// class) campaign grid serially and on the parallel worker pool,
// requires every report to be byte-identical, and keeps the report,
// the outcome rates with Wilson 95% intervals per cell, as an exact
// value: byte-for-byte what `abftchol -campaign` with the same seed
// prints.
const (
	relReps = 5
	relSeed = 20160523
)

func benchReliability(r *Report) error {
	var want []byte
	trials := 0
	pass := func(name string, workers int) error {
		return r.time(name, func() error {
			rep, err := campaign.Run(context.Background(), campaign.Config{Seed: relSeed}, experiments.NewScheduler(workers, nil), campaign.RunOptions{})
			if err != nil {
				return err
			}
			data, err := rep.Marshal()
			if err == nil && want != nil && !bytes.Equal(data, want) {
				err = fmt.Errorf("the %s campaign report is not byte-identical to the first", name)
			}
			want, trials = data, rep.TotalTrials
			return err
		})
	}
	for range relReps {
		if err := pass("serial", 1); err != nil {
			return err
		}
		if err := pass("parallel", 0); err != nil { // 0: GOMAXPROCS workers
			return err
		}
	}
	parallel := r.entry("parallel").MedianMS
	r.Rates["speedup_parallel_vs_serial"] = r.entry("serial").MedianMS / parallel
	r.Rates["trials_per_second_parallel"] = float64(trials) / parallel * 1e3
	r.setExact("byte_identical", true)
	r.setExact("campaign", json.RawMessage(want))
	return nil
}
