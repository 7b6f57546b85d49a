package main

import (
	"fmt"
	"math"
	"strings"
	"time"

	"abftchol"
	"abftchol/internal/blas"
	"abftchol/internal/checksum"
	"abftchol/internal/core"
	"abftchol/internal/fault"
	"abftchol/internal/hetsim"
	"abftchol/internal/mat"
	"abftchol/internal/obs"
)

// The factor workload factors one SPD matrix on the real plane, where
// blas and checksum do nearly all the work. n=512 keeps the 2 MiB
// matrix inside one core's L2; at n=1536 the medians of one binary
// drifted 15-30% between processes.
const (
	factorN     = 512
	factorBlock = 64
	faultDelta  = 1e3
	// maxResidual bounds the reference factor's scaled residual.
	maxResidual = 1e-15
	// maxRecoverDiff bounds how far, relative to max|L|, the factor of
	// a run with two corrected errors may sit from the clean factor.
	maxRecoverDiff = 1e-10
)

// A round runs these four factorizations back to back, so slow drift
// of the host hits all four alike. recover is Enhanced with one storage
// and one computation error injected.
const (
	kindMagma = iota
	kindOnline
	kindEnhanced
	kindRecover
	numKinds
)

var (
	kindNames  = [numKinds]string{"magma", "online", "enhanced", "recover"}
	kindScheme = [numKinds]core.Scheme{core.SchemeNone, core.SchemeOnline, core.SchemeEnhanced, core.SchemeEnhanced}
)

// replaySchemes are the schemes a traced round replays; replayOf maps
// each kind to the replay making its calls (recover makes Enhanced's).
var (
	replaySchemes = [...]core.Scheme{core.SchemeNone, core.SchemeOnline, core.SchemeEnhanced}
	replayOf      = [numKinds]int{0, 1, 2, 2}
)

type factorBench struct {
	a    *mat.Matrix
	ref  *mat.Matrix // MAGMA factor of a, residual-checked
	opts [numKinds]core.Options
}

// factorOptions builds the four kinds' options on the laptop profile
// with every optimization on.
func factorOptions(a *mat.Matrix) [numKinds]core.Options {
	var opts [numKinds]core.Options
	for k := range opts {
		opts[k] = core.Options{
			Profile:          hetsim.Laptop(),
			N:                a.Rows,
			BlockSize:        factorBlock,
			Scheme:           kindScheme[k],
			ConcurrentRecalc: true,
			Data:             a,
		}
	}
	storage, compute := fault.DefaultStorage(3), fault.DefaultComputation(5)
	storage.Delta, compute.Delta = faultDelta, faultDelta
	opts[kindRecover].Scenarios = []fault.Scenario{storage, compute}
	return opts
}

func (f *factorBench) setup(seed int64) error {
	f.a = mat.RandSPD(factorN, seed)
	f.opts = factorOptions(f.a)
	res, err := core.Run(f.opts[kindMagma])
	if err != nil {
		return fmt.Errorf("reference factorization: %w", err)
	}
	if r := abftchol.Residual(f.a, res.L); !(r < maxResidual) {
		return fmt.Errorf("reference factor residual %.3g, want below %g", r, maxResidual)
	}
	f.ref = res.L
	return nil
}

// checkFactor checks one factorization of kind k against the reference
// MAGMA factor: clean factors must be bit-identical to it, and the
// faulted Enhanced run must finish in one attempt with both errors
// corrected and its factor within maxRecoverDiff of it.
func checkFactor(k int, res core.Result, err error, ref *mat.Matrix) error {
	if err != nil {
		return fmt.Errorf("%s factorization: %w", kindNames[k], err)
	}
	if k != kindRecover {
		if res.Corrections != 0 || !sameBits(res.L, ref) {
			return fmt.Errorf("%s factor is not bit-identical to the MAGMA factor (%d corrections)", kindNames[k], res.Corrections)
		}
		return nil
	}
	if res.Attempts != 1 || res.Corrections != 2 {
		return fmt.Errorf("recover: %d attempts and %d corrections, want 1 and 2", res.Attempts, res.Corrections)
	}
	if d := relDiff(res.L, ref); !(d <= maxRecoverDiff) {
		return fmt.Errorf("recover: factor is %.3g (relative) from the clean one, want at most %g", d, maxRecoverDiff)
	}
	return nil
}

// sameBits reports whether a and b have one shape and bit-identical
// elements.
func sameBits(a, b *mat.Matrix) bool {
	if a == nil || b == nil || a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for j := 0; j < a.Cols; j++ {
		ca, cb := a.Col(j), b.Col(j)
		for i := range ca {
			if math.Float64bits(ca[i]) != math.Float64bits(cb[i]) {
				return false
			}
		}
	}
	return true
}

// relDiff is max|a-b| / max|b|; +Inf for mismatched shapes or a NaN.
func relDiff(a, b *mat.Matrix) float64 {
	if a == nil || b == nil || a.Rows != b.Rows || a.Cols != b.Cols {
		return math.Inf(1)
	}
	var diff, scale float64
	for j := 0; j < a.Cols; j++ {
		ca, cb := a.Col(j), b.Col(j)
		for i := range ca {
			d := math.Abs(ca[i] - cb[i])
			if math.IsNaN(d) {
				return math.Inf(1)
			}
			diff, scale = max(diff, d), max(scale, math.Abs(cb[i]))
		}
	}
	return diff / scale
}

// round runs the four factorizations once each, checks them, and
// returns their wall times and the process CPU time of the four runs,
// the checks left out.
func (f *factorBench) round(t *tally) ([numKinds]time.Duration, time.Duration) {
	var d [numKinds]time.Duration
	var cpu time.Duration
	for k := range f.opts {
		c0, start := cpuTime(), time.Now()
		res, err := core.Run(f.opts[k])
		d[k], cpu = time.Since(start), cpu+cpuTime()-c0
		t.op(checkFactor(k, res, err, f.ref))
	}
	return d, cpu
}

func (f *factorBench) measure(d time.Duration, t *tally) (sample, error) {
	ref := newRefKernel()
	f.round(t) // warm-up
	ref.run()
	var s sample
	m := startMeter()
	for begin := time.Now(); time.Since(begin) < d; {
		r := ref.run()
		wall, cpu := f.round(t)
		var sum time.Duration
		for _, x := range wall {
			sum += x
		}
		s.opMs = append(s.opMs, ms(sum)/numKinds)
		s.window(numKinds, rescale(cpu, r))
	}
	s.alloc = m.allocated()
	return s, nil
}

// replayCounts are the calls one replayed factorization made.
type replayCounts struct {
	syrk, gemm, trsm, potf2, chkUpdate, verifyBlocks int
	flops                                            float64 // of the blas calls
}

// replay re-runs Algorithm 1 on a copy of a by calling the blas and
// checksum kernels directly, in the order internal/core's left-looking
// driver calls them for scheme with K=1 and two checksum vectors, and
// returns the factor. Each call is a span under root (a no-op when not
// tracing). The diagonal update is a full GEMM, as in core, so the
// block keeps matching its column checksums.
func replay(a *mat.Matrix, b int, scheme core.Scheme, root spanRef) (*mat.Matrix, replayCounts, error) {
	const m = 2
	w := a.Clone()
	nb := w.Rows / b
	ft := scheme.FaultTolerant()
	online, enhanced := scheme == core.SchemeOnline, scheme == core.SchemeEnhanced
	var c replayCounts
	var chk *mat.Matrix
	var failed error
	scratch := mat.New(m, b)
	block := func(i, j int) *mat.Matrix { return w.View(i*b, j*b, b, b) }
	verify := func(blocks [][2]int) {
		sp := root.child("checksum.verify")
		for _, bl := range blocks {
			c.verifyBlocks++
			_, err := checksum.VerifyAndCorrect(block(bl[0], bl[1]), chk.View(m*bl[0], bl[1]*b, m, b), scratch)
			if err != nil && failed == nil {
				failed = fmt.Errorf("verify block (%d,%d): %w", bl[0], bl[1], err)
			}
		}
		sp.end()
	}
	update := func(fn func()) {
		sp := root.child("checksum.update")
		fn()
		sp.end()
		c.chkUpdate++
	}
	kernel := func(name string, flops float64, fn func()) {
		sp := root.child(name)
		fn()
		sp.end()
		c.flops += flops
	}
	if ft {
		sp := root.child("checksum.encode")
		chk = checksum.EncodeMatrixMulti(w, b, m)
		sp.end()
	}
	fb := float64(b)
	for j := 0; j < nb; j++ {
		k, rest := j*b, nb-j-1
		rows, r0 := rest*b, (j+1)*b
		diag := block(j, j)
		if enhanced {
			verify(rowAndDiag(j))
		}
		if k > 0 {
			kernel("blas.syrk", 2*fb*fb*float64(k), func() {
				blas.DgemmParallel(blas.NoTrans, blas.Trans, b, b, k, -1, w.Off(j*b, 0), w.Stride,
					w.Off(j*b, 0), w.Stride, 1, diag.Data, diag.Stride)
			})
			c.syrk++
			if ft {
				update(func() { checksum.UpdateRankK(chk.View(m*j, j*b, m, b), chk.View(m*j, 0, m, k), w.View(j*b, 0, b, k)) })
			}
		}
		if (online && j > 0) || enhanced {
			verify([][2]int{{j, j}})
		}
		if rest > 0 && j > 0 {
			if enhanced {
				verify(trailingAndPanel(j, nb))
			}
			kernel("blas.gemm", 2*float64(rows)*fb*float64(k), func() {
				blas.DgemmParallel(blas.NoTrans, blas.Trans, rows, b, k, -1, w.Off(r0, 0), w.Stride,
					w.Off(j*b, 0), w.Stride, 1, w.Off(r0, j*b), w.Stride)
			})
			c.gemm++
			if ft {
				update(func() {
					checksum.UpdateRankK(chk.View(m*(j+1), j*b, m*rest, b), chk.View(m*(j+1), 0, m*rest, k), w.View(j*b, 0, b, k))
				})
			}
			if online {
				verify(panel(j, nb))
			}
		}
		var perr error
		kernel("blas.potf2", fb*fb*fb/3, func() {
			if perr = blas.Dpotf2(b, diag.Data, diag.Stride); perr == nil {
				diag.LowerFromFull()
			}
		})
		c.potf2++
		if perr != nil {
			return nil, c, fmt.Errorf("potf2 of block %d: %w", j, perr)
		}
		if ft {
			update(func() { checksum.UpdatePOTF2(chk.View(m*j, j*b, m, b), diag) })
		}
		if online {
			verify([][2]int{{j, j}})
		}
		if rest > 0 {
			if enhanced {
				verify(append([][2]int{{j, j}}, panel(j, nb)...))
			}
			kernel("blas.trsm", float64(rows)*fb*fb, func() {
				blas.DtrsmParallel(blas.Right, blas.Trans, rows, b, 1, diag.Data, diag.Stride, w.Off(r0, j*b), w.Stride)
			})
			c.trsm++
			if ft {
				update(func() { checksum.UpdateTRSM(chk.View(m*(j+1), j*b, m*rest, b), diag) })
			}
			if online {
				verify(panel(j, nb))
			}
		}
	}
	if failed != nil {
		return nil, c, failed
	}
	w.LowerFromFull()
	return w, c, nil
}

// rowAndDiag lists the diagonal update's inputs at iteration j: blocks
// (j, 0..j).
func rowAndDiag(j int) [][2]int {
	out := make([][2]int, 0, j+1)
	for k := 0; k <= j; k++ {
		out = append(out, [2]int{j, k})
	}
	return out
}

// trailingAndPanel lists the panel update's inputs below row j: blocks
// (i, 0..j) for every i > j.
func trailingAndPanel(j, nb int) [][2]int {
	var out [][2]int
	for i := j + 1; i < nb; i++ {
		for k := 0; k <= j; k++ {
			out = append(out, [2]int{i, k})
		}
	}
	return out
}

// panel lists the blocks of column j below the diagonal.
func panel(j, nb int) [][2]int {
	out := make([][2]int, 0, nb-j-1)
	for i := j + 1; i < nb; i++ {
		out = append(out, [2]int{i, j})
	}
	return out
}

// compareCounts checks a replay's calls against the counters a run of
// the same options recorded.
func compareCounts(c replayCounts, reg *obs.Registry) error {
	for _, p := range []struct {
		counter string
		calls   int
	}{
		{"kernel.launches.syrk", c.syrk},
		{"kernel.launches.gemm", c.gemm},
		{"kernel.launches.trsm", c.trsm},
		{"kernel.launches.potf2", c.potf2},
		{"kernel.launches.chk_update", c.chkUpdate},
		{"verify.blocks", c.verifyBlocks},
	} {
		if want := reg.Counter(p.counter); int64(p.calls) != want {
			return fmt.Errorf("replay made %d calls counted as %s, the run counted %d", p.calls, p.counter, want)
		}
	}
	return nil
}

// crossCheck runs each kind once with a metrics registry and checks
// that a replay of its scheme makes exactly the kernel launches and
// block verifications the run counted. It returns the number of blocks
// an Enhanced factorization verifies.
func (f *factorBench) crossCheck(t *tally) int {
	verified := 0
	for k := range f.opts {
		o := f.opts[k]
		o.Metrics = obs.NewRegistry()
		res, err := core.Run(o)
		t.op(checkFactor(k, res, err, f.ref))
		_, c, err := replay(f.a, factorBlock, kindScheme[k], spanRef{})
		if err == nil {
			err = compareCounts(c, o.Metrics)
		}
		if err != nil {
			err = fmt.Errorf("%s replay: %w", kindNames[k], err)
		}
		t.op(err)
		if k == kindEnhanced {
			verified = c.verifyBlocks
		}
	}
	return verified
}

// bookkeeping runs the four kinds on the model plane (Data nil): the
// driver, hetsim and fault-ledger work without the arithmetic. It
// returns the total wall time and each kind's simulated time.
func (f *factorBench) bookkeeping() (time.Duration, [numKinds]float64, error) {
	var total time.Duration
	var sim [numKinds]float64
	for k := range f.opts {
		o := f.opts[k]
		o.Data = nil
		start := time.Now()
		res, err := core.Run(o)
		total += time.Since(start)
		if err != nil {
			return total, sim, fmt.Errorf("%s on the model plane: %w", kindNames[k], err)
		}
		sim[k] = res.Time
	}
	return total, sim, nil
}

// layers replays the factorization kernel by kernel. Each round also
// times the four core.Run calls, for the per-kind times, the measured
// ABFT overhead and core's self time, and the same options on the
// model plane, for core's bookkeeping. Replays alternate between
// traced and untraced rounds; the difference is the tracing overhead.
func (f *factorBench) layers(d time.Duration, tr *tracer, t *tally) (map[string]metric, error) {
	verified := f.crossCheck(t)
	type tracedRound struct {
		run   [numKinds]time.Duration
		ops   [len(replaySchemes)]int64
		flops float64
	}
	var (
		rounds            []tracedRound
		runMs             [numKinds][]float64
		overheadPct       []float64
		bookMs            []float64
		modelPct          float64
		tracedMs, plainMs []float64
	)
	f.round(t) // warm-up
	for i, begin := 0, time.Now(); i < 2 || time.Since(begin) < d; i++ {
		run, _ := f.round(t)
		r := tracedRound{run: run}
		for k, x := range r.run {
			runMs[k] = append(runMs[k], ms(x))
		}
		overheadPct = append(overheadPct, 100*(float64(r.run[kindEnhanced])/float64(r.run[kindMagma])-1))
		book, sim, err := f.bookkeeping()
		t.op(err)
		bookMs = append(bookMs, ms(book)/numKinds)
		modelPct = 100 * (sim[kindEnhanced]/sim[kindMagma] - 1)

		rtr := tr
		if i%2 == 1 {
			rtr = nil
		}
		var total time.Duration
		for si, scheme := range replaySchemes {
			op := rtr.newOp()
			root := rtr.start(op, "factor.replay."+kindNames[si])
			start := time.Now()
			l, c, err := replay(f.a, factorBlock, scheme, root)
			total += time.Since(start)
			root.end()
			if err == nil && !sameBits(l, f.ref) {
				err = fmt.Errorf("replayed %s factor is not bit-identical to core.Run's", kindNames[si])
			}
			t.op(err)
			r.ops[si], r.flops = op, r.flops+c.flops
		}
		if rtr == nil {
			plainMs = append(plainMs, ms(total))
			continue
		}
		tracedMs = append(tracedMs, ms(total))
		rounds = append(rounds, r)
	}

	spans := tr.byOp()
	perFactorization := map[string][]float64{}
	var selfMs []float64
	var flops float64
	var blasTime time.Duration
	for _, r := range rounds {
		var covered [len(replaySchemes)]time.Duration
		for si, op := range r.ops {
			for name, d := range sumByName(spans[op]) {
				isBLAS := strings.HasPrefix(name, "blas.")
				if !isBLAS && !strings.HasPrefix(name, "checksum.") {
					continue // the replay's root span
				}
				covered[si] += d
				if isBLAS {
					blasTime += d
				}
				// blas times count every scheme's factorization; checksum
				// times are Enhanced's.
				if isBLAS || replaySchemes[si] == core.SchemeEnhanced {
					perFactorization[name] = append(perFactorization[name], ms(d))
				}
			}
		}
		flops += r.flops
		var self time.Duration
		for k, x := range r.run {
			self += x - covered[replayOf[k]]
		}
		selfMs = append(selfMs, ms(self)/numKinds)
	}

	out := map[string]metric{
		"blas.syrk_ms":              {median(perFactorization["blas.syrk"]), "ms"},
		"blas.gemm_ms":              {median(perFactorization["blas.gemm"]), "ms"},
		"blas.trsm_ms":              {median(perFactorization["blas.trsm"]), "ms"},
		"blas.potf2_ms":             {median(perFactorization["blas.potf2"]), "ms"},
		"blas.gflops":               {flops / blasTime.Seconds() / 1e9, "GFLOP/s"},
		"checksum.encode_ms":        {median(perFactorization["checksum.encode"]), "ms"},
		"checksum.update_ms":        {median(perFactorization["checksum.update"]), "ms"},
		"checksum.verify_ms":        {median(perFactorization["checksum.verify"]), "ms"},
		"checksum.verify_blocks":    {float64(verified), "count"},
		"checksum.overhead_pct":     {median(overheadPct), "%"},
		"hetsim.model_overhead_pct": {modelPct, "%"},
		"core.bookkeeping_ms":       {median(bookMs), "ms"},
		"core.self_ms":              {median(selfMs), "ms"},
		"trace.factor_overhead_pct": {100 * (median(tracedMs)/median(plainMs) - 1), "%"},
	}
	for k, name := range kindNames {
		out["core."+name+"_ms"] = metric{median(runMs[k]), "ms"}
	}
	return out, nil
}

func (*factorBench) rescaled() bool { return true }
