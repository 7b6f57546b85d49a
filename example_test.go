package abftchol_test

import (
	"fmt"
	"math"
	"math/rand"

	"abftchol"
)

// The basic flow: factor an SPD matrix under the enhanced scheme,
// confirm the factor is exact, and solve a linear system with it.
func ExampleFactorSPD() {
	const n = 128
	a := abftchol.NewSPD(n, 1)
	l, res, err := abftchol.FactorSPD(a, abftchol.Laptop(), abftchol.SchemeEnhanced)
	if err != nil {
		panic(err)
	}
	fmt.Printf("scheme: %s\n", res.Scheme)
	fmt.Printf("attempts: %d\n", res.Attempts)
	fmt.Printf("blocks verified: %d\n", res.VerifiedBlocks)
	fmt.Printf("factor correct: %v\n", abftchol.Residual(a, l) < 1e-12)

	// Solve A·x = b for a right-hand side with a known solution.
	want := make([]float64, n)
	for i := range want {
		want[i] = float64(i%5) - 2
	}
	b := make([]float64, n)
	for i := range b {
		for j, w := range want {
			b[i] += a.At(i, j) * w
		}
	}
	if err := abftchol.Solve(l, b); err != nil {
		panic(err)
	}
	fmt.Printf("solve error below 1e-10: %v\n", maxAbsDiff(b, want) < 1e-10)
	// Output:
	// scheme: enhanced-online-abft
	// attempts: 1
	// blocks verified: 30
	// factor correct: true
	// solve error below 1e-10: true
}

// Injecting the paper's two error classes: the enhanced scheme repairs
// both in place, without redoing the factorization.
func ExampleRun_faultInjection() {
	a := abftchol.NewSPD(256, 2)
	res, err := abftchol.Run(abftchol.Options{
		Profile:          abftchol.Laptop(),
		N:                256,
		Scheme:           abftchol.SchemeEnhanced,
		ConcurrentRecalc: true,
		Data:             a,
		Scenarios: []abftchol.Scenario{
			abftchol.StorageError(4, 1e5),
			abftchol.ComputationError(6, 1e5),
		},
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("errors injected: %d\n", len(res.Injections))
	fmt.Printf("corrected in place: %v (attempts=%d)\n", res.Corrections >= 2, res.Attempts)
	fmt.Printf("factor correct: %v\n", abftchol.Residual(a, res.L) < 1e-10)
	// Output:
	// errors injected: 2
	// corrected in place: true (attempts=1)
	// factor correct: true
}

// The same storage error defeats the state-of-the-art Online-ABFT: the
// run is redone from scratch (the paper's Table VII behaviour).
func ExampleRun_onlineRedo() {
	a := abftchol.NewSPD(256, 3)
	res, err := abftchol.Run(abftchol.Options{
		Profile:   abftchol.Laptop(),
		N:         256,
		Scheme:    abftchol.SchemeOnline,
		Data:      a,
		Scenarios: []abftchol.Scenario{abftchol.StorageError(4, 1e5)},
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("attempts: %d\n", res.Attempts)
	fmt.Printf("factor correct anyway: %v\n", abftchol.Residual(a, res.L) < 1e-10)
	// Output:
	// attempts: 2
	// factor correct anyway: true
}

// The §V-B decision model: where should checksum updating run? The
// answer is a property of the machine, not of the matrix size.
func ExampleDecideUpdatePlacement() {
	for _, prof := range []abftchol.Profile{abftchol.Tardis(), abftchol.Bulldozer64()} {
		fmt.Printf("%s:", prof.Name)
		for _, n := range []int{5120, 10240, 20480, prof.MaxN} {
			fmt.Printf(" %d=%v", n, abftchol.DecideUpdatePlacement(prof, n, prof.BlockSize, 1))
		}
		fmt.Println()
	}
	// Output:
	// tardis: 5120=cpu 10240=cpu 20480=cpu 23040=cpu
	// bulldozer64: 5120=gpu 10240=gpu 20480=gpu 30720=gpu
}

// Paper-scale runs use the cost-model plane: no Data, same control
// flow, simulated timing for the calibrated machine.
func ExampleRun_modelPlane() {
	res, err := abftchol.Run(abftchol.Options{
		Profile:          abftchol.Tardis(),
		N:                20480,
		Scheme:           abftchol.SchemeEnhanced,
		ConcurrentRecalc: true,
		Placement:        abftchol.PlaceAuto,
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("simulated time in the paper's range: %v\n", res.Time > 10 && res.Time < 11.5)
	fmt.Printf("placement: %v\n", res.Placement)
	// Output:
	// simulated time in the paper's range: true
	// placement: cpu
}

// The closed-form overhead model of §VI.
func ExampleOverheadModel() {
	m := abftchol.OverheadModel{N: 20480, B: 256, K: 1}
	fmt.Printf("online asymptote: %.4f\n", m.OnlineAsymptotic())
	fmt.Printf("enhanced asymptote: %.4f\n", m.EnhancedAsymptotic())
	// Output:
	// online asymptote: 0.0078
	// enhanced asymptote: 0.0156
}

// The capability experiment of §VII-B (Tables VII and VIII) with real
// arithmetic: one computation error and one storage error against each
// ABFT scheme. Enhanced corrects both in place. Online corrects the
// computation error; on the storage error its post-write checks repair
// the smear the bad block leaves in the GEMM output, one element per
// column, but not the block itself, so the final audit rejects the
// result and the run is redone. Offline redoes it on either. Every
// scheme still delivers a correct factor: they differ only in what
// recovery costs.
func ExampleRun_capability() {
	const n = 256
	a := abftchol.NewSPD(n, 99)
	conditions := []struct {
		name      string
		scenarios []abftchol.Scenario
	}{
		{"no error", nil},
		{"computation", []abftchol.Scenario{abftchol.ComputationError(5, 1e5)}},
		{"storage", []abftchol.Scenario{abftchol.StorageError(6, 1e5)}},
	}
	for _, sch := range []abftchol.Scheme{abftchol.SchemeEnhanced, abftchol.SchemeOnline, abftchol.SchemeOffline} {
		for _, c := range conditions {
			res, err := abftchol.Run(abftchol.Options{
				Profile:          abftchol.Laptop(),
				N:                n,
				Scheme:           sch,
				ConcurrentRecalc: true,
				Data:             a,
				Scenarios:        c.scenarios,
			})
			if err != nil {
				panic(err)
			}
			fmt.Printf("%-20s %-11s attempts=%d corrections=%-2d correct=%v\n",
				sch, c.name, res.Attempts, res.Corrections, abftchol.Residual(a, res.L) < 1e-10)
		}
	}
	// Output:
	// enhanced-online-abft no error    attempts=1 corrections=0  correct=true
	// enhanced-online-abft computation attempts=1 corrections=1  correct=true
	// enhanced-online-abft storage     attempts=1 corrections=1  correct=true
	// online-abft          no error    attempts=1 corrections=0  correct=true
	// online-abft          computation attempts=1 corrections=1  correct=true
	// online-abft          storage     attempts=2 corrections=32 correct=true
	// offline-abft         no error    attempts=1 corrections=0  correct=true
	// offline-abft         computation attempts=2 corrections=0  correct=true
	// offline-abft         storage     attempts=2 corrections=0  correct=true
}

// The paper's two tuning decisions on its evaluation machines, measured
// on the cost-model plane at each machine's largest size. Optimization
// 2: the decision model (PlaceAuto) picks the fastest placement of the
// checksum updates. Optimization 3: a longer verification interval K
// verifies fewer blocks and costs less, but widens the window in which
// a storage error can slip into a GEMM input, so K follows the
// machine's error rate.
func ExampleRun_tuning() {
	for _, prof := range []abftchol.Profile{abftchol.Tardis(), abftchol.Bulldozer64()} {
		run := func(sch abftchol.Scheme, place abftchol.Placement, k int) abftchol.Result {
			res, err := abftchol.Run(abftchol.Options{
				Profile: prof, N: prof.MaxN, Scheme: sch,
				K: k, ConcurrentRecalc: true, Placement: place,
			})
			if err != nil {
				panic(err)
			}
			return res
		}
		best, bestTime := abftchol.PlaceInline, math.Inf(1)
		for _, place := range []abftchol.Placement{abftchol.PlaceInline, abftchol.PlaceCPU, abftchol.PlaceGPU} {
			if t := run(abftchol.SchemeEnhanced, place, 1).Time; t < bestTime {
				best, bestTime = place, t
			}
		}
		auto := run(abftchol.SchemeEnhanced, abftchol.PlaceAuto, 1)
		fmt.Printf("%s: fastest placement %v, auto picks %v\n", prof.Name, best, auto.Placement)

		base := run(abftchol.SchemeNone, abftchol.PlaceAuto, 1).Time
		prev, falls := math.Inf(1), true
		fmt.Print("  blocks verified by K:")
		for _, k := range []int{1, 2, 3, 5, 8} {
			res := run(abftchol.SchemeEnhanced, abftchol.PlaceAuto, k)
			overhead := res.Time/base - 1
			falls = falls && overhead < prev
			prev = overhead
			fmt.Printf(" %d=%d", k, res.VerifiedBlocks)
		}
		fmt.Printf("\n  overhead falls as K grows: %v\n", falls)
	}
	// Output:
	// tardis: fastest placement cpu, auto picks cpu
	//   blocks verified by K: 1=129675 2=66975 3=46065 5=29319 8=19873
	//   overhead falls as K grows: true
	// bulldozer64: fastest placement gpu, auto picks gpu
	//   blocks verified by K: 1=39650 2=20800 3=14510 5=9466 8=6642
	//   overhead falls as K grows: true
}

// A linear least-squares fit by normal equations, one of the workloads
// the paper's introduction motivates. The SPD left-hand side XᵀX + λI
// is factored while a storage error strikes an already-factored block;
// Enhanced verifies the block before it is read again, repairs it in
// place, and the fitted weights come out at the noise floor.
func Example_leastSquares() {
	const (
		rows   = 1024 // observations
		params = 128  // fitted parameters, a multiple of the block size
		lambda = 1e-3 // ridge term keeping the normal equations SPD
		noise  = 0.01 // observation noise
	)
	rng := rand.New(rand.NewSource(2016))
	truth := make([]float64, params)
	for i := range truth {
		truth[i] = rng.NormFloat64()
	}
	x := abftchol.NewMatrix(rows, params)
	y := make([]float64, rows)
	for i := 0; i < rows; i++ {
		for j, w := range truth {
			v := rng.NormFloat64()
			x.Set(i, j, v)
			y[i] += v * w
		}
		y[i] += noise * rng.NormFloat64()
	}

	// Normal equations: A = XᵀX + λI, b = Xᵀy.
	a := abftchol.NewMatrix(params, params)
	b := make([]float64, params)
	for i := 0; i < params; i++ {
		for j := i; j < params; j++ {
			s := 0.0
			for r := 0; r < rows; r++ {
				s += x.At(r, i) * x.At(r, j)
			}
			a.Set(i, j, s)
			a.Set(j, i, s)
		}
		a.Add(i, i, lambda)
		for r := 0; r < rows; r++ {
			b[i] += x.At(r, i) * y[r]
		}
	}

	res, err := abftchol.Run(abftchol.Options{
		Profile:          abftchol.Laptop(),
		N:                params,
		Scheme:           abftchol.SchemeEnhanced,
		ConcurrentRecalc: true,
		Data:             a,
		Scenarios:        []abftchol.Scenario{abftchol.StorageError(2, 1e4)},
	})
	if err != nil {
		panic(err)
	}
	if err := abftchol.Solve(res.L, b); err != nil {
		panic(err)
	}
	fmt.Printf("injected: %d, corrected: %d, attempts: %d\n", len(res.Injections), res.Corrections, res.Attempts)
	fmt.Printf("factor correct: %v\n", abftchol.Residual(a, res.L) < 1e-10)
	fmt.Printf("weight error below the noise: %v\n", maxAbsDiff(b, truth) < noise)
	// Output:
	// injected: 1, corrected: 1, attempts: 1
	// factor correct: true
	// weight error below the noise: true
}

// A Kalman filter, another workload from the paper's introduction,
// whose measurement updates run under Enhanced while a storage error
// strikes every factorization. The filter estimates a smooth field
// from noisy direct observations: each step factors the innovation
// covariance S = P + R and applies the gain through triangular solves.
// Every error is repaired in place, so no step redoes its
// factorization, and the estimate converges below the measurement
// noise.
func Example_kalmanFilter() {
	const (
		dim     = 128  // state dimension, a multiple of the block size
		steps   = 6    // filter steps
		procVar = 0.01 // process noise variance
		measVar = 0.25 // measurement noise variance (std 0.5)
	)
	rng := rand.New(rand.NewSource(1960))
	truth := make([]float64, dim)
	for i := range truth {
		truth[i] = math.Sin(float64(i) / 12)
	}
	// Prior: zero mean, exponential-kernel covariance with a nugget.
	p := abftchol.NewMatrix(dim, dim)
	for i := 0; i < dim; i++ {
		for j := 0; j < dim; j++ {
			p.Set(i, j, math.Exp(-math.Abs(float64(i-j))/8))
		}
		p.Add(i, i, 0.05)
	}
	x := make([]float64, dim)
	var firstRMS, rms float64
	for step := 0; step < steps; step++ {
		// Drift the truth and measure z = truth + v.
		innov := make([]float64, dim)
		for i := range truth {
			truth[i] += procVar * rng.NormFloat64()
		}
		for i := range truth {
			innov[i] = truth[i] + math.Sqrt(measVar)*rng.NormFloat64() - x[i]
		}

		s := p.Clone()
		for i := 0; i < dim; i++ {
			s.Add(i, i, measVar)
		}
		res, err := abftchol.Run(abftchol.Options{
			Profile:          abftchol.Laptop(),
			N:                dim,
			Scheme:           abftchol.SchemeEnhanced,
			ConcurrentRecalc: true,
			Data:             s,
			Scenarios:        []abftchol.Scenario{abftchol.StorageError(1+step%3, 1e4)},
		})
		if err != nil {
			panic(err)
		}
		fmt.Printf("step %d: attempts %d, corrections %d\n", step, res.Attempts, res.Corrections)

		// x += P·S⁻¹(z − x), then P -= P·S⁻¹·P.
		if err := abftchol.Solve(res.L, innov); err != nil {
			panic(err)
		}
		sp := p.Clone()
		if err := abftchol.SolveMany(res.L, sp); err != nil {
			panic(err)
		}
		next := abftchol.NewMatrix(dim, dim)
		for i := 0; i < dim; i++ {
			for k := 0; k < dim; k++ {
				x[i] += p.At(i, k) * innov[k]
			}
			for j := 0; j < dim; j++ {
				dot := 0.0
				for k := 0; k < dim; k++ {
					dot += p.At(i, k) * sp.At(k, j)
				}
				next.Set(i, j, p.At(i, j)-dot)
			}
		}
		// Keep P symmetric, and add the process noise.
		for i := 0; i < dim; i++ {
			for j := 0; j < i; j++ {
				v := (next.At(i, j) + next.At(j, i)) / 2
				next.Set(i, j, v)
				next.Set(j, i, v)
			}
			next.Add(i, i, procVar)
		}
		p = next

		rms = 0
		for i := range x {
			rms += (x[i] - truth[i]) * (x[i] - truth[i])
		}
		rms = math.Sqrt(rms / dim)
		if step == 0 {
			firstRMS = rms
		}
	}
	fmt.Printf("rms error fell: %v\n", rms < firstRMS)
	fmt.Printf("rms error below half the measurement noise: %v\n", rms < math.Sqrt(measVar)/2)
	// Output:
	// step 0: attempts 1, corrections 1
	// step 1: attempts 1, corrections 1
	// step 2: attempts 1, corrections 1
	// step 3: attempts 1, corrections 1
	// step 4: attempts 1, corrections 1
	// step 5: attempts 1, corrections 1
	// rms error fell: true
	// rms error below half the measurement noise: true
}

// maxAbsDiff returns max |x[i] − y[i]|.
func maxAbsDiff(x, y []float64) float64 {
	m := 0.0
	for i := range x {
		m = math.Max(m, math.Abs(x[i]-y[i]))
	}
	return m
}
