package experiments

import (
	"fmt"
	"strings"

	"abftchol/internal/fault"
	"abftchol/internal/hetsim"
)

// ChooseK operationalizes §V-C's guidance — "by properly adjusting the
// number K, we can achieve minimum overhead and still get enough error
// correction capability" — as an empirical tuner: for each candidate
// interval it runs seeded Poisson storage-error campaigns on the model
// plane and picks the K with the lowest *expected* time, restarts
// included. High error rates push the answer to K=1; error-free
// machines push it as high as the candidate list goes.

// KChoice is the tuner's verdict for one machine/size/error-rate.
type KChoice struct {
	Profile string
	N       int
	// RatePerIteration is the assumed storage-error rate.
	RatePerIteration float64
	// BestK minimizes ExpectedTime among Candidates.
	BestK int
	// Candidates holds the evaluated intervals with their mean times
	// (seconds, restarts included) and restart rates (0..1).
	Candidates []KCandidate
}

// KCandidate is one evaluated verification interval.
type KCandidate struct {
	K            int
	ExpectedTime float64
	RestartRate  float64
}

// String renders the verdict.
func (c *KChoice) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "verification-interval tuning on %s, n=%d, %.3f storage errors/iteration:\n",
		c.Profile, c.N, c.RatePerIteration)
	for _, cand := range c.Candidates {
		marker := " "
		if cand.K == c.BestK {
			marker = "*"
		}
		fmt.Fprintf(&b, " %s K=%-2d  expected %8.4fs  restarts %5.1f%%\n",
			marker, cand.K, cand.ExpectedTime, cand.RestartRate*100)
	}
	fmt.Fprintf(&b, "choose K=%d\n", c.BestK)
	return b.String()
}

// ChooseK evaluates the candidate intervals under the given error rate
// (trials seeded campaigns each) and returns the cheapest. A zero rate
// runs one clean pass per candidate.
func ChooseK(prof hetsim.Profile, n int, rate float64, trials int, candidates []int) *KChoice {
	if len(candidates) == 0 {
		candidates = []int{1, 2, 3, 5, 8}
	}
	if trials < 1 {
		trials = 1
	}
	choice := &KChoice{Profile: prof.Name, N: n, RatePerIteration: rate}
	for _, k := range candidates {
		runs := trials
		if rate <= 0 {
			runs = 1
		}
		st := storageTrials(Config{}, prof, n, k, runs, rate, func(trial int) int64 { return int64(7919*k + trial) })
		choice.Candidates = append(choice.Candidates, KCandidate{
			K:            k,
			ExpectedTime: st.meanTime,
			RestartRate:  float64(st.restarts) / float64(runs),
		})
	}
	best := choice.Candidates[0]
	for _, cand := range choice.Candidates[1:] {
		if cand.ExpectedTime < best.ExpectedTime {
			best = cand
		}
	}
	choice.BestK = best.K
	return choice
}

// trialStats is what storageTrials gathers over one interval's trials.
type trialStats struct {
	meanTime     float64 // mean Result.Time, restarts included
	restarts     int     // runs that failed or took more than one attempt
	propagations float64 // Result.PropagationEvents, summed
	injections   float64 // len(Result.Injections), summed
}

// storageTrials runs trials Enhanced factorizations of order n at
// verification interval k through cfg, each struck by its own Poisson
// storage-error campaign over the factored region, seeded with
// seed(trial) (no campaign when rate <= 0). Under a heavy campaign even
// a restart can be struck by the remaining errors, so each run gets
// ten attempts, and one that exhausts them counts as a restart.
func storageTrials(cfg Config, prof hetsim.Profile, n, k, trials int, rate float64, seed func(trial int) int64) trialStats {
	var s trialStats
	var total float64
	for trial := 0; trial < trials; trial++ {
		o := enhanced(prof, n, k)
		o.MaxAttempts = 10
		if rate > 0 {
			o.Scenarios = fault.Campaign(fault.CampaignConfig{
				Blocks:           n / prof.BlockSize,
				BlockSize:        prof.BlockSize,
				RatePerIteration: rate,
				Seed:             seed(trial),
			})
		}
		r, err := cfg.runErr(o)
		if err != nil || r.Attempts > 1 {
			s.restarts++
		}
		total += r.Time
		s.propagations += float64(r.PropagationEvents)
		s.injections += float64(len(r.Injections))
	}
	s.meanTime = total / float64(trials)
	return s
}
