package experiments

import (
	"fmt"

	"abftchol/internal/core"
	"abftchol/internal/fault"
	"abftchol/internal/hetsim"
	"abftchol/internal/reliability"
)

// Extension experiments beyond the paper's evaluation: the multi-error
// checksum generalization §IV sketches, and a quantitative view of the
// protection-vs-overhead trade-off behind Optimization 3.

// MultiVectorFigure (ext-multivec) measures the overhead of the
// Enhanced scheme as the per-block checksum vector count m grows from
// the paper's 2 (one error per block column) to 4 and 6 (two and three
// errors per column). The encode/update/recalculation volume scales
// with m, so this prices the §IV generalization.
func MultiVectorFigure(prof hetsim.Profile, cfg Config) *Figure {
	f := &Figure{
		ID:     "ext-multivec",
		Title:  fmt.Sprintf("multi-vector checksum overhead on %s (enhanced, all optimizations)", prof.Name),
		YLabel: "relative overhead, percent",
		Series: []Series{{Label: "m=2 (paper)"}, {Label: "m=4"}, {Label: "m=6"}},
	}
	ms := []int{2, 4, 6}
	for _, n := range cfg.sizes(prof) {
		base := baseline(cfg, prof, n)
		for si, m := range ms {
			o := enhanced(prof, n, 1)
			o.ChecksumVectors = m
			f.Series[si].Points = append(f.Series[si].Points, Point{n, overheadPct(cfg.run(o), base)})
		}
	}
	return f
}

// CoverageStudy (ext-coverage) quantifies Optimization 3's trade-off
// under a randomized storage-error campaign (Poisson arrivals over the
// factored region): as K grows, overhead falls but corrupted blocks
// are read more often before their next verification repairs them —
// the exposure §V-C warns about on high-error-rate systems.
func CoverageStudy(prof hetsim.Profile, cfg Config) *Figure {
	n := cfg.CapabilityN
	if n == 0 {
		n = 10240 // large enough for ~40 iterations, small enough to retry often
	}
	nb := n / prof.BlockSize
	const (
		trials = 30
		rate   = 0.25 // expected storage errors per outer iteration (~10 per run)
	)
	f := &Figure{
		ID: "ext-coverage",
		Title: fmt.Sprintf("verification interval vs exposure on %s (n=%d, %.3f storage errors/iter, %d trials)",
			prof.Name, n, rate, trials),
		YLabel: "percent / count (see series)",
		Series: []Series{
			{Label: "mean overhead % (incl restarts)"},
			{Label: "corrupted reads per error"},
			{Label: "restart rate %"},
		},
	}
	base := baseline(cfg, prof, n)
	for _, k := range []int{1, 2, 3, 5, 8} {
		var time, exposure, errors float64
		restarts := 0
		for trial := 0; trial < trials; trial++ {
			scen := fault.Campaign(fault.CampaignConfig{
				Blocks:           nb,
				BlockSize:        prof.BlockSize,
				RatePerIteration: rate,
				Seed:             int64(1000*k + trial),
			})
			o := enhanced(prof, n, k)
			o.Scenarios = scen
			// Under a heavy campaign even the restart can be struck by
			// the remaining errors; allow plenty of retries and treat
			// an exhausted run like the restarts it performed.
			o.MaxAttempts = 10
			r, err := cfg.runErr(o)
			if err != nil {
				restarts++
			} else if r.Attempts > 1 {
				restarts++
			}
			time += r.Time
			exposure += float64(r.PropagationEvents)
			errors += float64(len(r.Injections))
		}
		time /= trials
		perErr := 0.0
		if errors > 0 {
			perErr = exposure / errors
		}
		f.Series[0].Points = append(f.Series[0].Points, Point{k, (time/base.Time - 1) * 100})
		f.Series[1].Points = append(f.Series[1].Points, Point{k, perErr})
		f.Series[2].Points = append(f.Series[2].Points, Point{k, 100 * float64(restarts) / trials})
	}
	return f
}

// VariantFigure (ext-variant) compares the paper's inner-product
// (left-looking) formulation against the outer-product (right-looking)
// one FT-ScaLAPACK protects: plain performance and the enhanced
// scheme's overhead, across the sweep. The verification volume is
// comparable, but the right-looking form exposes POTF2 and its
// transfers on the critical path and leaves retired L blocks outside
// the pre-read discipline (see core's variant tests) — the ablation
// behind the paper's choice of Algorithm 1.
func VariantFigure(prof hetsim.Profile, cfg Config) *Figure {
	f := &Figure{
		ID:     "ext-variant",
		Title:  fmt.Sprintf("left- vs right-looking formulation on %s", prof.Name),
		YLabel: "GFLOPS (plain) / percent (overhead)",
		Series: []Series{
			{Label: "magma left GFLOPS"},
			{Label: "magma right GFLOPS"},
			{Label: "enhanced left ovh %"},
			{Label: "enhanced right ovh %"},
		},
	}
	for _, n := range cfg.sizes(prof) {
		baseL := baseline(cfg, prof, n)
		baseR := cfg.run(core.Options{Profile: prof, N: n, Scheme: core.SchemeNone, Variant: core.RightLooking})
		enhL := cfg.run(enhanced(prof, n, 1))
		or := enhanced(prof, n, 1)
		or.Variant = core.RightLooking
		enhR := cfg.run(or)
		f.Series[0].Points = append(f.Series[0].Points, Point{n, baseL.GFLOPS})
		f.Series[1].Points = append(f.Series[1].Points, Point{n, baseR.GFLOPS})
		f.Series[2].Points = append(f.Series[2].Points, Point{n, overheadPct(enhL, baseL)})
		f.Series[3].Points = append(f.Series[3].Points, Point{n, overheadPct(enhR, baseR)})
	}
	return f
}

// ScrubFigure (ext-scrub) pits the enhanced scheme against the
// brute-force alternative for storage errors: Online-ABFT plus a
// periodic scrub of every live block (reference [28]'s direction).
// Both close the storage-error window at their strongest setting, but
// the scrub re-verifies Θ(N²) blocks per gate where the enhanced
// scheme verifies only what the next operations read — the overhead
// gap is the value of the paper's pre-read discipline.
func ScrubFigure(prof hetsim.Profile, cfg Config) *Figure {
	f := &Figure{
		ID:     "ext-scrub",
		Title:  fmt.Sprintf("enhanced pre-read vs online+scrub on %s", prof.Name),
		YLabel: "relative overhead, percent",
		Series: []Series{
			{Label: "enhanced K=1"},
			{Label: "online+scrub K=1"},
			{Label: "online+scrub K=5"},
		},
	}
	for _, n := range cfg.sizes(prof) {
		base := baseline(cfg, prof, n)
		enh := enhanced(prof, n, 1)
		s1 := core.Options{Profile: prof, N: n, Scheme: core.SchemeOnlineScrub,
			K: 1, ConcurrentRecalc: true, Placement: core.PlaceAuto}
		s5 := s1
		s5.K = 5
		f.Series[0].Points = append(f.Series[0].Points, Point{n, overheadPct(cfg.run(enh), base)})
		f.Series[1].Points = append(f.Series[1].Points, Point{n, overheadPct(cfg.run(s1), base)})
		f.Series[2].Points = append(f.Series[2].Points, Point{n, overheadPct(cfg.run(s5), base)})
	}
	return f
}

// ReliabilityTable (ext-reliability) is a pocket edition of the
// internal/reliability/campaign engine: a (scheme × fault class) grid
// of seeded Poisson fault trials, each classified into the four-way
// outcome taxonomy and reported with Wilson 95% bounds on the
// struck-conditioned detection rate. The full sharded, journaled
// campaign lives behind `abftchol -campaign`; this experiment gives
// `-exp` users the same coverage shape at a glance.
//
// Trials run in-line rather than as scheduler points: a trial's
// verdict travels in its run error and Result.Failure (MaxAttempts=1
// surfaces the rejection instead of retrying past it), and neither
// round-trips the sweep's disk cache — a warm-cache replay would
// reclassify every detected fault as clean. The campaign engine makes
// the same call: it runs cache-less and persists to its journal.
func ReliabilityTable(prof hetsim.Profile, cfg Config) *Table {
	// Campaign cost grows with the cube of the block count, so size the
	// matrix from the profile's block size rather than taking
	// CapabilityN at face value: on the laptop profile (nb=32) the
	// sweep default of 10240 would mean a 320-block grid, ~4000x the
	// work of the same n on tardis (nb=512). CapabilityN only ever
	// shrinks the grid below the 24-block cap.
	nb := prof.BlockSize
	n := 24 * nb
	if cfg.CapabilityN > 0 && cfg.CapabilityN < n {
		n = cfg.CapabilityN
	}
	const (
		trials = 60
		rate   = 0.2
	)
	t := &Table{
		ID: "ext-reliability",
		Title: fmt.Sprintf("fault-injection coverage on %s (n=%d, %.2f faults/iter, %d trials/cell)",
			prof.Name, n, rate, trials),
		Header: []string{"scheme", "fault class", "struck", "corrected", "uncorrect.", "silent", "detected [95% CI]"},
	}
	schemes := []core.Scheme{core.SchemeNone, core.SchemeOnline, core.SchemeEnhanced}
	classes := []string{"storage-offset", "compute-offset", "storage-offset-burst"}
	cellIdx := 0
	for _, scheme := range schemes {
		for _, className := range classes {
			class, err := fault.ParseClass(className)
			if err != nil {
				panic(err)
			}
			var corrected, uncorrectable, silent, struck int
			for trial := 0; trial < trials; trial++ {
				o := core.Options{
					Profile:          prof,
					N:                n,
					BlockSize:        nb,
					K:                2,
					Scheme:           scheme,
					MaxAttempts:      1,
					ConcurrentRecalc: true,
					Scenarios: fault.Campaign(fault.CampaignConfig{
						Blocks:           n / nb,
						BlockSize:        nb,
						RatePerIteration: rate,
						Seed:             fault.SubSeed(fault.SubSeed(2016, cellIdx), trial),
						Class:            class,
					}),
				}
				r, runErr := core.Run(o)
				out, cerr := reliability.Classify(r, runErr)
				if cerr != nil {
					panic(fmt.Sprintf("experiments: ext-reliability: %v", cerr))
				}
				switch out {
				case reliability.OutcomeDetectedCorrected:
					corrected++
				case reliability.OutcomeDetectedUncorrectable:
					uncorrectable++
				case reliability.OutcomeSilentCorruption:
					silent++
				}
				if out.Struck() {
					struck++
				}
			}
			detected := reliability.Wilson(corrected+uncorrectable, struck, reliability.Z95)
			t.Rows = append(t.Rows, []string{
				core.SchemeKey(scheme), className,
				fmt.Sprintf("%d/%d", struck, trials),
				fmt.Sprintf("%d", corrected),
				fmt.Sprintf("%d", uncorrectable),
				fmt.Sprintf("%d", silent),
				fmt.Sprintf("%.3f [%.3f, %.3f]", detected.Rate, detected.Lo, detected.Hi),
			})
			cellIdx++
		}
	}
	return t
}

// ExtensionIDs lists the non-paper experiments.
func ExtensionIDs() []string {
	return []string{"ext-multivec", "ext-coverage", "ext-variant", "ext-scrub", "ext-reliability"}
}
