// Command abftchol runs the reproduction's experiments and individual
// factorizations from the command line.
//
// Regenerate the paper's evaluation (Tables VII-VIII, Figures 8-17):
//
//	abftchol -exp all            # everything (a few minutes)
//	abftchol -exp table7         # one experiment
//	abftchol -exp fig14 -csv     # machine-readable output
//	abftchol -exp fig9 -quick    # shortened sweep
//	abftchol -list               # available experiment IDs
//
// Run a single factorization and report timing and fault handling:
//
//	abftchol -run -machine tardis -n 20480 -scheme enhanced -k 3
//	abftchol -run -machine laptop -n 512 -scheme online -real \
//	         -inject storage@4 -delta 1e5
//
// Sweeps run through a deduplicating scheduler; a worker pool and an
// on-disk result cache are opt-in and never change the output bytes:
//
//	abftchol -exp all -parallel 8          # bounded worker pool
//	abftchol -exp all -cache               # memoize under artifacts/cache/
//
// Run a fault-injection reliability campaign (coverage rates with
// Wilson confidence intervals; see docs/RELIABILITY.md):
//
//	abftchol -campaign                     # default grid, journaled under artifacts/campaign/
//	abftchol -campaign -schemes online,enhanced -trials 1000 -out report.json
//	abftchol -campaign -server :8787       # execute on a running abftd daemon
//
// Export observability artifacts (see docs/OBSERVABILITY.md):
//
//	abftchol -exp fig8 -quick -trace-out fig8.json -metrics-out fig8-metrics.json
//	abftchol -run -n 5120 -scheme enhanced -trace-out run.jsonl -pprof cpu.out
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"abftchol/internal/core"
	"abftchol/internal/experiments"
	"abftchol/internal/hetsim"
	"abftchol/internal/mat"
	"abftchol/internal/obs"
	"abftchol/internal/reliability"
	"abftchol/internal/server"
)

func main() {
	var (
		expID   = flag.String("exp", "", "experiment to regenerate (table7, table8, fig8..fig17, or 'all')")
		list    = flag.Bool("list", false, "list experiment IDs and exit")
		csv     = flag.Bool("csv", false, "emit CSV instead of aligned text")
		quick   = flag.Bool("quick", false, "shortened sweep (two sizes) for a fast look")
		plot    = flag.Bool("plot", false, "render figures as ASCII charts instead of tables")
		jsonOut = flag.Bool("json", false, "emit JSON instead of aligned text")
		chooseK = flag.Bool("choose-k", false, "tune the verification interval K for -machine/-n at -rate")
		rate    = flag.Float64("rate", 0.05, "assumed storage errors per iteration (-choose-k)")
		fit     = flag.Float64("fit", 0, "derive -rate from a FIT/Mbit soft-error rate instead (-choose-k)")
		doRun   = flag.Bool("run", false, "run one factorization instead of an experiment")
		machine = flag.String("machine", "tardis", "machine profile: tardis, bulldozer64, laptop")
		n       = flag.Int("n", 10240, "matrix size (multiple of the profile block size)")
		scheme  = flag.String("scheme", "enhanced", "magma, cula, offline, online, enhanced, scrub")
		k       = flag.Int("k", 1, "verification interval K (Optimization 3)")
		noOpt1  = flag.Bool("no-opt1", false, "disable concurrent checksum recalculation")
		place   = flag.String("placement", "auto", "checksum update placement: auto, cpu, gpu, inline")
		real    = flag.Bool("real", false, "run with real float64 data (small n only)")
		inject  = flag.String("inject", "", "comma-separated errors, e.g. storage@4,computation@7")
		delta   = flag.Float64("delta", 1e5, "injected error magnitude")
		seed    = flag.Int64("seed", 42, "seed for the generated SPD input (-real)")
		trace   = flag.Bool("trace", false, "render an ASCII timeline of the run (-run, small n)")
		variant = flag.String("variant", "left", "blocked formulation: left (paper) or right (ablation)")
		vectors = flag.Int("vectors", 2, "checksum vectors per block (2 = paper; 4 corrects 2 errors/column)")

		traceOut   = flag.String("trace-out", "", "write the run's timeline here (.json Chrome/Perfetto, .jsonl compact); with -exp, the last run's")
		metricsOut = flag.String("metrics-out", "", "write a JSON metrics snapshot accumulated over the run(s) here")
		pprofOut   = flag.String("pprof", "", "write a CPU profile of the tool itself here")

		campaignMode = flag.Bool("campaign", false, "run a fault-injection reliability campaign over a (machine x scheme x class) grid (docs/RELIABILITY.md)")
		campMachines = flag.String("machines", "", "comma-separated machine profiles for -campaign (default laptop)")
		campSchemes  = flag.String("schemes", "", "comma-separated schemes for -campaign (default magma,online,enhanced)")
		campClasses  = flag.String("classes", "", "comma-separated fault classes for -campaign (default the paper's storage/compute/burst set)")
		campTrials   = flag.Int("trials", 0, "fault-injection trials per grid cell for -campaign (default 200)")
		campShard    = flag.Int("shard-trials", 0, "trials per journaled shard for -campaign (default 50)")
		campDir      = flag.String("campaign-dir", "artifacts/campaign", "journal directory for -campaign checkpoint/resume; empty disables journaling (local runs only)")
		campOut      = flag.String("out", "", "write the -campaign report to this file instead of stdout")

		parallel = flag.Int("parallel", 0, "sweep worker pool size; 0 = GOMAXPROCS, 1 = serial (output is byte-identical either way)")
		useCache = flag.Bool("cache", false, "memoize model-plane results in an on-disk cache (see -cache-dir)")
		cacheDir = flag.String("cache-dir", "artifacts/cache", "result cache location used by -cache")
		srvAddr  = flag.String("server", "", "submit -run/-exp points to a running abftd daemon at this address instead of executing locally (docs/SERVICE.md)")
	)
	flag.Parse()

	if *srvAddr != "" {
		if err := checkRemoteFlags(*traceOut, *metricsOut, *useCache, *real, *trace); err != nil {
			fatal(err)
		}
	}

	stopProfile, err := startProfile(*pprofOut)
	if err != nil {
		fatal(err)
	}
	defer stopProfile()
	oc := obsCfg{traceOut: *traceOut, metricsOut: *metricsOut}
	var cache *experiments.Cache
	if *useCache {
		cache = experiments.NewCache(*cacheDir)
	}

	switch {
	case *chooseK:
		prof, err := hetsim.ProfileByName(*machine)
		if err != nil {
			fatal(err)
		}
		r := *rate
		if *fit > 0 {
			// Estimate the run's duration from a clean model run, then
			// convert the device FIT rate into errors per iteration.
			base, err := core.Run(core.Options{Profile: prof, N: *n, Scheme: core.SchemeEnhanced,
				ConcurrentRecalc: true, Placement: core.PlaceAuto})
			if err != nil {
				fatal(err)
			}
			w := reliability.Workload{N: *n, B: prof.BlockSize, Seconds: base.Time}
			r = reliability.ErrorsPerIteration(reliability.FITPerMbit(*fit), w)
			fmt.Println(reliability.Describe(reliability.FITPerMbit(*fit), w))
		}
		fmt.Print(experiments.ChooseK(prof, *n, r, 20, nil))
	case *list:
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		for _, id := range experiments.ExtensionIDs() {
			fmt.Println(id)
		}
		fmt.Println("verify")
	case *campaignMode:
		set := map[string]bool{}
		flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
		if err := runCampaign(campaignArgs{
			machines: *campMachines, schemes: *campSchemes, classes: *campClasses,
			dir: *campDir, out: *campOut,
			trials: *campTrials, shardTrials: *campShard,
			n: *n, k: *k, vectors: *vectors, rate: *rate, delta: *delta, seed: *seed,
			set: set, server: *srvAddr, workers: *parallel,
		}); err != nil {
			fatal(err)
		}
	case *expID != "":
		sched := newSched(*srvAddr, *parallel, cache)
		if err := runExperiments(*expID, *csv, *quick, *plot, *jsonOut, oc, sched); err != nil {
			fatal(err)
		}
		warnStoreErr(sched)
	case *doRun:
		sched := newSched(*srvAddr, 1, cache)
		if err := runOne(runCfg{
			machine: *machine, n: *n, scheme: *scheme, k: *k,
			opt1: !*noOpt1, place: *place, real: *real,
			inject: *inject, delta: *delta, seed: *seed,
			trace: *trace, variant: *variant, vectors: *vectors,
		}, oc, sched); err != nil {
			fatal(err)
		}
		warnStoreErr(sched)
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "abftchol:", err)
	os.Exit(1)
}

// newSched builds the execution engine: the local scheduler, or — with
// -server — a remote one whose points are resolved by a running abftd
// daemon through the reference client. Dedup, memoization, and replay
// are identical either way, so -exp output is byte-identical local vs
// remote (the daemon does its own caching and metrics accounting).
func newSched(addr string, workers int, cache *experiments.Cache) *experiments.Scheduler {
	if addr == "" {
		return experiments.NewScheduler(workers, cache)
	}
	return experiments.NewRemoteScheduler(workers, newClient(addr).RunPoint)
}

// newClient turns a -server address ("host:port" or a URL) into the
// daemon's reference client.
func newClient(addr string) *server.Client {
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	return &server.Client{Base: strings.TrimRight(addr, "/"), Name: "abftchol"}
}

// checkRemoteFlags rejects flag combinations that need local
// execution: observability capture and caching belong to the daemon in
// -server mode, and real-plane inputs never leave the machine.
func checkRemoteFlags(traceOut, metricsOut string, useCache, real, trace bool) error {
	switch {
	case traceOut != "" || metricsOut != "":
		return fmt.Errorf("-trace-out/-metrics-out capture local instrumentation; with -server, fetch the daemon's /metrics or /v1/jobs/{id}/trace instead")
	case useCache:
		return fmt.Errorf("-cache is a local store; with -server, run the daemon with abftd -cache")
	case real:
		return fmt.Errorf("-real inputs stay local; remote jobs run on the timing model only")
	case trace:
		return fmt.Errorf("-trace renders a locally captured timeline; submit the job with \"trace\": true over the API instead (docs/SERVICE.md)")
	}
	return nil
}

// warnStoreErr surfaces a broken cache directory without failing the
// sweep: the results printed are unaffected, only the memoization was
// lost.
func warnStoreErr(sched *experiments.Scheduler) {
	if err := sched.StoreErr(); err != nil {
		fmt.Fprintln(os.Stderr, "abftchol: cache:", err)
	}
}

func runExperiments(id string, csv, quick, plot, jsonOut bool, oc obsCfg, sched *experiments.Scheduler) error {
	var cfg experiments.Config
	if quick {
		cfg.Sizes = []int{5120, 10240}
		cfg.CapabilityN = 10240
	}
	cfg.Obs = oc.sink()
	if id == "verify" {
		rep := sched.RunShapeChecks(cfg)
		if jsonOut {
			s, err := rep.JSON()
			if err != nil {
				return err
			}
			fmt.Print(s)
		} else {
			fmt.Print(rep)
		}
		if err := oc.flush(cfg.Obs, id); err != nil {
			return err
		}
		if !rep.Passed() {
			os.Exit(1)
		}
		return nil
	}
	reg := experiments.Registry()
	ids := experiments.IDs()
	if id == "ext" {
		ids = experiments.ExtensionIDs()
	} else if id != "all" {
		if _, ok := reg[id]; !ok {
			return fmt.Errorf("unknown experiment %q (use -list; also: ext, verify)", id)
		}
		ids = []string{id}
	}
	for _, one := range ids {
		ent := reg[one]
		out := sched.Run(ent.Run, ent.Profile, cfg)
		switch v := out.(type) {
		case *experiments.Figure:
			switch {
			case jsonOut:
				s, err := v.JSON()
				if err != nil {
					return err
				}
				fmt.Print(s)
			case csv:
				fmt.Print(v.CSV())
			case plot:
				fmt.Println(v.Plot(72, 16))
			default:
				fmt.Println(v)
			}
		case *experiments.Table:
			switch {
			case jsonOut:
				s, err := v.JSON()
				if err != nil {
					return err
				}
				fmt.Print(s)
			case csv:
				fmt.Print(v.CSV())
			default:
				fmt.Println(v)
			}
		default:
			fmt.Println(out)
		}
	}
	return oc.flush(cfg.Obs, id)
}

// The flag spellings are the service API's spellings: the parsers
// live in internal/core (schemes) and internal/server (placements and
// injections), shared by daemon and CLI and aliased here so a
// JobRequest over HTTP and a flag set on the command line can never
// drift apart.
var (
	parseScheme     = core.ParseScheme
	parsePlacement  = server.ParsePlacement
	parseInjections = server.ParseInjections
)

// runCfg bundles the -run mode's flags.
type runCfg struct {
	machine, scheme, place, inject, variant string
	n, k, vectors                           int
	delta                                   float64
	seed                                    int64
	opt1, real, trace                       bool
}

func runOne(c runCfg, oc obsCfg, sched *experiments.Scheduler) error {
	prof, err := hetsim.ProfileByName(c.machine)
	if err != nil {
		return err
	}
	scheme, err := parseScheme(c.scheme)
	if err != nil {
		return err
	}
	placement, err := parsePlacement(c.place)
	if err != nil {
		return err
	}
	scenarios, err := parseInjections(c.inject, c.delta)
	if err != nil {
		return err
	}
	vrt, err := server.ParseVariant(c.variant)
	if err != nil {
		return err
	}
	o := core.Options{
		Profile:          prof,
		N:                c.n,
		Scheme:           scheme,
		Variant:          vrt,
		K:                c.k,
		ChecksumVectors:  c.vectors,
		ConcurrentRecalc: c.opt1,
		Placement:        placement,
		Scenarios:        scenarios,
		Trace:            c.trace || oc.traceOut != "",
	}
	var reg *obs.Registry
	if oc.metricsOut != "" {
		reg = obs.NewRegistry()
	}
	if c.trace && c.n/prof.BlockSize > 16 {
		return fmt.Errorf("-trace is readable only for small runs; use n <= %d on this machine", 16*prof.BlockSize)
	}
	var input *mat.Matrix
	if c.real {
		if c.n > 4096 {
			return fmt.Errorf("-real is meant for small n (<= 4096); %d would take very long in pure Go", c.n)
		}
		input = mat.RandSPD(c.n, c.seed)
		o.Data = input
	}
	// A single run still goes through the scheduler so -cache applies:
	// traced runs and real-plane inputs bypass the disk cache (entries
	// carry neither a timeline nor the factor), everything else is
	// memoized by its canonical fingerprint.
	sink := &experiments.Obs{CaptureTrace: o.Trace, Metrics: reg}
	pr := sched.Execute([]core.Options{o}, sink)[0]
	if pr.Err != nil {
		return pr.Err
	}
	res := pr.Result
	fmt.Printf("machine      %s (GPU %s, block %d)\n", prof.Name, prof.GPU.Name, res.B)
	fmt.Printf("scheme       %s (%s)  K=%d  m=%d  opt1=%v  placement=%v\n",
		res.Scheme, res.Variant, res.K, c.vectors, c.opt1, res.Placement)
	fmt.Printf("matrix       %d x %d\n", res.N, res.N)
	fmt.Printf("time         %.4f s (simulated)\n", res.Time)
	fmt.Printf("performance  %.1f GFLOPS\n", res.GFLOPS)
	fmt.Printf("attempts     %d   fail-stops %d\n", res.Attempts, res.FailStop)
	fmt.Printf("verified     %d blocks, %d corrections\n", res.VerifiedBlocks, res.Corrections)
	for _, in := range res.Injections {
		fmt.Printf("injected     %s\n", in)
	}
	if input != nil && res.L != nil {
		fmt.Printf("residual     %.3g\n", mat.CholeskyResidual(input, res.L))
	}
	if c.trace && res.Trace != nil {
		fmt.Println()
		fmt.Print(res.Trace.Gantt(100))
		fmt.Println()
		fmt.Print(res.Trace.Utilization(res.Time))
	}
	if err := oc.writeMetrics(reg); err != nil {
		return err
	}
	return oc.writeTrace(res.Trace, map[string]string{
		"tool": "abftchol",
		"run":  fmt.Sprintf("%s n=%d K=%d %s", res.Scheme, res.N, res.K, res.Placement),
	})
}
