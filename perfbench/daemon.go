package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"abftchol/internal/core"
	"abftchol/internal/experiments"
	"abftchol/internal/server"
)

// The daemon workload sends model-plane Enhanced factorization jobs on
// the tardis profile (n from 5120 to 15104, K from 1 to 38) to an
// in-process job daemon behind a loopback listener. Two closed-loop
// clients each run submit→wait→result. Every fourth request of a
// client repeats one of its own earlier points, which the daemon's
// scheduler serves from its memo without executing. A pass sends both
// clients' streams to a fresh daemon with a fresh disk cache, so every
// pass executes the same 1500 points.
const (
	daemonClients  = 2
	daemonWorkers  = 2
	daemonRequests = 1000 // per client and pass
	daemonWarmup   = 100  // per client, in the untimed warm-up pass
	daemonMachine  = "tardis"
	daemonBlock    = 256 // the tardis profile's block size
	daemonMinNB    = 20  // n = 5120
	daemonMaxNB    = 59  // n = 15104
	daemonMaxK     = 38
)

// daemonReq is one request of a client's stream.
type daemonReq struct {
	point  int  // index into daemonBench.points
	repeat bool // the same client sent this point before
}

type daemonBench struct {
	scratch string
	points  []server.JobRequest
	want    []core.Result   // a direct core.Run of each point
	direct  []time.Duration // how long that run took
	streams [daemonClients][]daemonReq
}

// daemonStreams draws the distinct points and each client's request
// stream from seed. The clients' points are disjoint and a repeat names
// a point its own client sent earlier, so whether a request executes
// never depends on how the two clients interleave.
func daemonStreams(seed int64) ([]server.JobRequest, [daemonClients][]daemonReq) {
	rng := rand.New(rand.NewSource(seed))
	var all []server.JobRequest
	for nb := daemonMinNB; nb <= daemonMaxNB; nb++ {
		for k := 1; k <= daemonMaxK; k++ {
			all = append(all, server.JobRequest{Machine: daemonMachine, N: nb * daemonBlock, Scheme: "enhanced", K: k})
		}
	}
	rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	fresh := daemonRequests - daemonRequests/4
	var streams [daemonClients][]daemonReq
	for c := range streams {
		var sent []int
		for i := 0; i < daemonRequests; i++ {
			if i%4 == 3 {
				streams[c] = append(streams[c], daemonReq{point: sent[rng.Intn(len(sent))], repeat: true})
				continue
			}
			p := c + daemonClients*len(sent)
			sent = append(sent, p)
			streams[c] = append(streams[c], daemonReq{point: p})
		}
	}
	return all[:daemonClients*fresh], streams
}

// setup draws the streams and runs every distinct point directly, on as
// many goroutines as the daemon has workers, for the reference results.
func (d *daemonBench) setup(seed int64) error {
	d.points, d.streams = daemonStreams(seed)
	d.want = make([]core.Result, len(d.points))
	d.direct = make([]time.Duration, len(d.points))
	errs := make([]error, daemonWorkers)
	var wg sync.WaitGroup
	for w := range daemonWorkers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(d.points); i += daemonWorkers {
				o, err := d.points[i].Options()
				if err != nil {
					errs[w] = err
					return
				}
				start := time.Now()
				res, err := core.Run(o)
				d.direct[i] = time.Since(start)
				if err != nil {
					errs[w] = fmt.Errorf("direct run of point %d: %w", i, err)
					return
				}
				d.want[i] = res
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// jobTimes is what a client saw of one job.
type jobTimes struct {
	op        int64         // trace operation of the job; 0 untraced
	latency   time.Duration // submit to result, at the client
	queueWait time.Duration // the daemon's StartedAt - SubmittedAt
	run       time.Duration // the daemon's FinishedAt - StartedAt
	direct    time.Duration // a direct core.Run of the same point
	executed  bool
}

// passResult is one pass of both clients against a fresh daemon.
type passResult struct {
	jobs     []jobTimes
	counters map[string]int64 // the daemon's /metrics counters after the pass
}

// pass serves the streams, all clients at once, from a fresh daemon
// with a fresh disk cache, checking every result and the daemon's
// execution counters.
func (d *daemonBench) pass(streams [daemonClients][]daemonReq, tr *tracer, t *tally) (*passResult, error) {
	dir, err := os.MkdirTemp(d.scratch, "daemon-cache-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	srv, err := server.New(server.Config{
		Workers: daemonWorkers,
		Cache:   experiments.NewCache(dir),
		Clock:   server.Clock{Now: time.Now, After: time.After},
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Shutdown(context.Background())
		return nil, err
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	transport := &http.Transport{MaxIdleConnsPerHost: daemonClients}
	defer transport.CloseIdleConnections()
	httpc := &http.Client{Transport: transport}
	base := "http://" + ln.Addr().String()

	var jobs [daemonClients][]jobTimes
	var wg sync.WaitGroup
	for c := range streams {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := &server.Client{Base: base, HTTP: httpc, Name: fmt.Sprintf("client-%d", c)}
			jobs[c] = d.runStream(cl, streams[c], tr, t)
		}()
	}
	wg.Wait()
	res := &passResult{}
	for _, js := range jobs {
		res.jobs = append(res.jobs, js...)
	}
	snap, err := (&server.Client{Base: base, HTTP: httpc}).Metrics()
	if err == nil {
		res.counters, err = parseCounters(snap)
	}
	if serr := srv.Shutdown(context.Background()); err == nil {
		err = serr
	}
	if serr := <-served; err == nil {
		err = serr
	}
	if err != nil {
		return nil, err
	}
	t.op(checkCounters(res.counters, streams))
	return res, nil
}

// runStream sends one client's requests in a closed loop.
func (d *daemonBench) runStream(cl *server.Client, stream []daemonReq, tr *tracer, t *tally) []jobTimes {
	out := make([]jobTimes, 0, len(stream))
	for _, r := range stream {
		op := tr.newOp()
		job := tr.start(op, "daemon.job")
		start := time.Now()
		sp := job.child("server.submit")
		info, err := cl.Submit(d.points[r.point])
		sp.end()
		if err == nil {
			sp = job.child("server.wait")
			info, err = cl.Wait(info.ID)
			sp.end()
		}
		var res server.JobResult
		if err == nil && info.State == server.StateDone {
			sp = job.child("server.result")
			res, err = cl.Result(info.ID)
			sp.end()
		}
		jt := jobTimes{op: op, latency: time.Since(start), direct: d.direct[r.point], executed: res.Executed}
		job.end()
		if err == nil {
			err = d.checkJob(r, info, res)
		}
		t.op(err)
		if info.StartedAt != nil && info.FinishedAt != nil {
			jt.queueWait = info.StartedAt.Sub(info.SubmittedAt)
			jt.run = info.FinishedAt.Sub(*info.StartedAt)
		}
		out = append(out, jt)
	}
	return out
}

// checkJob checks a job against a direct core.Run of its point: the
// same simulated time and verified-block count, executed exactly when
// the request is not a repeat.
func (d *daemonBench) checkJob(r daemonReq, info server.JobInfo, res server.JobResult) error {
	if info.State != server.StateDone {
		return fmt.Errorf("job %s ended %s: %s", info.ID, info.State, info.Error)
	}
	got, want := res.Result.Result(), d.want[r.point]
	if math.Float64bits(got.Time) != math.Float64bits(want.Time) || got.VerifiedBlocks != want.VerifiedBlocks {
		return fmt.Errorf("job %s: time %g and %d verified blocks, a direct run gives %g and %d",
			info.ID, got.Time, got.VerifiedBlocks, want.Time, want.VerifiedBlocks)
	}
	if res.Executed == r.repeat || info.Executed == nil || *info.Executed != res.Executed {
		return fmt.Errorf("job %s: executed=%t for a request with repeat=%t", info.ID, res.Executed, r.repeat)
	}
	return nil
}

func parseCounters(snap []byte) (map[string]int64, error) {
	var s struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.Unmarshal(snap, &s); err != nil {
		return nil, fmt.Errorf("decode /metrics: %w", err)
	}
	return s.Counters, nil
}

// checkCounters checks that the daemon executed every distinct point
// once and served every repeat from its scheduler's memo.
func checkCounters(c map[string]int64, streams [daemonClients][]daemonReq) error {
	var fresh, repeats int64
	for _, s := range streams {
		for _, r := range s {
			if r.repeat {
				repeats++
			} else {
				fresh++
			}
		}
	}
	executed, dedup, hits := c["sweep.points.executed"], c["sweep.dedup.hits"], c["sweep.cache.hits"]
	if executed != fresh || dedup != repeats || hits != 0 {
		return fmt.Errorf("daemon counted %d executions, %d dedup hits and %d cache hits; want %d, %d and 0",
			executed, dedup, hits, fresh, repeats)
	}
	return nil
}

// warmStreams is the head of every client's stream, for the untimed
// warm-up pass.
func (d *daemonBench) warmStreams() [daemonClients][]daemonReq {
	var w [daemonClients][]daemonReq
	for c, s := range d.streams {
		w[c] = s[:daemonWarmup]
	}
	return w
}

func (d *daemonBench) measure(dur time.Duration, t *tally) (sample, error) {
	if _, err := d.pass(d.warmStreams(), nil, t); err != nil {
		return sample{}, err
	}
	var s sample
	m := startMeter()
	for begin := time.Now(); time.Since(begin) < dur; {
		cpu := cpuTime()
		p, err := d.pass(d.streams, nil, t)
		if err != nil {
			return s, err
		}
		for _, j := range p.jobs {
			s.opMs = append(s.opMs, ms(j.latency))
		}
		s.window(len(p.jobs), cpuTime()-cpu)
	}
	s.alloc = m.allocated()
	return s, nil
}

// layers alternates traced and untraced passes; per-job phases come
// from the traced passes' spans.
func (d *daemonBench) layers(dur time.Duration, tr *tracer, t *tally) (map[string]metric, error) {
	if _, err := d.pass(d.warmStreams(), nil, t); err != nil {
		return nil, err
	}
	var traced []jobTimes
	var counters map[string]int64
	var tracedMs, plainMs []float64
	for i, begin := 0, time.Now(); i < 2 || time.Since(begin) < dur; i++ {
		rtr := tr
		if i%2 == 1 {
			rtr = nil
		}
		p, err := d.pass(d.streams, rtr, t)
		if err != nil {
			return nil, err
		}
		for _, j := range p.jobs {
			if rtr == nil {
				plainMs = append(plainMs, ms(j.latency))
			} else {
				tracedMs = append(tracedMs, ms(j.latency))
			}
		}
		if rtr != nil {
			traced = append(traced, p.jobs...)
			counters = p.counters
		}
	}

	spans := tr.byOp()
	phases := map[string][]float64{}
	var queueMs, runMs, overheadMs []float64
	for _, j := range traced {
		for name, dd := range sumByName(spans[j.op]) {
			phases[name] = append(phases[name], ms(dd))
		}
		queueMs = append(queueMs, ms(j.queueWait))
		runMs = append(runMs, ms(j.run))
		if j.executed {
			overheadMs = append(overheadMs, ms(j.latency-j.direct))
		}
	}
	p, tailMs, _ := tail(tracedMs)
	fmt.Printf("# daemon: traced job latency p%d %.4g ms over %d jobs\n", p, tailMs, len(tracedMs))
	sent := 0
	for _, s := range d.streams {
		sent += len(s)
	}
	hits := counters["sweep.dedup.hits"] + counters["sweep.cache.hits"]
	return map[string]metric{
		"server.submit_ms":          {median(phases["server.submit"]), "ms"},
		"server.wait_ms":            {median(phases["server.wait"]), "ms"},
		"server.result_ms":          {median(phases["server.result"]), "ms"},
		"server.queue_wait_ms":      {median(queueMs), "ms"},
		"server.run_ms":             {median(runMs), "ms"},
		"server.overhead_ms":        {median(overheadMs), "ms"},
		"server.tail_ms":            {tailMs, "ms"},
		"experiments.executed":      {float64(counters["sweep.points.executed"]), "count"},
		"experiments.dedup_hits":    {float64(counters["sweep.dedup.hits"]), "count"},
		"experiments.cache_stores":  {float64(counters["sweep.cache.stores"]), "count"},
		"experiments.hit_ratio":     {float64(hits) / float64(sent), "ratio"},
		"trace.daemon_overhead_pct": {100 * (median(tracedMs)/median(plainMs) - 1), "%"},
	}, nil
}

func (*daemonBench) rescaled() bool { return false }
