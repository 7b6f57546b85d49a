package main

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"reflect"
	"testing"
	"time"

	"abftchol/internal/core"
	"abftchol/internal/mat"
	"abftchol/internal/obs"
	"abftchol/internal/reliability/campaign"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n, want int
		ok      bool
	}{
		{2000, 99, true}, // 20 samples beyond p99
		{1000, 99, true}, // exactly 10 beyond
		{999, 98, true},  // p99 would leave 9
		{100, 90, true},
		{11, 9, true},
		{10, 0, false},
		{0, 0, false},
	} {
		p, ok := tailPercentile(c.n)
		if p != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %d, %t; want %d, %t", c.n, p, ok, c.want, c.ok)
		}
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // descending, so tail must sort
	}
	if p, v, ok := tail(xs); !ok || p != 90 || v != 90 {
		t.Errorf("tail(100..1) = p%d %v %t; want p90 90 true", p, v, ok)
	}
}

func TestRescale(t *testing.T) {
	// Twice the nominal kernel time: the host ran at half speed.
	if got := rescale(30*time.Millisecond, 2*refNominalMs*time.Millisecond); got != 15*time.Millisecond {
		t.Errorf("rescale = %v, want 15ms", got)
	}
	if got := rescale(30*time.Millisecond, refNominalMs*time.Millisecond); got != 30*time.Millisecond {
		t.Errorf("rescale at nominal speed = %v, want 30ms", got)
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	parent := span{ID: 1, Start: 0, End: 100}
	children := []span{
		{Parent: 1, Start: 10, End: 40},
		{Parent: 1, Start: 30, End: 60},  // overlaps the first: 10..60 counts once
		{Parent: 1, Start: 55, End: 58},  // inside what is already covered
		{Parent: 1, Start: 90, End: 120}, // runs past the parent: 90..100 counts
	}
	if got := selfTime(parent, children); got != 40 {
		t.Errorf("selfTime = %d, want 40", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Errorf("selfTime without children = %d, want 100", got)
	}
}

func TestTracerSpans(t *testing.T) {
	tr := newTracer()
	op := tr.newOp()
	root := tr.start(op, "root")
	root.child("leaf").end()
	root.end()
	spans := tr.byOp()[op]
	if len(spans) != 2 {
		t.Fatalf("recorded %d spans, want 2", len(spans))
	}
	leaf, top := spans[0], spans[1]
	if leaf.Name != "leaf" || top.Name != "root" || leaf.Parent != top.ID || top.Parent != 0 {
		t.Errorf("spans %+v: want the leaf nested in the root", spans)
	}
	if leaf.Start < top.Start || leaf.End > top.End {
		t.Errorf("leaf %+v is not inside root %+v", leaf, top)
	}
	var off *tracer // untraced: every call is a no-op
	sp := off.start(off.newOp(), "root")
	sp.child("leaf").end()
	sp.end()
}

func TestCheckFactor(t *testing.T) {
	a := mat.RandSPD(128, 7)
	res, err := core.Run(factorOptions(a)[kindMagma])
	if err != nil {
		t.Fatal(err)
	}
	ref := res.L
	if err := checkFactor(kindEnhanced, core.Result{L: ref.Clone(), Attempts: 1}, nil, ref); err != nil {
		t.Fatalf("clean factor rejected: %v", err)
	}
	if err := checkFactor(kindRecover, core.Result{L: ref.Clone(), Attempts: 1, Corrections: 2}, nil, ref); err != nil {
		t.Fatalf("recovered factor rejected: %v", err)
	}
	oneULP := ref.Clone()
	oneULP.Set(100, 5, math.Nextafter(oneULP.At(100, 5), math.Inf(1)))
	wrong := ref.Clone()
	wrong.Add(100, 5, 1e-3*ref.NormMax())
	withNaN := ref.Clone()
	withNaN.Set(100, 5, math.NaN())
	for _, c := range []struct {
		name string
		kind int
		res  core.Result
		err  error
	}{
		{"clean factor one ulp off", kindOnline, core.Result{L: oneULP, Attempts: 1}, nil},
		{"clean run that corrected", kindEnhanced, core.Result{L: ref.Clone(), Attempts: 1, Corrections: 1}, nil},
		{"failed run", kindMagma, core.Result{}, errors.New("fail-stop")},
		{"recovered factor still wrong", kindRecover, core.Result{L: wrong, Attempts: 1, Corrections: 2}, nil},
		{"recovered factor with a NaN", kindRecover, core.Result{L: withNaN, Attempts: 1, Corrections: 2}, nil},
		{"recovery that restarted", kindRecover, core.Result{L: ref.Clone(), Attempts: 2, Corrections: 2}, nil},
		{"recovery missing a correction", kindRecover, core.Result{L: ref.Clone(), Attempts: 1, Corrections: 1}, nil},
	} {
		if checkFactor(c.kind, c.res, c.err, ref) == nil {
			t.Errorf("%s: check passed", c.name)
		}
	}
}

// TestReplayMatchesRun pins the factor replay to core.Run: the same
// factor bit for bit, and the same kernel launches and verifications.
func TestReplayMatchesRun(t *testing.T) {
	a := mat.RandSPD(256, 5)
	opts := factorOptions(a)
	for _, k := range []int{kindMagma, kindOnline, kindEnhanced} {
		o := opts[k]
		o.Metrics = obs.NewRegistry()
		res, err := core.Run(o)
		if err != nil {
			t.Fatal(err)
		}
		l, c, err := replay(a, factorBlock, kindScheme[k], spanRef{})
		if err != nil {
			t.Fatalf("%s replay: %v", kindNames[k], err)
		}
		if !sameBits(l, res.L) {
			t.Errorf("%s replay factor differs from core.Run's", kindNames[k])
		}
		if err := compareCounts(c, o.Metrics); err != nil {
			t.Errorf("%s: %v", kindNames[k], err)
		}
	}
}

func TestCampaignReplayMatchesRun(t *testing.T) {
	c := &campaignBench{scratch: t.TempDir()}
	cfg := campaign.Config{Classes: []string{"storage-offset", "compute-offset"}, N: 256, TrialsPerCell: 8, ShardTrials: 4, Seed: 3}
	if err := c.prepare(cfg); err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	data, op, err := c.replay(tr)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(c.report) {
		t.Error("replayed report differs from campaign.Run's")
	}
	names := sumByName(tr.byOp()[op])
	for _, n := range []string{"fault.plan", "experiments.execute", "core.trial", "reliability.classify", "campaign.journal", "campaign.report"} {
		if _, ok := names[n]; !ok {
			t.Errorf("traced replay recorded no %s span", n)
		}
	}
}

func TestDaemonStreams(t *testing.T) {
	points, streams := daemonStreams(3)
	again, _ := daemonStreams(3)
	if !reflect.DeepEqual(points, again) {
		t.Error("one seed drew two point sets")
	}
	owner := map[int]int{}
	for c, s := range streams {
		if len(s) != daemonRequests {
			t.Fatalf("client %d has %d requests, want %d", c, len(s), daemonRequests)
		}
		sent := map[int]bool{}
		for i, r := range s {
			if r.repeat != (i%4 == 3) {
				t.Fatalf("client %d request %d: repeat=%t", c, i, r.repeat)
			}
			if r.repeat {
				if !sent[r.point] {
					t.Fatalf("client %d request %d repeats a point it never sent", c, i)
				}
				continue
			}
			if o, ok := owner[r.point]; ok {
				t.Fatalf("point %d sent fresh by clients %d and %d", r.point, o, c)
			}
			owner[r.point], sent[r.point] = c, true
		}
	}
	if len(owner) != len(points) {
		t.Errorf("%d points sent fresh, %d drawn", len(owner), len(points))
	}
	for _, p := range points {
		if _, err := p.Options(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestDaemonPass(t *testing.T) {
	d := &daemonBench{scratch: t.TempDir()}
	if err := d.setup(1); err != nil {
		t.Fatal(err)
	}
	var short [daemonClients][]daemonReq
	for c, s := range d.streams {
		short[c] = s[:12]
	}
	tl := &tally{}
	p, err := d.pass(short, newTracer(), tl)
	if err != nil {
		t.Fatal(err)
	}
	if tl.failed != 0 || tl.attempted != daemonClients*12+1 {
		t.Errorf("attempted %d, failed %d: %v", tl.attempted, tl.failed, tl.problems)
	}
	if len(p.jobs) != daemonClients*12 {
		t.Errorf("%d jobs timed, want %d", len(p.jobs), daemonClients*12)
	}
}

// TestBenchmarkJSONDeclaresTheMetrics keeps BENCHMARK.json's workload
// and metric lists in step with what the benchmark prints.
func TestBenchmarkJSONDeclaresTheMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named []struct{ Name string }
	var b struct {
		Workloads named `json:"workloads"`
		EndToEnd  named `json:"end_to_end"`
		PerLayer  named `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	for _, w := range b.Workloads {
		if _, err := newWorkload(w.Name, ""); err != nil {
			t.Error(err)
		}
	}
	for _, c := range []struct {
		what string
		got  named
		want []string
	}{
		{"end_to_end", b.EndToEnd, endToEndNames},
		{"per_layer", b.PerLayer, perLayerNames},
	} {
		var got []string
		for _, n := range c.got {
			got = append(got, n.Name)
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("BENCHMARK.json %s = %v, the benchmark prints %v", c.what, got, c.want)
		}
	}
}
