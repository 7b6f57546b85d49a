package core

import (
	"bytes"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"abftchol/internal/fault"
	"abftchol/internal/hetsim"
	"abftchol/internal/mat"
	"abftchol/internal/obs"
)

// pooledRun is what one Run reports: its Result, its error text, and
// the snapshot of the metrics registry it fed (nil without Metrics).
type pooledRun struct {
	res     Result
	err     string
	metrics []byte
}

// runPooled runs o, giving it a registry of its own when o asks for
// metrics, so that runs of one Options can be compared.
func runPooled(t *testing.T, o Options) pooledRun {
	var r pooledRun
	if o.Metrics != nil {
		o.Metrics = obs.NewRegistry()
	}
	res, err := Run(o)
	r.res = res
	if err != nil {
		r.err = err.Error()
	}
	if o.Metrics != nil {
		snap, serr := o.Metrics.Snapshot()
		if serr != nil {
			t.Error(serr)
		}
		r.metrics = snap
	}
	return r
}

// pooledRunList is a mix of runs that leave different state behind in
// a pooled executor: three machines, every scheme in both variants,
// m = 2 and 4, K = 1-3, every placement, traced and with metrics,
// faults that are corrected, that restart and that fail, on both
// planes.
func pooledRunList() []Options {
	profiles := []hetsim.Profile{hetsim.Laptop(), hetsim.Tardis(), hetsim.Bulldozer64()}
	schemes := []Scheme{SchemeNone, SchemeCULA, SchemeOffline, SchemeOnline, SchemeEnhanced, SchemeOnlineScrub}
	spd := mat.RandSPD(128, 7)
	var list []Options
	i := 0
	for _, sch := range schemes {
		for _, v := range []Variant{LeftLooking, RightLooking} {
			for _, realPlane := range []bool{false, true} {
				o := Options{
					Profile:          profiles[i%3],
					N:                256,
					BlockSize:        32,
					Scheme:           sch,
					Variant:          v,
					K:                1 + i%3,
					ChecksumVectors:  2 + 2*(i/2%2),
					ConcurrentRecalc: i/3%2 == 0,
					Placement:        Placement(i % 4),
					Trace:            i%3 == 1,
				}
				if i%5 == 2 {
					o.Metrics = obs.NewRegistry() // runPooled gives each run its own
				}
				if realPlane {
					o.N, o.Data = 128, spd
				}
				if sch.FaultTolerant() {
					o.Scenarios = []fault.Scenario{fault.DefaultStorage(2), fault.DefaultComputation(1)}
				}
				list = append(list, o)
				i++
			}
		}
	}
	// Online cannot see a storage error, and with one attempt the
	// rejected result is final.
	list = append(list, Options{Profile: hetsim.Laptop(), N: 256, BlockSize: 32, Scheme: SchemeOnline,
		MaxAttempts: 1, Trace: true, Scenarios: []fault.Scenario{fault.DefaultStorage(3)}})
	return list
}

// TestPooledRunMatchesFresh: a Run on a pooled executor reports what a
// Run on a fresh one does, whatever ran on it before and however many
// runs share the pool at once, and no later run changes a Result
// already returned. The reference runs each start from an empty pool
// (two GCs drop its contents); the list then runs in order, in reverse
// and from three goroutines at once, and every Result (Trace and L by
// content), error and metrics snapshot must equal the reference, which
// is compared last, after every other run.
func TestPooledRunMatchesFresh(t *testing.T) {
	list := pooledRunList()
	ref := make([]pooledRun, len(list))
	for i, o := range list {
		runtime.GC()
		runtime.GC()
		ref[i] = runPooled(t, o)
	}
	if last := ref[len(ref)-1]; last.err == "" || last.res.Failure == FailureNone {
		t.Fatal("the list's failing run succeeded")
	}
	check := func(how string, i int, got pooledRun) {
		t.Helper()
		want := ref[i]
		if got.err != want.err || !bytes.Equal(got.metrics, want.metrics) || !reflect.DeepEqual(got.res, want.res) {
			t.Errorf("%s, run %d (%v %v m=%d K=%d, real %t): pooled run differs from fresh\ngot  %+v (%q)\nwant %+v (%q)",
				how, i, list[i].Scheme, list[i].Variant, list[i].ChecksumVectors, list[i].K, list[i].Data != nil,
				got.res, got.err, want.res, want.err)
		}
	}

	got := make([][]pooledRun, 5)
	for i, o := range list {
		got[0] = append(got[0], runPooled(t, o))
		check("in order", i, got[0][i])
	}
	got[1] = make([]pooledRun, len(list))
	for i, o := range slices.Backward(list) {
		got[1][i] = runPooled(t, o)
		check("in reverse", i, got[1][i])
	}
	var wg sync.WaitGroup
	for g := range 3 {
		got[2+g] = make([]pooledRun, len(list))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range list {
				i := (k + g*len(list)/3) % len(list)
				got[2+g][i] = runPooled(t, list[i])
			}
		}()
	}
	wg.Wait()
	for _, pass := range got {
		for i := range list {
			check("after every run", i, pass[i])
		}
	}
}
