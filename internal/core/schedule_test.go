package core

import (
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"

	"abftchol/internal/hetsim"
)

// These tests assert the *schedule structure* the paper's Figure 1/2
// describe, using the recorded timeline: POTF2 hides under GEMM,
// Optimization 1 actually realizes kernel concurrency, and checksum
// updates overlap compute when placed off the critical path.

func tracedRun(t *testing.T, o Options) Result {
	t.Helper()
	o.Trace = true
	res, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace == nil {
		t.Fatal("no trace recorded")
	}
	return res
}

func TestPOTF2HiddenUnderGEMM(t *testing.T) {
	// MAGMA's whole point (Fig. 1): the CPU's POTF2 runs while the GPU
	// does the big panel GEMM. Most POTF2 time must overlap GEMM time.
	res := tracedRun(t, Options{Profile: hetsim.Tardis(), N: 10240, Scheme: SchemeNone})
	tr := res.Trace
	potf2 := 0.0
	for _, sp := range tr.ByName("potf2") {
		potf2 += sp.Duration()
	}
	if potf2 <= 0 {
		t.Fatal("no POTF2 spans")
	}
	overlap := tr.OverlapTime("potf2", "gemm")
	if frac := overlap / potf2; frac < 0.7 {
		t.Fatalf("only %.0f%% of POTF2 hidden under GEMM", frac*100)
	}
}

func TestGEMMNeverOverlapsItself(t *testing.T) {
	// BLAS-3 kernels saturate the device: two GEMMs must serialize.
	res := tracedRun(t, Options{Profile: hetsim.Bulldozer64(), N: 10240, Scheme: SchemeNone})
	if c := res.Trace.MaxConcurrency(hetsim.ClassGEMM); c != 1 {
		t.Fatalf("GEMM concurrency %d, want 1", c)
	}
}

func TestOpt1RealizesConcurrency(t *testing.T) {
	serial := tracedRun(t, Options{Profile: hetsim.Bulldozer64(), N: 10240, Scheme: SchemeEnhanced})
	conc := tracedRun(t, Options{
		Profile: hetsim.Bulldozer64(), N: 10240, Scheme: SchemeEnhanced,
		ConcurrentRecalc: true,
	})
	if c := serial.Trace.MaxConcurrency(hetsim.ClassChkRecalc); c != 1 {
		t.Fatalf("serial recalc concurrency %d", c)
	}
	got := conc.Trace.MaxConcurrency(hetsim.ClassChkRecalc)
	pool := hetsim.Bulldozer64().GPU.ConcurrentKernels
	// The dispatch gap keeps the realized depth below the full pool
	// (kernels drain while later ones are still being launched), but
	// it must be deep concurrency, not a trickle.
	if got < 8 {
		t.Fatalf("opt1 realized concurrency %d, want >= 8", got)
	}
	if got > pool {
		t.Fatalf("concurrency %d exceeds the slot pool %d", got, pool)
	}
}

func TestGPUPlacedUpdatesOverlapCompute(t *testing.T) {
	// On Kepler, checksum updates on their own stream must timeshare
	// with the BLAS-3 kernels (that is Optimization 2's GPU case).
	res := tracedRun(t, Options{
		Profile: hetsim.Bulldozer64(), N: 10240, Scheme: SchemeEnhanced,
		ConcurrentRecalc: true, Placement: PlaceGPU,
	})
	tr := res.Trace
	upd := 0.0
	for _, sp := range tr.ByName("chkupd-gemm") {
		upd += sp.Duration()
	}
	if upd <= 0 {
		t.Fatal("no update spans")
	}
	overlap := tr.OverlapTime("chkupd-gemm", "gemm[")
	if frac := overlap / upd; frac < 0.5 {
		t.Fatalf("only %.0f%% of GPU-placed updates overlapped compute", frac*100)
	}
}

func TestCPUPlacedUpdatesRunOnCPU(t *testing.T) {
	res := tracedRun(t, Options{
		Profile: hetsim.Tardis(), N: 10240, Scheme: SchemeEnhanced,
		ConcurrentRecalc: true, Placement: PlaceCPU,
	})
	for _, sp := range res.Trace.ByName("chkupd-gemm") {
		if sp.Resource != "cpu" {
			t.Fatalf("CPU-placed update ran on %q", sp.Resource)
		}
	}
	// And the POTF2 checksum update always runs host-side.
	for _, sp := range res.Trace.ByName("chkupd-potf2") {
		if sp.Resource != "cpu" {
			t.Fatalf("Algorithm 2 ran on %q", sp.Resource)
		}
	}
}

func TestTransfersAppearPerIteration(t *testing.T) {
	n, b := 10240, hetsim.Tardis().BlockSize
	res := tracedRun(t, Options{Profile: hetsim.Tardis(), N: n, Scheme: SchemeNone})
	xfers := res.Trace.ByName("xfer")
	// Plain MAGMA moves each diagonal block down and back: 2 per
	// iteration.
	want := 2 * (n / b)
	if len(xfers) != want {
		t.Fatalf("%d transfers, want %d", len(xfers), want)
	}
}

func TestVerificationPrecedesKernelsItGuards(t *testing.T) {
	// Enhanced discipline: at every iteration the pre-SYRK
	// verification batch must complete before that iteration's SYRK
	// starts.
	res := tracedRun(t, Options{Profile: hetsim.Laptop(), N: 512, Scheme: SchemeEnhanced})
	tr := res.Trace
	for j := 1; j < 16; j++ {
		var syrks []hetsim.Span
		for _, sp := range tr.ByName("syrk[" + itoa(j) + "]") {
			if sp.Class == hetsim.ClassSYRK { // skip the chkupd-syrk twin
				syrks = append(syrks, sp)
			}
		}
		if len(syrks) != 1 {
			t.Fatalf("iteration %d: %d syrk spans", j, len(syrks))
		}
		// Find the latest recalc that finished before this SYRK; all
		// recalcs issued between the previous TRSM and this SYRK must
		// end before the SYRK begins. We approximate by checking no
		// recalc span overlaps the SYRK span itself (verification and
		// the kernel it guards are strictly ordered).
		for _, rc := range tr.ByClass(hetsim.ClassChkRecalc) {
			if rc.Overlaps(syrks[0]) {
				t.Fatalf("iteration %d: a checksum recalculation overlaps the SYRK it guards", j)
			}
		}
	}
}

func TestTransfersOrderProducersAndConsumers(t *testing.T) {
	// Every copy over the link must start no earlier than the kernel
	// that produced its bytes ends, and the kernel that consumes them
	// must start no earlier than the copy ends: the diagonal block's
	// round trip through POTF2, and with CPU-placed checksums the
	// encoded checksums, the panel and the recalculated rows. The
	// edges live in exec.ship's callers; this checks them on the
	// traced timeline. Offline is in the set because its loop has no
	// verification transfers, which would otherwise order the panel
	// shipments and the TRSM behind the transfer stream anyway; at
	// n = 1024 the pre-GEMM batches carry enough rows that the copy
	// outlasts the host's batch sync.
	for _, v := range []Variant{LeftLooking, RightLooking} {
		for _, pl := range []Placement{PlaceGPU, PlaceCPU, PlaceInline} {
			for _, sch := range []Scheme{SchemeNone, SchemeOffline, SchemeOnline, SchemeEnhanced} {
				for _, cr := range []bool{false, true} {
					o := Options{Profile: hetsim.Laptop(), N: 1024, Scheme: sch, Variant: v,
						Placement: pl, ConcurrentRecalc: cr}
					name := fmt.Sprintf("%v/%v/%v/concurrent=%v", v, pl, sch, cr)
					res := tracedRun(t, o)
					kinds := checkTransferEdges(t, name, res.Trace.Spans, res.Placement == PlaceCPU)
					nb := o.N / o.Profile.BlockSize
					want := map[string]int{"diagonal d2h": nb, "diagonal h2d": nb}
					if res.Placement == PlaceCPU {
						want["encode"] = 1
						if v == LeftLooking {
							want["panel"] = nb - 1
						} else {
							want["trailing panel"] = nb - 1
						}
						want["recalc rows"] = kinds["recalc rows"]
						if kinds["recalc rows"] == 0 {
							t.Errorf("%s: no recalculated rows crossed the link", name)
						}
					}
					if !maps.Equal(kinds, want) {
						t.Errorf("%s: transfers by kind %v, want %v", name, kinds, want)
					}
				}
			}
		}
	}
}

// checkTransferEdges classifies each link span of a fault-free trace
// by where it was issued, checks it against its producers and first
// consumers, and returns how many it saw of each kind. Spans are in
// issue order.
func checkTransferEdges(t *testing.T, name string, spans []hetsim.Span, cpuChecksums bool) map[string]int {
	t.Helper()
	isLink := func(sp hetsim.Span) bool { return sp.Resource == "h2d" || sp.Resource == "d2h" }
	// last lists the latest span before i that matches, next the
	// first after i: one span, or none.
	last := func(i int, match func(hetsim.Span) bool) []hetsim.Span {
		for k := i - 1; k >= 0; k-- {
			if match(spans[k]) {
				return spans[k : k+1]
			}
		}
		return nil
	}
	next := func(i int, match func(hetsim.Span) bool) []hetsim.Span {
		for k := i + 1; k < len(spans); k++ {
			if match(spans[k]) {
				return spans[k : k+1]
			}
		}
		return nil
	}
	named := func(prefix string) func(hetsim.Span) bool {
		return func(sp hetsim.Span) bool { return strings.HasPrefix(sp.Name, prefix) }
	}
	ofClass := func(cs ...hetsim.Class) func(hetsim.Span) bool {
		return func(sp hetsim.Span) bool { return !isLink(sp) && slices.Contains(cs, sp.Class) }
	}
	onGPU := func(sp hetsim.Span) bool { return sp.Resource == "gpu" }
	chkupd := func(sp hetsim.Span) bool {
		return strings.HasPrefix(sp.Name, "chkupd-") && !strings.HasPrefix(sp.Name, "chkupd-potf2")
	}
	blas3 := ofClass(hetsim.ClassGEMM, hetsim.ClassSYRK, hetsim.ClassTRSM)

	kinds := map[string]int{}
	for i, x := range spans {
		if !isLink(x) {
			continue
		}
		var prev, after hetsim.Span
		if i > 0 {
			prev = spans[i-1]
		}
		if i+1 < len(spans) {
			after = spans[i+1]
		}
		var kind string
		var producers, consumers []hetsim.Span
		switch {
		case x.Resource == "h2d":
			kind = "diagonal h2d"
			if !named("potf2[")(prev) && !named("chkupd-potf2[")(prev) {
				t.Fatalf("%s: h2d copy %d issued after %q, want POTF2 or its checksum update", name, i, prev.Name)
			}
			producers = append(producers, prev)
			consumers = append(consumers, next(i, onGPU)...)
			consumers = append(consumers, next(i, named("chkupd-trsm["))...)
		case cpuChecksums && prev.Name == "chk-encode":
			// The host-resident checksums feed the first update and,
			// through the update stream, the first verification.
			kind = "encode"
			producers = append(producers, prev)
			consumers = append(consumers, next(i, chkupd)...)
			consumers = append(consumers, next(i, named("chk-recalc"))...)
		case named("chkupd-syrk[")(after):
			kind = "panel"
			producers = append(producers, last(i, ofClass(hetsim.ClassTRSM))...)
			consumers = append(consumers, after)
		case named("chkupd-trailing[")(after):
			kind = "trailing panel"
			producers = append(producers, last(i, ofClass(hetsim.ClassTRSM))...)
			consumers = append(consumers, after)
		case cpuChecksums && prev.Name == "chk-recalc":
			kind = "recalc rows"
			for k := i - 1; k >= 0 && spans[k].Name == "chk-recalc"; k-- {
				producers = append(producers, spans[k])
			}
			consumers = append(consumers, next(i, blas3)...)
		default:
			kind = "diagonal d2h"
			producers = append(producers, last(i, ofClass(hetsim.ClassSYRK))...)
			consumers = next(i, ofClass(hetsim.ClassPOTF2))
			if len(consumers) == 0 {
				t.Fatalf("%s: diagonal copy %d has no POTF2 after it", name, i)
			}
		}
		kinds[kind]++
		for _, p := range producers {
			if x.Start < p.End {
				t.Errorf("%s: %s copy [%g, %g] starts before its producer %s ends at %g",
					name, kind, x.Start, x.End, p.Name, p.End)
			}
		}
		for _, c := range consumers {
			if c.Start < x.End {
				t.Errorf("%s: %s starts at %g, before the %s copy it consumes ends at %g",
					name, c.Name, c.Start, kind, x.End)
			}
		}
	}
	return kinds
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
