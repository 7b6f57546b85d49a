package hetsim

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"
)

func testSpec(slots int) DeviceSpec {
	return DeviceSpec{
		Name:              "test",
		PeakGFLOPS:        100,
		MemBWGBs:          100,
		ConcurrentKernels: slots,
		LaunchOverhead:    1e-6,
		DispatchGap:       0,
	}
}

func TestKernelDurationComputeBound(t *testing.T) {
	d := NewDevice(testSpec(1))
	d.Spec.EffMax[ClassGEMM] = 0.5
	// 1e9 flops at 100 GFLOPS * 0.5 = 50 GFLOPS -> 0.02 s
	got := d.Duration(Kernel{Class: ClassGEMM, Flops: 1e9})
	if math.Abs(got-0.02) > 1e-12 {
		t.Fatalf("duration = %g, want 0.02", got)
	}
}

func TestKernelDurationBandwidthBound(t *testing.T) {
	d := NewDevice(testSpec(1))
	d.Spec.EffMax[ClassChkRecalc] = 1
	// 1e9 bytes at 100 GB/s = 0.01 s, flops time is tiny.
	got := d.Duration(Kernel{Class: ClassChkRecalc, Flops: 1e3, Bytes: 1e9})
	if math.Abs(got-0.01) > 1e-9 {
		t.Fatalf("duration = %g, want 0.01", got)
	}
}

func TestEfficiencySaturationCurve(t *testing.T) {
	d := NewDevice(testSpec(1))
	d.Spec.EffMax[ClassGEMM] = 0.8
	d.Spec.EffHalfFlops[ClassGEMM] = 1e9
	// At flops == half size, eff = 0.4 -> dur = 1e9/(100e9*0.4) = 0.025
	got := d.Duration(Kernel{Class: ClassGEMM, Flops: 1e9})
	if math.Abs(got-0.025) > 1e-12 {
		t.Fatalf("duration = %g, want 0.025", got)
	}
	// Monotone: a bigger kernel must never have higher cost per flop.
	small := d.Duration(Kernel{Class: ClassGEMM, Flops: 1e8}) / 1e8
	big := d.Duration(Kernel{Class: ClassGEMM, Flops: 1e11}) / 1e11
	if big > small {
		t.Fatal("cost per flop increased with size")
	}
}

func TestStreamSerializesItsKernels(t *testing.T) {
	d := NewDevice(testSpec(8))
	s := d.Stream()
	k := Kernel{Class: ClassChkRecalc, Flops: 1e9} // 1e9/(100e9*0.7)? EffMax default 0.7
	end1 := d.Launch(s, k)
	end2 := d.Launch(s, k)
	if end2 <= end1 {
		t.Fatal("second kernel on same stream did not serialize")
	}
	if math.Abs((end2-end1)-end1) > 1e-9 {
		t.Fatalf("kernels not equal length: %g vs %g", end1, end2-end1)
	}
}

func TestConcurrentKernelsOverlapAcrossStreams(t *testing.T) {
	d := NewDevice(testSpec(4))
	var ends []float64
	for i := 0; i < 4; i++ {
		s := d.Stream()
		ends = append(ends, d.Launch(s, Kernel{Class: ClassChkRecalc, Flops: 1e9, Slots: 1}))
	}
	// All four fit in the slot pool: identical completion times.
	for _, e := range ends {
		if math.Abs(e-ends[0]) > 1e-12 {
			t.Fatalf("slot-pool kernels did not overlap: %v", ends)
		}
	}
	// A fifth kernel must queue behind one of them.
	s5 := d.Stream()
	e5 := d.Launch(s5, Kernel{Class: ClassChkRecalc, Flops: 1e9, Slots: 1})
	if e5 <= ends[0] {
		t.Fatal("fifth kernel did not wait for a free slot")
	}
}

func TestFullOccupancyKernelSerializesWithEverything(t *testing.T) {
	d := NewDevice(testSpec(4))
	s1, s2 := d.Stream(), d.Stream()
	e1 := d.Launch(s1, Kernel{Class: ClassChkRecalc, Flops: 1e9, Slots: 1})
	// A GEMM takes all slots by default: it must start after e1.
	e2 := d.Launch(s2, Kernel{Class: ClassGEMM, Flops: 1e9})
	if e2 <= e1 {
		t.Fatal("full-occupancy kernel overlapped a running kernel")
	}
	// And a later small kernel must wait for the GEMM.
	s3 := d.Stream()
	e3 := d.Launch(s3, Kernel{Class: ClassChkRecalc, Flops: 1, Slots: 1})
	if e3 <= e2 {
		t.Fatal("small kernel overlapped a full-occupancy kernel")
	}
}

func TestDispatchGapSerializesLaunches(t *testing.T) {
	spec := testSpec(8)
	spec.DispatchGap = 1e-3
	spec.LaunchOverhead = 0
	d := NewDevice(spec)
	// Tiny kernels on distinct streams: start times must be spaced by
	// the dispatch gap even though slots are free.
	var prev float64
	for i := 0; i < 4; i++ {
		s := d.Stream()
		end := d.Launch(s, Kernel{Class: ClassChkRecalc, Flops: 1, Slots: 1})
		if i > 0 && end-prev < 1e-3-1e-12 {
			t.Fatalf("launch %d not gap-separated: %g after %g", i, end, prev)
		}
		prev = end
	}
}

func TestEventOrdering(t *testing.T) {
	d := NewDevice(testSpec(4))
	s1, s2 := d.Stream(), d.Stream()
	d.Launch(s1, Kernel{Class: ClassChkRecalc, Flops: 1e9, Slots: 1})
	ev := s1.Record()
	s2.Wait(ev)
	e2 := d.Launch(s2, Kernel{Class: ClassChkRecalc, Flops: 1, Slots: 1})
	if e2 <= ev.t {
		t.Fatal("dependent kernel ran before event")
	}
	// Waiting on an already-passed event is a no-op.
	before := s2.Done()
	s2.Wait(Event{t: before - 1})
	if s2.Done() != before {
		t.Fatal("stale event moved the stream backwards or forwards")
	}
}

func TestBodyRunsExactlyOnceInIssueOrder(t *testing.T) {
	d := NewDevice(testSpec(2))
	s := d.Stream()
	var order []int
	d.Launch(s, Kernel{Class: ClassGEMM, Flops: 1, Body: func() { order = append(order, 1) }})
	d.Launch(s, Kernel{Class: ClassGEMM, Flops: 1, Body: func() { order = append(order, 2) }})
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("bodies ran as %v", order)
	}
}

func TestLaunchOnWrongDevicePanics(t *testing.T) {
	d1 := NewDevice(testSpec(1))
	d2 := NewDevice(testSpec(1))
	s := d1.Stream()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	d2.Launch(s, Kernel{Class: ClassGEMM, Flops: 1})
}

func TestLinkDirectionsOverlapButSameDirectionSerializes(t *testing.T) {
	l := &Link{Spec: LinkSpec{BandwidthGBs: 1, Latency: 0}}
	d := NewDevice(testSpec(1))
	sa, sb, sc := d.Stream(), d.Stream(), d.Stream()
	e1 := l.Transfer(sa, Event{}, HostToDevice, 1e9) // 1 s
	e2 := l.Transfer(sb, Event{}, DeviceToHost, 1e9) // opposite direction: overlaps
	if math.Abs(e1.t-1) > 1e-12 || math.Abs(e2.t-1) > 1e-12 {
		t.Fatalf("transfers = %g, %g; want 1, 1", e1.t, e2.t)
	}
	e3 := l.Transfer(sc, Event{}, HostToDevice, 1e9) // same direction as e1: queues
	if math.Abs(e3.t-2) > 1e-12 {
		t.Fatalf("same-direction transfer = %g, want 2", e3.t)
	}
	n, bytes, busy := l.TransferStats()
	if n != 3 || bytes != 3e9 || math.Abs(busy-3) > 1e-12 {
		t.Fatalf("stats = %d %g %g", n, bytes, busy)
	}
}

func TestLinkLatency(t *testing.T) {
	l := &Link{Spec: LinkSpec{BandwidthGBs: 1, Latency: 0.5}}
	d := NewDevice(testSpec(1))
	s := d.Stream()
	if e := l.Transfer(s, Event{}, HostToDevice, 0); math.Abs(e.t-0.5) > 1e-12 {
		t.Fatalf("latency-only transfer = %g", e.t)
	}
}

func TestTransferStartsAfterEventStreamAndEngine(t *testing.T) {
	// A copy starts at the latest of its producer's event, its
	// stream's previous work and its engine's previous copy, and the
	// event it returns is its end. Each case makes a different one of
	// the three the latest.
	d := NewDevice(testSpec(1))
	for _, tc := range []struct {
		name                  string
		after, stream, engine float64
	}{
		{"producer latest", 3, 1, 2},
		{"stream latest", 1, 3, 2},
		{"engine latest", 1, 2, 3},
		{"all idle", 0, 0, 0},
	} {
		l := &Link{Spec: LinkSpec{BandwidthGBs: 1, Latency: 0.25}, d2h: tc.engine}
		s := d.Stream()
		s.WaitTime(tc.stream)
		l.trace = &Trace{}
		done := l.Transfer(s, Event{t: tc.after}, DeviceToHost, 1e9)
		start := math.Max(tc.after, math.Max(tc.stream, tc.engine))
		sp := l.trace.Spans[0]
		if sp.Start != start || math.Abs(sp.End-(start+1.25)) > 1e-12 {
			t.Errorf("%s: span [%g, %g], want [%g, %g]", tc.name, sp.Start, sp.End, start, start+1.25)
		}
		if done.t != sp.End || s.Done() != sp.End || l.d2h != sp.End {
			t.Errorf("%s: returned %g, stream at %g, engine at %g; want all at the copy's end %g",
				tc.name, done.t, s.Done(), l.d2h, sp.End)
		}
		if l.h2d != 0 {
			t.Errorf("%s: a device-to-host copy moved the host-to-device engine to %g", tc.name, l.h2d)
		}
	}
}

func TestPlatformSyncCoversStreamsAndLink(t *testing.T) {
	p := NewPlatform(Laptop())
	gs := p.GPUStream()
	cs := p.CPUStream()
	p.GPU.Launch(gs, Kernel{Class: ClassGEMM, Flops: 1e9})
	p.CPU.Launch(cs, Kernel{Class: ClassPOTF2, Flops: 1e8})
	tSync := p.Sync()
	if tSync < gs.Done() || tSync < cs.Done() {
		t.Fatal("Sync below a stream completion time")
	}
	// A dangling transfer also holds up Sync.
	s2 := p.GPUStream()
	end := p.Link.Transfer(s2, Event{}, DeviceToHost, 1e9)
	if p.Sync() < end.t {
		t.Fatal("Sync ignored link traffic")
	}
}

func TestAlignAll(t *testing.T) {
	p := NewPlatform(Laptop())
	a, b := p.GPUStream(), p.GPUStream()
	p.GPU.Launch(a, Kernel{Class: ClassGEMM, Flops: 1e9})
	p.AlignAll(a.Done() + 5)
	if b.Done() != a.Done()+5-0 && b.Done() < a.Done() {
		t.Fatal("AlignAll did not advance idle stream")
	}
	if b.Done() < 5 {
		t.Fatalf("b at %g, want >= 5", b.Done())
	}
}

func TestStatsAccounting(t *testing.T) {
	d := NewDevice(testSpec(2))
	s := d.Stream()
	d.Launch(s, Kernel{Class: ClassGEMM, Flops: 1e9})
	d.Launch(s, Kernel{Class: ClassChkRecalc, Flops: 1e6, Slots: 1})
	st := d.Stats()
	if st.CountOf(ClassGEMM) != 1 || st.CountOf(ClassChkRecalc) != 1 {
		t.Fatalf("counts wrong: %+v", st)
	}
	if st.TotalKernels() != 2 {
		t.Fatal("total kernels wrong")
	}
	if st.BusyOf(ClassGEMM) <= 0 {
		t.Fatal("busy time missing")
	}
}

// replay is what a platform reports after one fixed run: a traced and
// observed mix of contended kernels on several streams of both
// devices, cross-stream events, transfers both ways, and a restart.
type replay struct {
	Sync                float64
	GPU, CPU            Stats
	GPUWaits, CPUWaits  int
	GPUWait, CPUWait    float64
	Transfers           int
	XferBytes, XferBusy float64
	Trace               *Trace
	Observed            []Span
}

// recorder is an observer that keeps every span it sees.
type recorder struct{ spans []Span }

func (r *recorder) KernelLaunched(sp Span)            { r.spans = append(r.spans, sp) }
func (r *recorder) TransferDone(sp Span, _ Direction) { r.spans = append(r.spans, sp) }

func runReplay(p *Platform, streams int) replay {
	tr := p.StartTrace()
	rec := &recorder{}
	p.Observe(rec)
	sc, sx, scpu := p.GPUStream(), p.GPUStream(), p.CPUStream()
	var fan []*Stream
	for range streams {
		fan = append(fan, p.GPUStream())
	}
	for j := range 4 {
		p.GPU.Launch(sc, Kernel{Name: "gemm", Index: []int{j}, Class: ClassGEMM, Flops: 1e10})
		done := p.Link.Transfer(sx, sc.Record(), DeviceToHost, 1e6)
		scpu.Wait(done)
		p.CPU.Launch(scpu, Kernel{Name: "potf2", Index: []int{j}, Class: ClassPOTF2, Flops: 1e8})
		p.Link.Transfer(sx, scpu.Record(), HostToDevice, 1e6)
		for i, s := range fan {
			s.Wait(sc.Record())
			p.GPU.Launch(s, Kernel{Name: "chk-recalc", Index: []int{j, i}, Class: ClassChkRecalc, Flops: 1e7, Slots: 1})
		}
		for _, s := range fan {
			sc.Wait(s.Record())
		}
	}
	t := p.Sync()
	tr.Mark("restart", t)
	p.AlignAll(t)
	p.GPU.Launch(sc, Kernel{Name: "syrk", Class: ClassSYRK, Flops: 1e9})
	r := replay{Sync: p.Sync(), GPU: p.GPU.Stats(), CPU: p.CPU.Stats(), Trace: tr, Observed: rec.spans}
	r.GPUWaits, r.GPUWait = p.GPU.Contention()
	r.CPUWaits, r.CPUWait = p.CPU.Contention()
	r.Transfers, r.XferBytes, r.XferBusy = p.Link.TransferStats()
	return r
}

// TestResetPlatformReplaysLikeNew: a platform that ran something else
// under another profile and was then Reset replays a run exactly as a
// new platform does: the same Sync, stats, contention, transfer
// accounting, trace (stream ids included) and observed spans. Its
// streams are recycled: the replay makes no more of them than the
// longest run before it did.
func TestResetPlatformReplaysLikeNew(t *testing.T) {
	want := runReplay(NewPlatform(Tardis()), 4)
	if want.GPUWaits == 0 || want.Transfers == 0 || len(want.Observed) == 0 {
		t.Fatalf("the replay exercises too little: %+v", want)
	}
	p := NewPlatform(Laptop())
	runReplay(p, 7)
	p.Reset(Tardis())
	made := len(p.streams)
	if got := runReplay(p, 4); !reflect.DeepEqual(got, want) {
		t.Fatalf("reset platform replayed\n%+v\nwant\n%+v", got, want)
	}
	if len(p.streams) != made {
		t.Errorf("replay after Reset made %d new streams, want 0", len(p.streams)-made)
	}
	// Sync and AlignAll see only the streams handed out since the
	// reset: a stream of the earlier run left far ahead neither holds
	// the clock nor is moved.
	p.Reset(Tardis())
	p.GPUStream()
	ahead := p.CPUStream()
	ahead.WaitTime(100)
	p.Reset(Tardis())
	p.GPUStream()
	if got := p.Sync(); got != 0 {
		t.Errorf("Sync after Reset = %g, want 0", got)
	}
	p.AlignAll(200)
	if ahead.Done() != 100 {
		t.Errorf("AlignAll moved a stream of the earlier run to %g", ahead.Done())
	}
}

func TestStockProfiles(t *testing.T) {
	for _, name := range []string{"tardis", "bulldozer64", "laptop"} {
		p, err := ProfileByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if p.BlockSize <= 0 || p.GPU.PeakGFLOPS <= 0 || p.CPU.PeakGFLOPS <= 0 {
			t.Fatalf("profile %s incomplete: %+v", name, p)
		}
		if p.GPU.ConcurrentKernels < 1 {
			t.Fatal("no concurrent kernel slots")
		}
	}
	if _, err := ProfileByName("nope"); err == nil {
		t.Fatal("unknown profile accepted")
	}
	// The paper's hardware facts.
	tar, bul := Tardis(), Bulldozer64()
	if tar.BlockSize != 256 || bul.BlockSize != 512 {
		t.Fatal("MAGMA block sizes wrong (Fermi 256, Kepler 512)")
	}
	if bul.GPU.ConcurrentKernels <= tar.GPU.ConcurrentKernels {
		t.Fatal("Kepler must allow more concurrency than Fermi")
	}
	if bul.GPU.PeakGFLOPS <= tar.GPU.PeakGFLOPS {
		t.Fatal("K40c must out-peak M2075")
	}
}

func TestProfileSizes(t *testing.T) {
	tar := Tardis()
	sizes := tar.Sizes()
	if sizes[0] != 5120 {
		t.Fatalf("sweep starts at %d", sizes[0])
	}
	if sizes[len(sizes)-1] != 23040 {
		t.Fatalf("tardis sweep ends at %d, want 23040", sizes[len(sizes)-1])
	}
	bul := Bulldozer64()
	bs := bul.Sizes()
	if bs[len(bs)-1] != 30720 {
		t.Fatalf("bulldozer sweep ends at %d, want 30720", bs[len(bs)-1])
	}
	for i := 1; i < len(sizes); i++ {
		if sizes[i]-sizes[i-1] != 2560 {
			t.Fatal("sweep step must be 2560")
		}
	}
}

func TestTimeNeverDecreasesProperty(t *testing.T) {
	// Property: on any device, launching any sequence of kernels on
	// one stream yields non-decreasing completion times.
	f := func(flops []uint32) bool {
		d := NewDevice(testSpec(3))
		s := d.Stream()
		prev := 0.0
		for i, fl := range flops {
			cls := Class(i % int(numClasses))
			end := d.Launch(s, Kernel{Class: cls, Flops: float64(fl % 1e6)})
			if end < prev {
				return false
			}
			prev = end
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestClassString(t *testing.T) {
	if ClassGEMM.String() != "GEMM" || ClassChkRecalc.String() != "ChkRecalc" {
		t.Fatal("class names wrong")
	}
	if Class(99).String() == "" {
		t.Fatal("out-of-range class must still render")
	}
}

func TestMoreStreamsThanSlotsStillCorrect(t *testing.T) {
	// Throughput check: 8 equal one-slot kernels on a 2-slot device
	// finish in 4 kernel-times, not 1 and not 8.
	spec := testSpec(2)
	spec.LaunchOverhead = 0
	d := NewDevice(spec)
	dur := d.Duration(Kernel{Class: ClassChkRecalc, Flops: 1e9})
	var last float64
	for i := 0; i < 8; i++ {
		s := d.Stream()
		last = d.Launch(s, Kernel{Class: ClassChkRecalc, Flops: 1e9, Slots: 1})
	}
	want := 4 * dur
	if math.Abs(last-want) > 1e-9 {
		t.Fatalf("makespan = %g, want %g", last, want)
	}
}
