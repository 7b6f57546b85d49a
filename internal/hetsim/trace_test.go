package hetsim

import (
	"math"
	"strings"
	"testing"
)

func TestTraceRecordsKernelsAndTransfers(t *testing.T) {
	p := NewPlatform(Laptop())
	tr := p.StartTrace()
	gs := p.GPUStream()
	cs := p.CPUStream()
	p.GPU.Launch(gs, Kernel{Name: "gemm[0]", Class: ClassGEMM, Flops: 1e8})
	p.CPU.Launch(cs, Kernel{Name: "potf2[0]", Class: ClassPOTF2, Flops: 1e6})
	p.Link.Transfer(gs, Event{}, DeviceToHost, 1e6)
	if len(tr.Spans) != 3 {
		t.Fatalf("spans = %d", len(tr.Spans))
	}
	if got := tr.ByName("gemm"); len(got) != 1 || got[0].Resource != "gpu" {
		t.Fatalf("gemm span %v", got)
	}
	if got := tr.ByName("potf2"); len(got) != 1 || got[0].Resource != "cpu" {
		t.Fatalf("potf2 span %v", got)
	}
	if got := tr.ByName("xfer"); len(got) != 1 || got[0].Resource != "d2h" {
		t.Fatalf("xfer span %v", got)
	}
}

func TestTraceDisabledByDefault(t *testing.T) {
	p := NewPlatform(Laptop())
	gs := p.GPUStream()
	p.GPU.Launch(gs, Kernel{Name: "k", Class: ClassGEMM, Flops: 1e6})
	// No panic and nothing recorded anywhere: Launch tolerates nil.
}

func TestSpanOverlapAndDuration(t *testing.T) {
	a := Span{Start: 0, End: 2}
	b := Span{Start: 1, End: 3}
	c := Span{Start: 2, End: 4}
	if !a.Overlaps(b) || !b.Overlaps(a) {
		t.Fatal("overlapping spans not detected")
	}
	if a.Overlaps(c) {
		t.Fatal("touching spans must not count as overlap")
	}
	if a.Duration() != 2 {
		t.Fatal("duration wrong")
	}
}

func TestBusyTimeUnionsOverlaps(t *testing.T) {
	tr := &Trace{Spans: []Span{
		{Resource: "gpu", Start: 0, End: 2},
		{Resource: "gpu", Start: 1, End: 3},
		{Resource: "gpu", Start: 10, End: 11},
		{Resource: "cpu", Start: 0, End: 100},
	}}
	if got := tr.BusyTime("gpu"); math.Abs(got-4) > 1e-12 {
		t.Fatalf("gpu busy = %g, want 4", got)
	}
	if got := tr.BusyTime("cpu"); got != 100 {
		t.Fatalf("cpu busy = %g", got)
	}
	if got := tr.BusyTime("d2h"); got != 0 {
		t.Fatalf("empty resource busy = %g", got)
	}
}

func TestOverlapTime(t *testing.T) {
	tr := &Trace{Spans: []Span{
		{Name: "potf2[0]", Start: 0, End: 4},
		{Name: "gemm[0]", Start: 1, End: 3},
		{Name: "gemm[1]", Start: 2, End: 6},
	}}
	// potf2 overlaps gemm[0] on [1,3] and gemm[1] on [2,4]: union [1,4].
	if got := tr.OverlapTime("potf2", "gemm"); math.Abs(got-3) > 1e-12 {
		t.Fatalf("overlap = %g, want 3", got)
	}
	if got := tr.OverlapTime("potf2", "nothing"); got != 0 {
		t.Fatalf("phantom overlap %g", got)
	}
}

func TestMaxConcurrency(t *testing.T) {
	tr := &Trace{Spans: []Span{
		{Class: ClassChkRecalc, Resource: "gpu", Start: 0, End: 2},
		{Class: ClassChkRecalc, Resource: "gpu", Start: 1, End: 3},
		{Class: ClassChkRecalc, Resource: "gpu", Start: 1.5, End: 1.7},
		{Class: ClassChkRecalc, Resource: "gpu", Start: 5, End: 6},
		{Class: ClassGEMM, Resource: "gpu", Start: 0, End: 10},
	}}
	if got := tr.MaxConcurrency(ClassChkRecalc); got != 3 {
		t.Fatalf("max concurrency = %d, want 3", got)
	}
	if got := tr.MaxConcurrency(ClassGEMM); got != 1 {
		t.Fatalf("gemm concurrency = %d", got)
	}
	if got := tr.MaxConcurrency(ClassTRSM); got != 0 {
		t.Fatalf("absent class concurrency = %d", got)
	}
}

func TestMaxConcurrencyRespectsSlotPool(t *testing.T) {
	// End-to-end: on a 4-slot device, 10 one-slot kernels across 10
	// streams never exceed 4 concurrent.
	spec := testSpec(4)
	d := NewDevice(spec)
	tr := &Trace{}
	d.trace = tr
	d.resource = "gpu"
	for i := 0; i < 10; i++ {
		s := d.Stream()
		d.Launch(s, Kernel{Name: "r", Class: ClassChkRecalc, Flops: 1e8, Slots: 1})
	}
	got := tr.MaxConcurrency(ClassChkRecalc)
	if got != 4 {
		t.Fatalf("realized concurrency %d, want the slot pool size 4", got)
	}
}

func TestGanttRendering(t *testing.T) {
	tr := &Trace{Spans: []Span{
		{Name: "gemm[0]", Class: ClassGEMM, Resource: "gpu", Stream: 1, Start: 0, End: 1},
		{Name: "potf2[0]", Class: ClassPOTF2, Resource: "cpu", Stream: 3, Start: 0.5, End: 0.8},
		{Name: "xfer", Class: Class(-1), Resource: "d2h", Stream: 2, Start: 0.2, End: 0.3},
	}}
	g := tr.Gantt(40)
	if !strings.Contains(g, "gpu/01") || !strings.Contains(g, "cpu/03") || !strings.Contains(g, "d2h/02") {
		t.Fatalf("gantt rows missing:\n%s", g)
	}
	if !strings.Contains(g, "G") || !strings.Contains(g, "P") {
		t.Fatalf("gantt marks missing:\n%s", g)
	}
	if (&Trace{}).Gantt(40) != "(empty trace)\n" {
		t.Fatal("empty trace rendering")
	}
}

func TestUnionLength(t *testing.T) {
	if got := unionLength(nil); got != 0 {
		t.Fatal("empty union")
	}
	iv := [][2]float64{{3, 4}, {0, 2}, {1, 2.5}}
	if got := unionLength(iv); math.Abs(got-3.5) > 1e-12 {
		t.Fatalf("union = %g, want 3.5", got)
	}
}

func TestUtilizationReport(t *testing.T) {
	tr := &Trace{Spans: []Span{
		{Name: "gemm", Class: ClassGEMM, Resource: "gpu", Start: 0, End: 4},
		{Name: "r", Class: ClassChkRecalc, Resource: "gpu", Start: 4, End: 5},
		{Name: "potf2", Class: ClassPOTF2, Resource: "cpu", Start: 1, End: 2},
		{Name: "xfer", Class: Class(-1), Resource: "d2h", Start: 0, End: 1},
	}}
	rep := tr.Utilization(10)
	if rep.Makespan != 10 || len(rep.Resources) != 3 {
		t.Fatalf("report %+v", rep)
	}
	var gpu *ResourceUtilization
	for i := range rep.Resources {
		if rep.Resources[i].Resource == "gpu" {
			gpu = &rep.Resources[i]
		}
	}
	if gpu == nil || gpu.Busy != 5 {
		t.Fatalf("gpu busy %+v", gpu)
	}
	if gpu.ClassBusy[ClassGEMM] != 4 || gpu.ClassN[ClassGEMM] != 1 {
		t.Fatal("class attribution wrong")
	}
	out := rep.String()
	if !strings.Contains(out, "gpu") || !strings.Contains(out, "GEMM") || !strings.Contains(out, "Transfer") {
		t.Fatalf("render:\n%s", out)
	}
	if !strings.Contains(out, "50.0%") {
		t.Fatalf("busy percent missing:\n%s", out)
	}
}
