//go:build !race

package hetsim

import "testing"

// nopObserver is an attached observer that keeps nothing.
type nopObserver struct{}

func (nopObserver) KernelLaunched(Span)          {}
func (nopObserver) TransferDone(Span, Direction) {}

// TestUntracedLaunchAllocatesNothing: without a trace, Launch formats
// no span name and allocates nothing, whether or not an observer is
// attached. The race detector's instrumentation would distort the
// count, hence the build tag.
func TestUntracedLaunchAllocatesNothing(t *testing.T) {
	p := NewPlatform(Laptop())
	s := p.GPUStream()
	k := Kernel{Name: "chkupd-trailing", Index: []int{3, 1}, Class: ClassChkUpdate, Flops: 1e6, Slots: 1}
	if got := testing.AllocsPerRun(100, func() { p.GPU.Launch(s, k) }); got != 0 {
		t.Errorf("untraced Launch: %v allocations, want 0", got)
	}
	p.Observe(nopObserver{})
	if got := testing.AllocsPerRun(100, func() { p.GPU.Launch(s, k) }); got != 0 {
		t.Errorf("observed, untraced Launch: %v allocations, want 0", got)
	}
	tr := p.StartTrace()
	p.GPU.Launch(s, k)
	if name := tr.Spans[len(tr.Spans)-1].Name; name != "chkupd-trailing[3,1]" {
		t.Errorf("traced span name = %q, want chkupd-trailing[3,1]", name)
	}
}
