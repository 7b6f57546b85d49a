package hetsim

import (
	"fmt"
	"slices"
	"strconv"
)

// DeviceSpec is the static performance description of one compute
// device (a GPU or the host CPU complex).
type DeviceSpec struct {
	Name string
	// PeakGFLOPS is double-precision peak throughput.
	PeakGFLOPS float64
	// MemBWGBs is device memory bandwidth in GB/s, the roofline for
	// bandwidth-bound (BLAS-1/2 shaped) kernels.
	MemBWGBs float64
	// ConcurrentKernels is the slot-pool size: how many kernels the
	// device can execute at once (16 on Fermi, 32 on Kepler, and the
	// core-pair count on the CPU).
	ConcurrentKernels int
	// LaunchOverhead is the fixed per-kernel cost in seconds.
	LaunchOverhead float64
	// DispatchGap is the host-side serialization between consecutive
	// launches to this device, in seconds. Thousands of tiny
	// verification kernels pay this even when they overlap on-device.
	DispatchGap float64
	// EffMax[class] is the peak fraction of PeakGFLOPS the class can
	// reach; EffHalfFlops[class] is the kernel size (flops) at which a
	// kernel reaches half of that (a saturation curve:
	// eff = EffMax * f/(f+EffHalfFlops)).
	EffMax       [numClasses]float64
	EffHalfFlops [numClasses]float64
	// BWEff[class] scales the achievable memory bandwidth for
	// bandwidth-bound kernels of that class (0 means 1.0). The skinny
	// 2-row checksum recalculations reach nowhere near STREAM rates on
	// real cards, which is exactly why Optimization 1 pays off.
	BWEff [numClasses]float64
}

// Device is the dynamic state of one device on the simulated timeline.
type Device struct {
	Spec DeviceSpec

	slots      []float64 // free time of each concurrent-kernel slot
	dispatchT  float64   // host dispatch serializer
	nextStream int

	stats     Stats
	trace     *Trace
	obs       Observer
	resource  string
	slotWaits int     // launches delayed by slot occupancy
	slotWait  float64 // summed slot-queueing delay
}

// NewDevice creates a device with all slots free at t=0.
func NewDevice(spec DeviceSpec) *Device {
	d := new(Device)
	d.reset(spec)
	return d
}

// reset returns the device to t=0 under spec: every slot free, no
// streams, stats, contention, trace or observer. It keeps the slot
// list's storage and the resource name.
func (d *Device) reset(spec DeviceSpec) {
	spec.ConcurrentKernels = max(spec.ConcurrentKernels, 1)
	slots := slices.Grow(d.slots[:0], spec.ConcurrentKernels)[:spec.ConcurrentKernels]
	clear(slots)
	*d = Device{Spec: spec, slots: slots, resource: d.resource}
}

// Stream creates a new in-order queue on the device.
func (d *Device) Stream() *Stream { return d.bind(new(Stream)) }

// bind makes s an empty queue on the device with the device's next
// stream id.
func (d *Device) bind(s *Stream) *Stream {
	d.nextStream++
	*s = Stream{dev: d, id: d.nextStream}
	return s
}

// defaultSlots gives each class its occupancy: the big BLAS-3 kernels
// and POTF2 saturate the device; the small checksum kernels take one
// slot each so up to ConcurrentKernels of them overlap.
func (d *Device) defaultSlots(c Class) int {
	switch c {
	case ClassChkRecalc, ClassChkCompare, ClassChkUpdate, ClassHost:
		return 1
	default:
		return d.Spec.ConcurrentKernels
	}
}

// Duration returns the modeled execution time of k on this device,
// excluding launch overhead and queueing.
func (d *Device) Duration(k Kernel) float64 {
	spec := &d.Spec
	var compute float64
	if k.Flops > 0 && spec.PeakGFLOPS > 0 {
		effMax := spec.EffMax[k.Class]
		if effMax == 0 {
			effMax = 0.7
		}
		eff := effMax
		if half := spec.EffHalfFlops[k.Class]; half > 0 {
			eff = effMax * k.Flops / (k.Flops + half)
		}
		compute = k.Flops / (spec.PeakGFLOPS * 1e9 * eff)
	}
	var memory float64
	if k.Bytes > 0 && spec.MemBWGBs > 0 {
		bwEff := spec.BWEff[k.Class]
		if bwEff == 0 {
			bwEff = 1
		}
		memory = k.Bytes / (spec.MemBWGBs * 1e9 * bwEff)
	}
	if memory > compute {
		return memory
	}
	return compute
}

// Launch enqueues k on stream s (which must belong to this device) and
// returns the kernel's completion time. If k carries a Body it runs
// now, in issue order. The span handed to the trace and the observer
// is named ("syrk[3]") only when a trace is attached: an observer
// alone gets an unnamed span, so an untraced launch formats nothing.
func (d *Device) Launch(s *Stream, k Kernel) float64 {
	if s.dev != d {
		panic(fmt.Sprintf("hetsim: stream of device %q launched on %q", s.dev.Spec.Name, d.Spec.Name))
	}
	if k.Body != nil {
		k.Body()
	}
	units := k.Slots
	if units <= 0 {
		units = d.defaultSlots(k.Class)
	}
	if units > len(d.slots) {
		units = len(d.slots)
	}

	// Host dispatch serialization: launches reach the device one
	// DispatchGap apart regardless of stream.
	ready := s.t
	if d.dispatchT > ready {
		ready = d.dispatchT
	}
	d.dispatchT = ready + d.Spec.DispatchGap

	// Acquire `units` slots: the kernel can start once the
	// units-smallest slot free times have passed.
	insertionSort(d.slots)
	start := d.slots[units-1]
	if ready > start {
		start = ready
	} else if d.slots[units-1] > ready {
		d.slotWaits++
		d.slotWait += d.slots[units-1] - ready
	}
	dur := d.Duration(k) + d.Spec.LaunchOverhead
	end := start + dur
	for i := 0; i < units; i++ {
		d.slots[i] = end
	}
	s.t = end

	d.stats.add(k.Class, dur)
	if d.trace != nil || d.obs != nil {
		res := d.resource
		if res == "" {
			res = "dev"
		}
		var name string
		if d.trace != nil {
			name = k.spanName()
		}
		sp := Span{Name: name, Class: k.Class, Resource: res, Stream: s.id,
			Start: start, End: end, Slots: units, Flops: k.Flops, Bytes: k.Bytes}
		if d.trace != nil {
			d.trace.add(sp)
		}
		if d.obs != nil {
			d.obs.KernelLaunched(sp)
		}
	}
	return end
}

// spanName formats the kernel's name with its iteration indices. It
// always builds a new string: a span that shared k.Name's storage
// would make every Kernel passed to Launch escape to the heap, Body
// closure included.
func (k *Kernel) spanName() string {
	b := make([]byte, 0, len(k.Name)+24)
	b = append(b, k.Name...)
	for i, v := range k.Index {
		sep := byte(',')
		if i == 0 {
			sep = '['
		}
		b = strconv.AppendInt(append(b, sep), int64(v), 10)
	}
	if len(k.Index) > 0 {
		b = append(b, ']')
	}
	return string(b)
}

// Busy returns the completion time of the last work on any slot.
func (d *Device) Busy() float64 {
	maxT := d.dispatchT
	for _, t := range d.slots {
		if t > maxT {
			maxT = t
		}
	}
	return maxT
}

// Stats returns per-class accounting since the device was built or
// its platform last Reset.
func (d *Device) Stats() Stats { return d.stats }

// insertionSort keeps the slot list ordered; it is at most
// ConcurrentKernels long (<= 32) and nearly sorted between launches,
// so this beats the stdlib sort and allocates nothing.
func insertionSort(x []float64) {
	for i := 1; i < len(x); i++ {
		v := x[i]
		j := i - 1
		for j >= 0 && x[j] > v {
			x[j+1] = x[j]
			j--
		}
		x[j+1] = v
	}
}
