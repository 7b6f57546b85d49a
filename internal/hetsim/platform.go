package hetsim

// LinkSpec describes the host<->device interconnect (PCIe in both
// target machines).
type LinkSpec struct {
	// BandwidthGBs is sustained transfer bandwidth per direction.
	BandwidthGBs float64
	// Latency is the fixed per-transfer cost in seconds.
	Latency float64
}

// Link is the dynamic state of the interconnect: one DMA engine per
// direction, so transfers in the same direction serialize while
// opposite directions overlap (as on the real cards).
type Link struct {
	Spec LinkSpec
	h2d  float64 // engine free times
	d2h  float64

	// accounting
	transfers int
	bytes     float64
	busy      float64
	trace     *Trace
	obs       Observer
}

// Direction selects a transfer direction.
type Direction int

const (
	// HostToDevice moves data from CPU memory to GPU memory.
	HostToDevice Direction = iota
	// DeviceToHost moves data from GPU memory to CPU memory.
	DeviceToHost
)

// Transfer enqueues a copy of the given size on stream s once after
// has fired, and returns the copy's completion: the event its
// consumers wait on. The copy starts at the latest of after, the
// stream's previous work and the previous same-direction copy (one
// DMA engine per direction, so opposite directions overlap).
func (l *Link) Transfer(s *Stream, after Event, dir Direction, bytes float64) Event {
	engine := &l.h2d
	if dir == DeviceToHost {
		engine = &l.d2h
	}
	start := s.t
	if after.t > start {
		start = after.t
	}
	if *engine > start {
		start = *engine
	}
	dur := l.Spec.Latency
	if l.Spec.BandwidthGBs > 0 {
		dur += bytes / (l.Spec.BandwidthGBs * 1e9)
	}
	end := start + dur
	*engine = end
	s.t = end

	l.transfers++
	l.bytes += bytes
	l.busy += dur
	if l.trace != nil || l.obs != nil {
		res := "h2d"
		if dir == DeviceToHost {
			res = "d2h"
		}
		sp := Span{Name: "xfer", Class: Class(-1), Resource: res, Stream: s.id, Start: start, End: end, Bytes: bytes}
		if l.trace != nil {
			l.trace.add(sp)
		}
		if l.obs != nil {
			l.obs.TransferDone(sp, dir)
		}
	}
	return Event{t: end}
}

// TransferStats reports cumulative link usage.
func (l *Link) TransferStats() (transfers int, bytes, busy float64) {
	return l.transfers, l.bytes, l.busy
}

// Platform bundles the devices and interconnect of one machine and
// owns the simulated timeline.
type Platform struct {
	Prof Profile
	GPU  *Device
	CPU  *Device
	Link *Link

	// streams holds every stream the platform has made, in creation
	// order; the first live of them belong to the current run.
	streams []*Stream
	live    int
}

// NewPlatform builds a platform from a machine profile with all
// clocks at zero.
func NewPlatform(prof Profile) *Platform {
	p := &Platform{GPU: &Device{resource: "gpu"}, CPU: &Device{resource: "cpu"}, Link: &Link{}}
	p.Reset(prof)
	return p
}

// Reset returns the platform to t = 0 under prof, as NewPlatform would
// build it: every slot free, no stats, contention, trace or observer,
// an idle link, and stream ids starting again at 1. It keeps its
// storage: the slot lists and the streams it made, which GPUStream and
// CPUStream hand back in creation order. Every stream handed out
// before the reset is invalid after it.
func (p *Platform) Reset(prof Profile) {
	p.Prof = prof
	p.GPU.reset(prof.GPU)
	p.CPU.reset(prof.CPU)
	*p.Link = Link{Spec: prof.Link}
	p.live = 0
}

// StartTrace attaches a fresh Trace capturing every subsequent kernel
// and transfer, and returns it.
func (p *Platform) StartTrace() *Trace {
	tr := &Trace{}
	p.GPU.trace = tr
	p.CPU.trace = tr
	p.Link.trace = tr
	return tr
}

// GPUStream returns a new GPU stream, tracked for Sync.
func (p *Platform) GPUStream() *Stream { return p.stream(p.GPU) }

// CPUStream returns a new CPU queue, tracked for Sync.
func (p *Platform) CPUStream() *Stream { return p.stream(p.CPU) }

// stream binds the platform's next stream to d, making one only when
// every stream made before a Reset is already handed out.
func (p *Platform) stream(d *Device) *Stream {
	if p.live == len(p.streams) {
		p.streams = append(p.streams, new(Stream))
	}
	s := p.streams[p.live]
	p.live++
	return d.bind(s)
}

// Sync returns the simulated time at which every stream created via
// the platform (and all in-flight transfers) has completed — the
// moment a host-side cudaDeviceSynchronize would return.
func (p *Platform) Sync() float64 {
	t := 0.0
	for _, s := range p.streams[:p.live] {
		if s.t > t {
			t = s.t
		}
	}
	if lt := p.Link.h2d; lt > t {
		t = lt
	}
	if lt := p.Link.d2h; lt > t {
		t = lt
	}
	return t
}

// AlignAll advances every tracked stream to at least time t. It is
// used when the host serializes the whole machine (e.g. before
// restarting a failed factorization).
func (p *Platform) AlignAll(t float64) {
	for _, s := range p.streams[:p.live] {
		s.WaitTime(t)
	}
	if p.Link.h2d < t {
		p.Link.h2d = t
	}
	if p.Link.d2h < t {
		p.Link.d2h = t
	}
}

// Stats aggregates per-class device accounting.
type Stats struct {
	Count [numClasses]int
	Busy  [numClasses]float64
}

func (st *Stats) add(c Class, dur float64) {
	st.Count[c]++
	st.Busy[c] += dur
}

// CountOf returns how many kernels of class c ran.
func (st Stats) CountOf(c Class) int { return st.Count[c] }

// BusyOf returns the summed standalone duration of kernels of class c
// (overlap not subtracted).
func (st Stats) BusyOf(c Class) float64 { return st.Busy[c] }

// TotalKernels returns the total kernel count across classes.
func (st Stats) TotalKernels() int {
	n := 0
	for _, c := range st.Count {
		n += c
	}
	return n
}
