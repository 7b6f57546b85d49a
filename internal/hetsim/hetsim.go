// Package hetsim is a deterministic discrete-event simulator of a
// heterogeneous CPU+GPU node, standing in for the CUDA runtime the
// paper's implementation targets (Tesla M2075 / K40c + Opteron hosts).
//
// The simulator models exactly the mechanisms the paper's three
// optimizations exploit:
//
//   - streams with in-order execution and cross-stream events,
//   - concurrent kernel execution bounded by a per-device slot pool
//     (16 on Fermi, 32 on Kepler), so many small BLAS-2 checksum
//     kernels can overlap while full-occupancy BLAS-3 kernels
//     serialize (Optimization 1),
//   - a host<->device link with latency and bandwidth, and a CPU
//     device that can work concurrently with the GPU (Optimization 2),
//   - per-kernel launch overhead and a host-side dispatch gap, which
//     is what makes the O(n²/B²) tiny verification kernels expensive
//     in the first place (Optimization 3 reduces their count).
//
// Kernels carry a cost (flops, bytes) and optionally a Body closure
// with the real numeric work. Bodies run eagerly in issue order —
// a legal sequentially-consistent execution — while completion times
// are computed from the cost model, so small real-data runs report
// paper-scale timings and full-scale model runs use the same code.
package hetsim

import "fmt"

// Class identifies the kind of work a kernel does; the cost model
// assigns each class its own efficiency curve and default occupancy.
type Class int

const (
	// ClassGEMM is a large matrix-matrix multiply (BLAS-3, compute bound).
	ClassGEMM Class = iota
	// ClassSYRK is a symmetric rank-k update (BLAS-3).
	ClassSYRK
	// ClassTRSM is a triangular solve with many right-hand sides (BLAS-3).
	ClassTRSM
	// ClassPOTF2 is the unblocked Cholesky of one diagonal block.
	ClassPOTF2
	// ClassChkRecalc is one block's checksum recalculation: two
	// (2 x B) x (B x B) products. BLAS-2 shaped, bandwidth bound, low
	// occupancy — the target of Optimization 1.
	ClassChkRecalc
	// ClassChkUpdate is a checksum-row update (skinny GEMM/TRSM on the
	// 2-row checksum slab) — the work Optimization 2 places on CPU or GPU.
	ClassChkUpdate
	// ClassChkCompare is the elementwise compare of recalculated vs
	// stored checksums (cheap, bandwidth bound).
	ClassChkCompare
	// ClassHost is miscellaneous host-side work charged at CPU speed.
	ClassHost
	numClasses
)

var classNames = [numClasses]string{
	"GEMM", "SYRK", "TRSM", "POTF2", "ChkRecalc", "ChkUpdate", "ChkCompare", "Host",
}

func (c Class) String() string {
	if c < 0 || int(c) >= len(classNames) {
		return fmt.Sprintf("Class(%d)", int(c))
	}
	return classNames[c]
}

// Kernel describes one unit of device work.
type Kernel struct {
	// Name is the kernel's static name ("syrk", "chkupd-trailing")
	// and Index its iteration indices, if any: the span is named
	// "syrk[3]" or "chkupd-trailing[3,1]", formatted only when a trace
	// is attached.
	Name  string
	Index []int
	Class Class
	// Flops is the floating-point operation count; Bytes the memory
	// traffic. Duration is max(flops/effective-rate, bytes/bandwidth)
	// plus the device launch overhead.
	Flops float64
	Bytes float64
	// Slots is how many concurrent-kernel slots the kernel occupies;
	// 0 means "class default" (all slots for BLAS-3, one for the small
	// checksum kernels).
	Slots int
	// Body, when non-nil, is executed at launch (real-data plane).
	Body func()
}

// Event is a point on the simulated timeline that streams can wait
// on. Its time is unexported, so outside this package an event comes
// only from Stream.Record or Link.Transfer and always names the work it
// follows. The zero Event fired at time 0: it orders nothing.
type Event struct {
	t float64
}

// Stream is an in-order execution queue bound to one device.
type Stream struct {
	dev *Device
	t   float64 // completion time of the last enqueued operation
	id  int
}

// Done returns the time at which everything enqueued so far completes.
func (s *Stream) Done() float64 { return s.t }

// Record captures the stream's current completion time as an Event.
func (s *Stream) Record() Event { return Event{t: s.t} }

// Wait delays subsequent work on the stream until ev has fired.
func (s *Stream) Wait(ev Event) {
	if ev.t > s.t {
		s.t = ev.t
	}
}

// WaitTime delays subsequent work until absolute simulated time t.
func (s *Stream) WaitTime(t float64) {
	if t > s.t {
		s.t = t
	}
}
