package fault

import (
	"math"
	"slices"
)

// Op identifies which update operation of the blocked Cholesky an
// injection hook fires after. It mirrors the four MAGMA kernels.
type Op int

const (
	OpSYRK Op = iota
	OpGEMM
	OpPOTF2
	OpTRSM
)

func (o Op) String() string {
	switch o {
	case OpSYRK:
		return "SYRK"
	case OpGEMM:
		return "GEMM"
	case OpPOTF2:
		return "POTF2"
	case OpTRSM:
		return "TRSM"
	}
	return "Op(?)"
}

// Scenario describes one error to inject.
type Scenario struct {
	// Kind must be Computation or Storage.
	Kind Kind
	// Iter is the outer iteration at which the error appears.
	// Storage errors fire at the top of the iteration (the corrupted
	// block sat in memory since an earlier iteration); computation
	// errors fire when the matching kernel writes its output.
	Iter int
	// Op is the kernel whose output a computation error lands in
	// (default OpGEMM, the operation that dominates the run).
	Op Op
	// BI, BJ select the target block; leave both negative for the
	// default (the first matching block of the iteration for
	// computation errors; the already-factored block (Iter, Iter-1)
	// for storage errors).
	BI, BJ int
	// Row, Col locate the element inside the block.
	Row, Col int
	// Delta, when non-zero, is added to the element. When zero, Bit
	// selects a bit of the float64 representation to flip (default 52,
	// the lowest exponent bit — a large, ECC-escaping corruption).
	Delta float64
	Bit   int
}

// DefaultComputation returns the paper's computation-error scenario:
// one wrong element in a GEMM output block mid-factorization.
func DefaultComputation(iter int) Scenario {
	return Scenario{Kind: Computation, Iter: iter, Op: OpGEMM, BI: -1, BJ: -1, Row: 2, Col: 3}
}

// DefaultStorage returns the paper's storage-error scenario: a bit
// flip in an already-factored, already-verified panel block that is
// about to be read again.
func DefaultStorage(iter int) Scenario {
	return Scenario{Kind: Storage, Iter: iter, BI: -1, BJ: -1, Row: 1, Col: 2}
}

// Applier mutates a real data block; the model plane leaves it nil.
type Applier interface {
	// Corrupt perturbs element (row, col) of block (bi, bj), adding
	// delta when delta != 0 or flipping the given bit otherwise, and
	// returns the signed change actually applied to the value.
	Corrupt(bi, bj, row, col int, delta float64, bit int) float64
}

// Injector drives a set of scenarios against one factorization run.
// The executor calls StorageTick at the top of every outer iteration
// and KernelTick after every update kernel; the injector fires each
// scenario exactly once.
type Injector struct {
	Ledger  *Ledger
	Applier Applier

	scenarios []Scenario
	fired     []bool
}

// NewInjector builds an injector over the given scenarios (none is
// valid: the injector then never fires).
func NewInjector(ledger *Ledger, scenarios ...Scenario) *Injector {
	if ledger == nil {
		ledger = NewLedger()
	}
	inj := &Injector{Ledger: ledger}
	inj.Arm(scenarios...)
	return inj
}

// Arm replaces the injector's scenarios, none of them fired yet, and
// keeps the storage of their fired flags. A restarted factorization
// (the Offline/Online redo path) does NOT re-arm: the paper's
// experiments inject each error once, so the redo runs clean.
func (inj *Injector) Arm(scenarios ...Scenario) {
	inj.scenarios = scenarios
	inj.fired = slices.Grow(inj.fired[:0], len(scenarios))[:len(scenarios)]
	clear(inj.fired)
}

// Injected reports how many scenarios have fired so far.
func (inj *Injector) Injected() int {
	n := 0
	for _, f := range inj.fired {
		if f {
			n++
		}
	}
	return n
}

// StorageTick fires pending storage scenarios scheduled for iter.
func (inj *Injector) StorageTick(iter int) {
	for i, sc := range inj.scenarios {
		if inj.fired[i] || sc.Kind != Storage || sc.Iter != iter {
			continue
		}
		bi, bj := sc.BI, sc.BJ
		if bi < 0 || bj < 0 {
			// Default: the factored panel block one column back; it
			// was last verified when it was produced and will be read
			// by this iteration's SYRK/GEMM.
			if iter == 0 {
				continue // nothing factored yet; scenario misconfigured
			}
			bi, bj = iter, iter-1
		}
		inj.fire(i, Injection{Kind: Storage, BI: bi, BJ: bj, Row: sc.Row, Col: sc.Col, Iter: iter}, sc)
	}
}

// KernelTick fires pending computation scenarios when kernel op has
// just written block (bi, bj) during iteration iter.
func (inj *Injector) KernelTick(op Op, iter, bi, bj int) {
	for i, sc := range inj.scenarios {
		if inj.fired[i] || sc.Kind != Computation || sc.Iter != iter || sc.Op != op {
			continue
		}
		if sc.BI >= 0 && sc.BJ >= 0 && (sc.BI != bi || sc.BJ != bj) {
			continue
		}
		inj.fire(i, Injection{Kind: Computation, BI: bi, BJ: bj, Row: sc.Row, Col: sc.Col, Iter: iter}, sc)
	}
}

func (inj *Injector) fire(idx int, in Injection, sc Scenario) {
	inj.fired[idx] = true
	in.Delta = sc.Delta
	if inj.Applier != nil {
		bit := sc.Bit
		if sc.Delta == 0 && bit == 0 {
			bit = 52
		}
		in.Delta = inj.Applier.Corrupt(in.BI, in.BJ, in.Row, in.Col, sc.Delta, bit)
	} else if in.Delta == 0 {
		// Model plane with a bit-flip scenario: the exact delta is
		// unknowable without data; record a stand-in magnitude.
		in.Delta = 1
	}
	inj.Ledger.Mark(in)
}

// FlipBit returns v with the given bit (0 = least significant mantissa
// bit, 52..62 exponent, 63 sign) of its IEEE-754 representation
// inverted.
func FlipBit(v float64, bit int) float64 {
	if bit < 0 || bit > 63 {
		panic("fault: bit out of range")
	}
	return math.Float64frombits(math.Float64bits(v) ^ (1 << uint(bit)))
}
