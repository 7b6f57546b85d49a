package fault

import (
	"math"
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	if Computation.String() != "computation" || Storage.String() != "storage" || Propagated.String() != "propagated" {
		t.Fatal("kind names wrong")
	}
	if Kind(9).String() == "" {
		t.Fatal("unknown kind must render")
	}
}

func TestInjectionCorrectable(t *testing.T) {
	if !(Injection{Kind: Computation}).Correctable() {
		t.Fatal("computation errors are correctable")
	}
	if !(Injection{Kind: Storage}).Correctable() {
		t.Fatal("storage errors are correctable when caught before use")
	}
	if !(Injection{Kind: Propagated, Width: 1}).Correctable() {
		t.Fatal("a single-row inconsistent smear is one error per column: correctable")
	}
	if (Injection{Kind: Propagated, Width: 2}).Correctable() {
		t.Fatal("multi-row smears are not correctable")
	}
	if (Injection{Kind: Propagated, Consistent: true}).Correctable() {
		t.Fatal("consistent corruption is invisible, never correctable")
	}
	if !(Injection{Kind: Storage}).Detectable() {
		t.Fatal("plain injections are detectable")
	}
	if (Injection{Kind: Propagated, Width: 3}).EffectiveWidth() != 3 {
		t.Fatal("width not carried")
	}
	if (Injection{Kind: Storage}).EffectiveWidth() != 1 {
		t.Fatal("plain injections span one row")
	}
}

func TestLedgerSetPending(t *testing.T) {
	l := NewLedger()
	l.Mark(Injection{Kind: Storage, BI: 1, BJ: 0})
	l.Mark(Injection{Kind: Propagated, BI: 1, BJ: 0, Consistent: true})
	keep := []Injection{l.Pending(1, 0)[1]}
	l.SetPending(1, 0, keep)
	if got := l.Pending(1, 0); len(got) != 1 || got[0].Kind != Propagated {
		t.Fatalf("pending after SetPending = %v", got)
	}
	l.SetPending(1, 0, nil)
	if l.IsCorrupt(1, 0) {
		t.Fatal("empty SetPending must clear the block")
	}
}

func TestLedgerMarkClear(t *testing.T) {
	l := NewLedger()
	if l.AnyCorrupt() {
		t.Fatal("fresh ledger corrupt")
	}
	l.Mark(Injection{Kind: Storage, BI: 2, BJ: 1, Row: 3, Col: 4, Delta: 5})
	if !l.IsCorrupt(2, 1) || l.IsCorrupt(1, 2) {
		t.Fatal("corruption misplaced")
	}
	if got := len(l.Pending(2, 1)); got != 1 {
		t.Fatalf("pending = %d", got)
	}
	if got := l.Pending(2, 1)[0].Delta; got != 5 {
		t.Fatalf("pending delta = %g, want 5", got)
	}
	l.SetPending(2, 1, nil)
	if l.AnyCorrupt() || len(l.Pending(2, 1)) != 0 {
		t.Fatal("ledger still corrupt after clear")
	}
	if len(l.History()) != 1 {
		t.Fatal("history lost after clear")
	}
}

func TestLedgerPropagate(t *testing.T) {
	l := NewLedger()
	l.Mark(Injection{Kind: Storage, BI: 3, BJ: 0})
	l.Propagate(3, 0, 5, 3, 4, true, 1, -1)
	if !l.IsCorrupt(5, 3) {
		t.Fatal("propagation not recorded")
	}
	ins := l.Pending(5, 3)
	if len(ins) != 1 || ins[0].Kind != Propagated || ins[0].Iter != 4 {
		t.Fatalf("propagated injection = %v", ins)
	}
	if ins[0].Detectable() {
		t.Fatal("consistent propagation must be checksum-invisible")
	}
	l.Propagate(3, 0, 6, 3, 4, false, 1, 2)
	if !l.Pending(6, 3)[0].Detectable() {
		t.Fatal("inconsistent propagation must be detectable")
	}
	if !l.IsCorrupt(3, 0) {
		t.Fatal("source must stay corrupted")
	}
	if l.CorruptBlocks() != 3 {
		t.Fatalf("corrupt blocks = %d, want source plus two destinations", l.CorruptBlocks())
	}
}

func TestLedgerReset(t *testing.T) {
	l := NewLedger()
	l.Mark(Injection{Kind: Storage, BI: 1, BJ: 1})
	l.Reset()
	if l.AnyCorrupt() {
		t.Fatal("reset left corruption")
	}
	if len(l.History()) != 1 {
		t.Fatal("reset must keep history")
	}
}

func TestFlipBit(t *testing.T) {
	v := 1.5
	f := FlipBit(v, 52)
	if f == v {
		t.Fatal("flip changed nothing")
	}
	if FlipBit(f, 52) != v {
		t.Fatal("double flip must restore")
	}
	if FlipBit(3.0, 63) != -3.0 {
		t.Fatal("bit 63 is the sign")
	}
}

func TestFlipBitInvolutionProperty(t *testing.T) {
	f := func(v float64, bit uint8) bool {
		b := int(bit % 64)
		return FlipBit(FlipBit(v, b), b) == v || math.IsNaN(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFlipBitRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for bit 64")
		}
	}()
	FlipBit(1, 64)
}

type recordApplier struct {
	calls []Injection
	delta float64
}

func (r *recordApplier) Corrupt(bi, bj, row, col int, delta float64, bit int) float64 {
	r.calls = append(r.calls, Injection{BI: bi, BJ: bj, Row: row, Col: col, Delta: delta})
	if delta != 0 {
		return delta
	}
	return r.delta
}

func TestInjectorComputationFiresOnceOnMatchingKernel(t *testing.T) {
	l := NewLedger()
	inj := NewInjector(l, DefaultComputation(3))
	// Wrong iteration and wrong op: nothing happens.
	inj.KernelTick(OpGEMM, 2, 4, 2)
	inj.KernelTick(OpSYRK, 3, 3, 3)
	if inj.Injected() != 0 {
		t.Fatal("fired early")
	}
	inj.KernelTick(OpGEMM, 3, 4, 3)
	if inj.Injected() != 1 || !l.IsCorrupt(4, 3) {
		t.Fatal("did not fire on matching GEMM")
	}
	// Exactly once: later GEMMs of the same iteration do nothing.
	inj.KernelTick(OpGEMM, 3, 5, 3)
	if l.IsCorrupt(5, 3) {
		t.Fatal("fired twice")
	}
}

func TestInjectorComputationSpecificBlock(t *testing.T) {
	sc := DefaultComputation(2)
	sc.BI, sc.BJ = 6, 2
	l := NewLedger()
	inj := NewInjector(l, sc)
	inj.KernelTick(OpGEMM, 2, 3, 2) // not the chosen block
	if inj.Injected() != 0 {
		t.Fatal("fired on wrong block")
	}
	inj.KernelTick(OpGEMM, 2, 6, 2)
	if !l.IsCorrupt(6, 2) {
		t.Fatal("did not fire on chosen block")
	}
}

func TestInjectorStorageDefaultsToFactoredPanelBlock(t *testing.T) {
	l := NewLedger()
	inj := NewInjector(l, DefaultStorage(4))
	inj.StorageTick(3)
	if inj.Injected() != 0 {
		t.Fatal("fired at wrong iteration")
	}
	inj.StorageTick(4)
	if !l.IsCorrupt(4, 3) {
		t.Fatalf("storage default target wrong; pending=%d", l.CorruptBlocks())
	}
	ins := l.Pending(4, 3)
	if ins[0].Kind != Storage || ins[0].Iter != 4 {
		t.Fatalf("injection = %v", ins[0])
	}
}

func TestInjectorStorageAtIterZeroSkipped(t *testing.T) {
	inj := NewInjector(nil, DefaultStorage(0))
	inj.StorageTick(0)
	if inj.Injected() != 0 {
		t.Fatal("storage error with no factored blocks must not fire")
	}
}

func TestInjectorApplierReceivesTarget(t *testing.T) {
	ra := &recordApplier{delta: 7.5}
	sc := DefaultStorage(2)
	sc.Row, sc.Col = 5, 6
	l := NewLedger()
	inj := NewInjector(l, sc)
	inj.Applier = ra
	inj.StorageTick(2)
	if len(ra.calls) != 1 {
		t.Fatal("applier not called")
	}
	c := ra.calls[0]
	if c.BI != 2 || c.BJ != 1 || c.Row != 5 || c.Col != 6 {
		t.Fatalf("applier call %+v", c)
	}
	// Bit-flip scenarios record the applied delta from the applier.
	if got := l.Pending(2, 1)[0].Delta; got != 7.5 {
		t.Fatalf("ledger delta = %g, want applier's 7.5", got)
	}
}

func TestInjectorExplicitDelta(t *testing.T) {
	sc := DefaultComputation(1)
	sc.Delta = -3
	l := NewLedger()
	inj := NewInjector(l, sc)
	inj.KernelTick(OpGEMM, 1, 2, 1)
	if got := l.Pending(2, 1)[0].Delta; got != -3 {
		t.Fatalf("delta = %g", got)
	}
}

// TestInjectorRearm: Arm replaces the scenarios with unfired ones,
// growing or shrinking the set, and Arm with none disarms.
func TestInjectorRearm(t *testing.T) {
	inj := NewInjector(nil, DefaultComputation(1))
	inj.KernelTick(OpGEMM, 1, 2, 1)
	if inj.Injected() != 1 {
		t.Fatal("no fire")
	}
	inj.Arm(DefaultComputation(1), DefaultStorage(2))
	if inj.Injected() != 0 {
		t.Fatal("rearm failed")
	}
	inj.KernelTick(OpGEMM, 1, 2, 1)
	inj.StorageTick(2)
	if inj.Injected() != 2 {
		t.Fatalf("injected %d after rearm, want 2", inj.Injected())
	}
	inj.Arm()
	inj.KernelTick(OpGEMM, 1, 2, 1)
	if inj.Injected() != 0 {
		t.Fatal("an injector armed with nothing fired")
	}
}

func TestInjectorMultipleScenarios(t *testing.T) {
	l := NewLedger()
	inj := NewInjector(l, DefaultComputation(1), DefaultStorage(2))
	inj.KernelTick(OpGEMM, 1, 3, 1)
	inj.StorageTick(2)
	if inj.Injected() != 2 {
		t.Fatalf("injected = %d, want 2", inj.Injected())
	}
	if !l.IsCorrupt(3, 1) || !l.IsCorrupt(2, 1) {
		t.Fatal("targets missing")
	}
}

func TestOpString(t *testing.T) {
	for op, want := range map[Op]string{OpSYRK: "SYRK", OpGEMM: "GEMM", OpPOTF2: "POTF2", OpTRSM: "TRSM"} {
		if op.String() != want {
			t.Fatalf("%v != %s", op, want)
		}
	}
}
