package fault

// Tests for the ledger's damage-accounting queries — the widths and
// the per-row profile that the model-plane verification consults to
// decide what a checksum pass would see. The lifecycle basics
// (Mark/Clear/SetPending/Propagate/Reset) are in fault_test.go.

import "testing"

func TestLedgerPendingWidths(t *testing.T) {
	l := NewLedger()
	// A detectable single-row smear: correctable, width 1, known row.
	l.Propagate(0, 0, 1, 0, 3, false, 1, 7)
	// A checksum-consistent smear of width 2 into the same block: the
	// fatal class — invisible to verification.
	l.Propagate(0, 0, 1, 0, 3, true, 2, -1)
	if got := l.PendingWidth(1, 0); got != 2 {
		t.Fatalf("PendingWidth = %d, want 2 (widest pending smear)", got)
	}
	if got := l.DetectableWidth(1, 0); got != 1 {
		t.Fatalf("DetectableWidth = %d, want 1 (consistent smear invisible)", got)
	}
	if got := l.ConsistentWidth(1, 0); got != 2 {
		t.Fatalf("ConsistentWidth = %d, want 2", got)
	}
	if l.PendingWidth(9, 9) != 0 {
		t.Fatal("PendingWidth of clean block nonzero")
	}
}

func TestLedgerWidthFloorsAtOne(t *testing.T) {
	l := NewLedger()
	// Plain injections carry no explicit width; a single flipped
	// element still smears one row when it propagates.
	l.Mark(Injection{Kind: Computation, BI: 0, BJ: 0, Row: 2})
	if got := l.PendingWidth(0, 0); got != 1 {
		t.Fatalf("PendingWidth = %d, want 1 for a zero-width injection", got)
	}
	if got := l.DetectableWidth(0, 0); got != 1 {
		t.Fatalf("DetectableWidth = %d, want 1", got)
	}
	if got := l.ConsistentWidth(0, 0); got != 0 {
		t.Fatalf("ConsistentWidth = %d, want 0 (plain injections are visible)", got)
	}
}

func TestLedgerDetectableProfile(t *testing.T) {
	l := NewLedger()
	// Two plain injections in the same known row plus one in another
	// row: rows must deduplicate.
	l.Mark(Injection{Kind: Computation, BI: 2, BJ: 1, Row: 4, Iter: 0})
	l.Mark(Injection{Kind: Storage, BI: 2, BJ: 1, Row: 4, Iter: 1})
	l.Mark(Injection{Kind: Computation, BI: 2, BJ: 1, Row: 6, Iter: 1})
	// A single-row propagated smear with a known row counts as a row.
	l.Propagate(0, 0, 2, 1, 2, false, 1, 8)
	// A wide detectable smear contributes unknown damage instead.
	l.Propagate(0, 0, 2, 1, 2, false, 3, -1)
	// A consistent smear is invisible and must not show up at all.
	l.Propagate(0, 0, 2, 1, 2, true, 5, -1)
	rows, unknown := l.DetectableProfile(2, 1)
	want := map[int]bool{4: true, 6: true, 8: true}
	if len(rows) != 3 {
		t.Fatalf("rows = %v, want the three distinct known rows", rows)
	}
	for _, r := range rows {
		if !want[r] {
			t.Fatalf("rows = %v contains unexpected row %d", rows, r)
		}
	}
	if unknown != 3 {
		t.Fatalf("unknown = %d, want 3 (width of the wide visible smear)", unknown)
	}
}

func TestLedgerProfileOfCleanBlock(t *testing.T) {
	l := NewLedger()
	rows, unknown := l.DetectableProfile(0, 0)
	if len(rows) != 0 || unknown != 0 {
		t.Fatalf("clean block profile = (%v, %d), want empty", rows, unknown)
	}
}

func TestLedgerHistoryOrderAndClearIdempotence(t *testing.T) {
	l := NewLedger()
	in1 := Injection{Kind: Computation, BI: 1, BJ: 2, Row: 3, Col: 4, Delta: 0.5, Iter: 1}
	in2 := Injection{Kind: Storage, BI: 1, BJ: 2, Row: 5, Col: 6, Delta: 0.25, Iter: 2}
	l.Mark(in1)
	l.Mark(in2)
	if l.CorruptBlocks() != 1 {
		t.Fatalf("CorruptBlocks = %d, want 1 (both marks hit one block)", l.CorruptBlocks())
	}
	if got := len(l.Pending(1, 2)); got != 2 {
		t.Fatalf("block holds %d injections, want 2", got)
	}
	l.SetPending(1, 2, nil)
	l.SetPending(1, 2, nil)
	if l.CorruptBlocks() != 0 {
		t.Fatalf("CorruptBlocks = %d after clearing one block twice, want 0", l.CorruptBlocks())
	}
	if h := l.History(); len(h) != 2 || h[0] != in1 || h[1] != in2 {
		t.Fatalf("History = %v, want the two marks in order", h)
	}
	// The ledger stays usable after Reset, and history keeps growing.
	l.Reset()
	l.Mark(Injection{Kind: Computation, BI: 1, BJ: 1})
	if !l.IsCorrupt(1, 1) || len(l.History()) != 3 {
		t.Fatal("ledger unusable after Reset")
	}
}

// TestLedgerReuse: Reuse leaves a ledger that behaves as a new one,
// with its block storage kept, and never writes a history slice handed
// out before it.
func TestLedgerReuse(t *testing.T) {
	l := NewLedger()
	first := Injection{Kind: Storage, BI: 3, BJ: 1, Row: 2}
	l.Mark(first)
	l.Propagate(3, 1, 4, 1, 2, false, 1, 2)
	h := l.History()
	l.Reuse()
	if l.AnyCorrupt() || l.CorruptBlocks() != 0 || l.Propagations() != 0 || len(l.History()) != 0 {
		t.Fatal("Reuse left corruption, propagations or history")
	}
	if cap(l.Pending(3, 1)) == 0 {
		t.Fatal("Reuse dropped a block's pending storage")
	}
	l.Mark(Injection{Kind: Computation, BI: 4, BJ: 1})
	if len(h) != 1 || h[0] != first {
		t.Fatalf("a history returned before Reuse reads %v, want [%v]", h, first)
	}
	if !l.IsCorrupt(4, 1) || l.IsCorrupt(3, 1) || l.CorruptBlocks() != 1 {
		t.Fatal("reused ledger tracks corruption wrongly")
	}
}
