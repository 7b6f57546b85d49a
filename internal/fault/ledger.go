package fault

// Ledger tracks which blocks currently hold undetected corruption.
// The real-data plane uses it for assertions in tests; the model plane
// uses it as the source of truth for what a checksum verification
// would find.
//
// Pending corruption lives in a dense per-block slice that grows to
// the largest block index marked, so a run that never corrupts
// anything allocates no per-block storage, and Reset keeps it for the
// restarted factorization. Blocks are laid out in square shells
// (index (i, j) with m = max(i, j) sits in shell m, after the m² blocks
// of the smaller shells), so growth only appends: nb x nb blocks take
// exactly nb² slots whatever order they are first marked in.
type Ledger struct {
	pending [][]Injection
	corrupt int   // blocks with pending corruption
	rows    []int // DetectableProfile's result buffer

	// propagations counts Propagated marks; history keeps every other
	// mark, in order.
	propagations int
	history      []Injection
}

// NewLedger returns an empty ledger.
func NewLedger() *Ledger {
	return &Ledger{}
}

// slot returns the shell index of block (bi, bj).
func slot(bi, bj int) int {
	if bi >= bj {
		return bi*bi + bj
	}
	return bj*bj + bj + 1 + bi
}

// at returns the pending slice index of block (bi, bj) and whether the
// ledger holds it (a block never marked is clean).
func (l *Ledger) at(bi, bj int) (int, bool) {
	if bi < 0 || bj < 0 {
		return 0, false
	}
	i := slot(bi, bj)
	return i, i < len(l.pending)
}

// cleanBlocks is the source grow appends clean blocks from, so the
// grid grows in one step rather than one slot at a time.
var cleanBlocks [256][]Injection

// grow extends the grid to hold block (bi, bj) and returns its slot.
//
// abft:hotpath
func (l *Ledger) grow(bi, bj int) int {
	m := max(bi, bj)
	for need := (m + 1) * (m + 1); len(l.pending) < need; {
		l.pending = append(l.pending, cleanBlocks[:min(need-len(l.pending), len(cleanBlocks))]...)
	}
	return slot(bi, bj)
}

// Mark records a new corruption of block (bi, bj).
//
// abft:hotpath
func (l *Ledger) Mark(in Injection) {
	if in.BI < 0 || in.BJ < 0 {
		panic("fault: negative block index")
	}
	i := l.grow(in.BI, in.BJ)
	if len(l.pending[i]) == 0 {
		l.corrupt++
	}
	l.pending[i] = append(l.pending[i], in)
	if in.Kind == Propagated {
		l.propagations++
	} else {
		l.history = append(l.history, in)
	}
}

// Pending returns the unrepaired injections currently in block
// (bi, bj) without clearing them. The slice is the ledger's own: it
// stays valid until the block next changes.
func (l *Ledger) Pending(bi, bj int) []Injection {
	if i, ok := l.at(bi, bj); ok {
		return l.pending[i]
	}
	return nil
}

// SetPending replaces the pending set of block (bi, bj), used by
// verification logic that repairs some injections of a block while
// leaving others (e.g. checksum-consistent corruption it cannot see).
// ins may be the block's own Pending slice, filtered in place.
func (l *Ledger) SetPending(bi, bj int, ins []Injection) {
	i, ok := l.at(bi, bj)
	if !ok {
		if len(ins) == 0 {
			return
		}
		if bi < 0 || bj < 0 {
			panic("fault: negative block index")
		}
		i = l.grow(bi, bj)
	}
	was := len(l.pending[i]) > 0
	if len(ins) == 0 {
		l.pending[i] = l.pending[i][:0]
	} else {
		l.pending[i] = ins
	}
	if now := len(ins) > 0; was != now {
		if now {
			l.corrupt++
		} else {
			l.corrupt--
		}
	}
}

// IsCorrupt reports whether block (bi, bj) has unrepaired corruption.
//
// abft:hotpath
func (l *Ledger) IsCorrupt(bi, bj int) bool {
	i, ok := l.at(bi, bj)
	return ok && len(l.pending[i]) > 0
}

// Propagate records that corrupted block (srcI, srcJ) was read to
// update block (dstI, dstJ): the destination now carries a smear of
// the given row width. The source stays corrupted. consistent marks
// the fatal case where the destination's checksums were updated from
// the same corrupted data, making the smear checksum-invisible. row
// identifies the damaged row when the smear spans exactly one known
// row (-1 otherwise); smears from one source stay in that source's
// row, which is what keeps single-error cascades correctable.
//
// abft:hotpath
func (l *Ledger) Propagate(srcI, srcJ, dstI, dstJ, iter int, consistent bool, width, row int) {
	l.Mark(Injection{Kind: Propagated, BI: dstI, BJ: dstJ, Row: row, Iter: iter, Consistent: consistent, Width: width})
}

// DetectableProfile summarizes a block's checksum-visible damage by
// row: rows lists the distinct known damaged row indices and unknown
// counts additional damaged rows at unknown positions. rows is the
// ledger's scratch buffer, valid until the next call.
//
// abft:hotpath
func (l *Ledger) DetectableProfile(bi, bj int) (rows []int, unknown int) {
	rows = l.rows[:0]
next:
	for _, in := range l.Pending(bi, bj) {
		if !in.Detectable() {
			continue
		}
		if in.Kind == Propagated && (in.EffectiveWidth() != 1 || in.Row < 0) {
			unknown += in.EffectiveWidth()
			continue
		}
		for _, r := range rows {
			if r == in.Row {
				continue next
			}
		}
		rows = append(rows, in.Row)
	}
	l.rows = rows
	if len(rows) == 0 {
		rows = nil
	}
	return rows, unknown
}

// PendingWidth returns the widest row span among a block's pending
// corruption (0 when clean), the width its onward propagation carries.
//
// abft:hotpath
func (l *Ledger) PendingWidth(bi, bj int) int {
	w := 0
	for _, in := range l.Pending(bi, bj) {
		w = max(w, in.EffectiveWidth())
	}
	return w
}

// DetectableWidth is PendingWidth restricted to checksum-visible
// corruption: the part of a block's damage that disagrees with its
// stored checksums. Consistent corruption contributes nothing here —
// when such a block's checksums feed an update, the output's checksums
// track the corrupt result and the propagated damage is invisible too.
func (l *Ledger) DetectableWidth(bi, bj int) int {
	w := 0
	for _, in := range l.Pending(bi, bj) {
		if in.Detectable() {
			w = max(w, in.EffectiveWidth())
		}
	}
	return w
}

// ConsistentWidth is the counterpart: the widest checksum-invisible
// pending corruption.
//
// abft:hotpath
func (l *Ledger) ConsistentWidth(bi, bj int) int {
	w := 0
	for _, in := range l.Pending(bi, bj) {
		if !in.Detectable() {
			w = max(w, in.EffectiveWidth())
		}
	}
	return w
}

// AnyCorrupt reports whether any block is still corrupted.
func (l *Ledger) AnyCorrupt() bool { return l.corrupt > 0 }

// CorruptBlocks returns the number of blocks with pending corruption.
func (l *Ledger) CorruptBlocks() int { return l.corrupt }

// History returns every injected (non-propagated) corruption ever
// recorded, including repaired ones, in order.
func (l *Ledger) History() []Injection { return l.history }

// Propagations returns how many propagated corruptions were recorded
// over the ledger's life.
func (l *Ledger) Propagations() int { return l.propagations }

// Reset drops all pending corruption but keeps history and the block
// storage. Used when a failed factorization restarts from the pristine
// input (the paper's "redo the whole decomposition" recovery).
func (l *Ledger) Reset() {
	if l.corrupt == 0 {
		return
	}
	for i := range l.pending {
		l.pending[i] = l.pending[i][:0]
	}
	l.corrupt = 0
}

// Reuse empties the ledger for a new run, as NewLedger would, but
// keeps the block grid and each block's pending capacity. History is
// dropped, not truncated: a slice History returned before stays its
// holder's and is never written again.
func (l *Ledger) Reuse() {
	l.Reset()
	l.propagations = 0
	l.history = nil
}
