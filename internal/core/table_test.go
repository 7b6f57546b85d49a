package core

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"abftchol/internal/fault"
	"abftchol/internal/hetsim"
	"abftchol/internal/mat"
)

// tableRow is one step that runs in iteration j at nb = 5: the blocks
// Enhanced checks before it (pre every iteration, gated only on the K
// gate) and the blocks it writes, which the injector ticks and Online
// checks after it. "ij" names block (i, j).
type tableRow struct {
	j                  int
	step               string
	pre, gated, writes string
}

// tableI is the paper's Table I written out for nb = 5, per variant,
// in issue order. Steps whose guard fails (the left-looking GEMM at
// j = 0, every panel step at j = 4) are absent. Quirks kept on
// purpose: the left-looking Enhanced checks (j,j) in SYRK's pre-set
// and again before the D2H transfer; the left-looking SYRK writes
// nothing at j = 0; the right-looking trailing update checks the panel
// every iteration and the trailing blocks on the gate.
var tableI = map[Variant][]tableRow{
	LeftLooking: {
		{0, "syrk", "00", "", ""},
		{0, "d2h", "00", "", ""},
		{0, "potf2", "", "", "00"},
		{0, "trsm", "00", "10 20 30 40", "10 20 30 40"},

		{1, "syrk", "10 11", "", "11"},
		{1, "d2h", "11", "", ""},
		{1, "gemm", "", "20 21 30 31 40 41", "21 31 41"},
		{1, "potf2", "", "", "11"},
		{1, "trsm", "11", "21 31 41", "21 31 41"},

		{2, "syrk", "20 21 22", "", "22"},
		{2, "d2h", "22", "", ""},
		{2, "gemm", "", "30 31 32 40 41 42", "32 42"},
		{2, "potf2", "", "", "22"},
		{2, "trsm", "22", "32 42", "32 42"},

		{3, "syrk", "30 31 32 33", "", "33"},
		{3, "d2h", "33", "", ""},
		{3, "gemm", "", "40 41 42 43", "43"},
		{3, "potf2", "", "", "33"},
		{3, "trsm", "33", "43", "43"},

		{4, "syrk", "40 41 42 43 44", "", "44"},
		{4, "d2h", "44", "", ""},
		{4, "potf2", "", "", "44"},
	},
	RightLooking: {
		{0, "d2h", "00", "", ""},
		{0, "potf2", "", "", "00"},
		{0, "trsm", "00", "10 20 30 40", "10 20 30 40"},
		{0, "trailing", "10 20 30 40", "11 21 31 41 22 32 42 33 43 44", "11 21 31 41 22 32 42 33 43 44"},

		{1, "d2h", "11", "", ""},
		{1, "potf2", "", "", "11"},
		{1, "trsm", "11", "21 31 41", "21 31 41"},
		{1, "trailing", "21 31 41", "22 32 42 33 43 44", "22 32 42 33 43 44"},

		{2, "d2h", "22", "", ""},
		{2, "potf2", "", "", "22"},
		{2, "trsm", "22", "32 42", "32 42"},
		{2, "trailing", "32 42", "33 43 44", "33 43 44"},

		{3, "d2h", "33", "", ""},
		{3, "potf2", "", "", "33"},
		{3, "trsm", "33", "43", "43"},
		{3, "trailing", "43", "44", "44"},

		{4, "d2h", "44", "", ""},
		{4, "potf2", "", "", "44"},
	},
}

// scrubSets are the blocks OnlineScrub re-checks at the top of
// iteration j (j > 0, on the K gate): every block the left-looking
// form will still read, and the lower triangle of A[j:, j:] in the
// right-looking form.
var scrubSets = map[Variant][]string{
	LeftLooking: {
		1: "10 20 30 40 11 21 31 41 22 32 42 33 43 44",
		2: "20 30 40 21 31 41 22 32 42 33 43 44",
		3: "30 40 31 41 32 42 33 43 44",
		4: "40 41 42 43 44",
	},
	RightLooking: {
		1: "11 21 31 41 22 32 42 33 43 44",
		2: "22 32 42 33 43 44",
		3: "33 43 44",
		4: "44",
	},
}

var allSchemes = []Scheme{SchemeNone, SchemeCULA, SchemeOffline, SchemeOnline, SchemeEnhanced, SchemeOnlineScrub}

// expectedLog writes out what the interpreter must issue for one
// scheme at nb = 5: "check <blocks>" per verification batch and
// "<op> <block>" per kernel tick, in order.
func expectedLog(v Variant, sch Scheme, k int) []string {
	var out []string
	online := sch == SchemeOnline || sch == SchemeOnlineScrub
	for j := 0; j < 5; j++ {
		gate := j%k == 0
		if sch == SchemeOnlineScrub && gate && j > 0 {
			out = append(out, "check "+scrubSets[v][j])
		}
		for _, r := range tableI[v] {
			if r.j != j {
				continue
			}
			if sch == SchemeEnhanced {
				blocks := strings.Fields(r.pre)
				if gate {
					blocks = append(blocks, strings.Fields(r.gated)...)
				}
				if len(blocks) > 0 {
					out = append(out, "check "+strings.Join(blocks, " "))
				}
			}
			for _, b := range strings.Fields(r.writes) {
				op := r.step
				if r.step == "trailing" {
					op = "gemm"
					if b[0] == b[1] {
						op = "syrk"
					}
				}
				out = append(out, op+" "+b)
			}
			if online && r.writes != "" {
				out = append(out, "check "+r.writes)
			}
		}
	}
	return out
}

// blockList formats blocks as "ij ij ...".
func blockList(blocks [][2]int) string {
	parts := make([]string, len(blocks))
	for i, b := range blocks {
		parts[i] = fmt.Sprintf("%d%d", b[0], b[1])
	}
	return strings.Join(parts, " ")
}

// interpretedLog runs the interpreter over p for one model-plane
// factorization at nb = 5 and records what it issues through the
// exec's tap.
func interpretedLog(t *testing.T, v Variant, p *plan, sch Scheme, k int) []string {
	t.Helper()
	o := Options{Profile: hetsim.Laptop(), N: 160, BlockSize: 32, Scheme: sch, Variant: v, K: k}
	nb, err := o.normalize()
	if err != nil {
		t.Fatal(err)
	}
	e := newExec(&o, nb)
	var log []string
	e.tap = func(op fault.Op, blocks [][2]int) {
		if op == opNone {
			log = append(log, "check "+blockList(blocks))
			return
		}
		log = append(log, strings.ToLower(op.String())+" "+blockList(blocks))
	}
	if err := e.runOnce(p); err != nil {
		t.Fatal(err)
	}
	return log
}

// tableProblems lists every way plan p breaks the verification
// discipline: a compute step without a checksum update, a write set
// that is not ticked, or any scheme at K ∈ {1, 2} whose verification
// batches and ticks differ from Table I.
func tableProblems(t *testing.T, v Variant, p *plan) []string {
	var probs []string
	for _, s := range p.steps {
		if s.op != opNone && s.update == nil {
			probs = append(probs, fmt.Sprintf("%s: compute step without a checksum update", s.name))
		}
		if s.op == opNone && s.writes != nil {
			probs = append(probs, fmt.Sprintf("%s: writes blocks it never ticks", s.name))
		}
	}
	for _, sch := range allSchemes {
		for _, k := range []int{1, 2} {
			got := interpretedLog(t, v, p, sch, k)
			want := expectedLog(v, sch, k)
			if !slices.Equal(got, want) {
				probs = append(probs, fmt.Sprintf("%s K=%d:\n got %q\nwant %q", sch, k, got, want))
			}
		}
	}
	return probs
}

// TestStepTablesMatchTableI checks both step tables, run through the
// interpreter, against Table I for every scheme: the exact blocks
// checked before and after each step, every compute step paired with
// its checksum update, and every write set ticked and Online-checked.
func TestStepTablesMatchTableI(t *testing.T) {
	for _, v := range []Variant{LeftLooking, RightLooking} {
		for _, p := range tableProblems(t, v, v.plan()) {
			t.Errorf("%s: %s", v, p)
		}
	}
}

// TestStepTableMutantsFail seeds the bugs the table test exists to
// catch into copies of the tables — a dropped post-TRSM check, a
// dropped TRSM or POTF2 checksum update, a dropped Enhanced pre-SYRK
// check, and a write set left unticked — and requires tableProblems to
// report each one.
func TestStepTableMutantsFail(t *testing.T) {
	for _, c := range []struct {
		v      Variant
		step   string
		mutate func(*step)
	}{
		{LeftLooking, "trsm", func(s *step) { s.writes = nil }},
		{RightLooking, "trsm", func(s *step) { s.writes = nil }},
		{LeftLooking, "trsm", func(s *step) { s.update = nil }},
		{RightLooking, "trsm", func(s *step) { s.update = nil }},
		{LeftLooking, "potf2", func(s *step) { s.update = nil }},
		{RightLooking, "potf2", func(s *step) { s.update = nil }},
		{LeftLooking, "syrk", func(s *step) { s.pre = nil }},
		{LeftLooking, "gemm", func(s *step) { s.op = opNone }},
		{RightLooking, "trailing", func(s *step) { s.op = opNone }},
	} {
		mut := *c.v.plan()
		mut.steps = slices.Clone(mut.steps)
		i := slices.IndexFunc(mut.steps, func(s step) bool { return s.name == c.step })
		if i < 0 {
			t.Fatalf("%s has no %s step", c.v, c.step)
		}
		c.mutate(&mut.steps[i])
		if len(tableProblems(t, c.v, &mut)) == 0 {
			t.Errorf("%s: mutated %s step passes the table check", c.v, c.step)
		}
	}
}

// TestEveryWriteTickFires checks injector coverage on the model
// plane: a computation scenario aimed at any block a compute step
// writes, at its iteration and kernel, fires exactly once, and a
// storage scenario fires at every iteration. The left-looking SYRK and
// GEMM write nothing at j = 0 (no factored column to apply yet), so a
// computation scenario aimed at them there cannot fire.
func TestEveryWriteTickFires(t *testing.T) {
	const n, b = 160, 32
	fires := func(v Variant, sc fault.Scenario) int {
		t.Helper()
		res := mustRun(t, Options{Profile: hetsim.Laptop(), N: n, BlockSize: b, Variant: v, Scenarios: []fault.Scenario{sc}})
		return len(res.Injections)
	}
	for _, v := range []Variant{LeftLooking, RightLooking} {
		p := v.plan()
		e := &exec{nb: n / b}
		targets := 0
		for j := 0; j < e.nb; j++ {
			for _, s := range p.steps {
				if s.op == opNone || (s.guard != nil && !s.guard(j, e.nb-j-1)) {
					continue
				}
				for _, blk := range s.writes(e, nil, j) {
					sc := fault.Scenario{Kind: fault.Computation, Iter: j, Op: s.tickOp(blk), BI: blk[0], BJ: blk[1], Row: 1, Col: 2, Delta: 1e5}
					if got := fires(v, sc); got != 1 {
						t.Errorf("%s: %s at j=%d block %v fired %d times, want 1", v, sc.Op, j, blk, got)
					}
					targets++
				}
			}
			st := fault.Scenario{Kind: fault.Storage, Iter: j, BI: e.nb - 1, BJ: 0, Row: 1, Col: 2, Delta: 1e5}
			if got := fires(v, st); got != 1 {
				t.Errorf("%s: storage at j=%d fired %d times, want 1", v, j, got)
			}
		}
		// nb=5: left 4 SYRK + 6 GEMM + 5 POTF2 + 10 TRSM blocks; right
		// 5 POTF2 + 10 TRSM + 20 trailing blocks.
		if want := map[Variant]int{LeftLooking: 25, RightLooking: 35}[v]; targets != want {
			t.Errorf("%s: %d tick targets, want %d", v, targets, want)
		}
	}
	for _, op := range []fault.Op{fault.OpSYRK, fault.OpGEMM} {
		sc := fault.DefaultComputation(0)
		sc.Op, sc.Delta = op, 1e5
		if got := fires(LeftLooking, sc); got != 0 {
			t.Errorf("left-looking %s at j=0 fired %d times; it writes nothing there", op, got)
		}
	}
}

// TestRightLookingScrubCorrectsLiveBlock: right-looking OnlineScrub
// checks each step's writes and re-checks the live trailing blocks on
// the K gate, so a storage error in a trailing block is corrected in
// place, on both planes. (It once checked no block at all and paid a
// restart instead.)
func TestRightLookingScrubCorrectsLiveBlock(t *testing.T) {
	const n = 256
	sc := fault.DefaultStorage(2)
	sc.BI, sc.BJ, sc.Delta = 5, 3, 1e3
	for _, data := range []*mat.Matrix{nil, mat.RandSPD(n, 12345)} {
		o := Options{Profile: hetsim.Laptop(), N: n, BlockSize: 32, K: 2, Scheme: SchemeOnlineScrub,
			Variant: RightLooking, Scenarios: []fault.Scenario{sc}, Data: data}
		res := mustRun(t, o)
		if res.Attempts != 1 || res.Corrections != 1 || res.VerifiedBlocks == 0 {
			t.Errorf("real plane %v: attempts %d, corrections %d, verified %d; want 1, 1, > 0",
				data != nil, res.Attempts, res.Corrections, res.VerifiedBlocks)
		}
		if data != nil {
			checkFactor(t, o, res)
		}
	}
}
