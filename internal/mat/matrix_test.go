package mat

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewZeroed(t *testing.T) {
	m := New(3, 4)
	if m.Rows != 3 || m.Cols != 4 || m.Stride != 3 {
		t.Fatalf("bad shape: %+v", m)
	}
	for j := 0; j < 4; j++ {
		for i := 0; i < 3; i++ {
			if m.At(i, j) != 0 {
				t.Fatalf("element (%d,%d) not zero", i, j)
			}
		}
	}
}

func TestSetAtRoundTrip(t *testing.T) {
	m := New(5, 5)
	m.Set(2, 3, 7.5)
	if got := m.At(2, 3); got != 7.5 {
		t.Fatalf("At(2,3) = %g, want 7.5", got)
	}
	m.Add(2, 3, 0.5)
	if got := m.At(2, 3); got != 8 {
		t.Fatalf("after Add, At(2,3) = %g, want 8", got)
	}
}

func TestColumnMajorLayout(t *testing.T) {
	m := New(2, 3)
	m.Set(1, 2, 42)
	if m.Data[1+2*2] != 42 {
		t.Fatal("element (1,2) not at Data[1+2*stride]")
	}
}

func TestViewAliasing(t *testing.T) {
	m := New(6, 6)
	v := m.View(2, 3, 2, 2)
	v.Set(0, 0, 9)
	if m.At(2, 3) != 9 {
		t.Fatal("view write did not reach parent")
	}
	if v.Stride != 6 {
		t.Fatalf("view stride = %d, want parent stride 6", v.Stride)
	}
}

func TestViewOfView(t *testing.T) {
	m := New(8, 8)
	m.Set(5, 6, 3)
	v := m.View(4, 4, 4, 4).View(1, 2, 2, 2)
	if v.At(0, 0) != 3 {
		t.Fatal("nested view misaligned")
	}
}

func TestViewBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range view")
		}
	}()
	New(4, 4).View(2, 2, 3, 3)
}

func TestAtBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range At")
		}
	}()
	New(2, 2).At(2, 0)
}

func TestCloneIndependence(t *testing.T) {
	m := RandGeneral(4, 4, 1)
	c := m.Clone()
	c.Set(0, 0, 999)
	if m.At(0, 0) == 999 {
		t.Fatal("clone aliases original")
	}
	if c.Stride != 4 {
		t.Fatalf("clone stride = %d, want tight", c.Stride)
	}
}

func TestCopyFromRespectsViews(t *testing.T) {
	m := New(6, 6)
	m.Fill(1)
	src := New(2, 2)
	src.Fill(5)
	m.View(2, 2, 2, 2).CopyFrom(src)
	if m.At(2, 2) != 5 || m.At(3, 3) != 5 {
		t.Fatal("copy into view failed")
	}
	if m.At(1, 2) != 1 || m.At(4, 2) != 1 {
		t.Fatal("copy leaked outside view")
	}
}

func TestZeroRespectsViews(t *testing.T) {
	m := New(4, 4)
	m.Fill(2)
	m.View(1, 1, 2, 2).Zero()
	if m.At(1, 1) != 0 || m.At(2, 2) != 0 {
		t.Fatal("view not zeroed")
	}
	if m.At(0, 0) != 2 || m.At(3, 3) != 2 {
		t.Fatal("zero leaked outside view")
	}
}

func TestEye(t *testing.T) {
	e := Eye(3)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if e.At(i, j) != want {
				t.Fatalf("Eye(3)[%d,%d] = %g", i, j, e.At(i, j))
			}
		}
	}
}

func TestTranspose(t *testing.T) {
	m := RandGeneral(3, 5, 2)
	mt := m.Transpose()
	if mt.Rows != 5 || mt.Cols != 3 {
		t.Fatalf("transpose shape %dx%d", mt.Rows, mt.Cols)
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 5; j++ {
			if m.At(i, j) != mt.At(j, i) {
				t.Fatal("transpose element mismatch")
			}
		}
	}
}

func TestTransposeInvolution(t *testing.T) {
	f := func(seed int64) bool {
		m := RandGeneral(4, 7, seed)
		return Equal(m, m.Transpose().Transpose(), 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLowerFromFull(t *testing.T) {
	m := RandGeneral(4, 4, 3)
	saved := m.Clone()
	m.LowerFromFull()
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if i >= j {
				if m.At(i, j) != saved.At(i, j) {
					t.Fatal("lower triangle modified")
				}
			} else if m.At(i, j) != 0 {
				t.Fatal("upper triangle not cleared")
			}
		}
	}
}

func TestEqualAndMaxAbsDiff(t *testing.T) {
	a := RandGeneral(3, 3, 4)
	b := a.Clone()
	if !Equal(a, b, 0) {
		t.Fatal("clone not equal")
	}
	b.Add(1, 2, 1e-7)
	if Equal(a, b, 1e-9) {
		t.Fatal("Equal ignored difference above tol")
	}
	if !Equal(a, b, 1e-6) {
		t.Fatal("Equal rejected difference below tol")
	}
	if d := MaxAbsDiff(a, b); math.Abs(d-1e-7) > 1e-12 {
		t.Fatalf("MaxAbsDiff = %g, want 1e-7", d)
	}
}

func TestEqualShapeMismatch(t *testing.T) {
	if Equal(New(2, 2), New(2, 3), 1) {
		t.Fatal("Equal accepted different shapes")
	}
}

func TestRandSPDIsSymmetricPD(t *testing.T) {
	m := RandSPD(16, 7)
	for i := 0; i < 16; i++ {
		for j := 0; j < 16; j++ {
			if m.At(i, j) != m.At(j, i) {
				t.Fatal("RandSPD not symmetric")
			}
		}
		if m.At(i, i) <= 0 {
			t.Fatal("RandSPD non-positive diagonal")
		}
	}
	// Positive definite: all leading principal minors positive, checked
	// via a simple unblocked factorization inline.
	c := m.Clone()
	for j := 0; j < 16; j++ {
		d := c.At(j, j)
		for k := 0; k < j; k++ {
			d -= c.At(j, k) * c.At(j, k)
		}
		if d <= 0 {
			t.Fatalf("RandSPD not PD at pivot %d", j)
		}
		d = math.Sqrt(d)
		c.Set(j, j, d)
		for i := j + 1; i < 16; i++ {
			s := c.At(i, j)
			for k := 0; k < j; k++ {
				s -= c.At(i, k) * c.At(j, k)
			}
			c.Set(i, j, s/d)
		}
	}
}

func TestRandSPDDeterministic(t *testing.T) {
	a := RandSPD(8, 42)
	b := RandSPD(8, 42)
	if !Equal(a, b, 0) {
		t.Fatal("RandSPD not deterministic for equal seeds")
	}
	c := RandSPD(8, 43)
	if Equal(a, c, 0) {
		t.Fatal("RandSPD identical across different seeds")
	}
}

func TestDiagDominantSPDSymmetric(t *testing.T) {
	m := DiagDominantSPD(10, 5)
	for i := 0; i < 10; i++ {
		for j := 0; j < 10; j++ {
			if m.At(i, j) != m.At(j, i) {
				t.Fatal("not symmetric")
			}
		}
		if m.At(i, i) != 20 {
			t.Fatalf("diagonal = %g, want 20", m.At(i, i))
		}
	}
}

func TestNorms(t *testing.T) {
	m := FromSlice(2, 2, []float64{1, -3, 2, 4}) // cols: (1,-3), (2,4)
	// rows: (1,2) and (-3,4); inf norm = max(3, 7) = 7
	if got := m.NormInf(); got != 7 {
		t.Fatalf("NormInf = %g, want 7", got)
	}
	if got := m.NormMax(); got != 4 {
		t.Fatalf("NormMax = %g, want 4", got)
	}
	want := math.Sqrt(1 + 9 + 4 + 16)
	if got := m.NormFro(); math.Abs(got-want) > 1e-15 {
		t.Fatalf("NormFro = %g, want %g", got, want)
	}
}

func TestNormFroScaling(t *testing.T) {
	f := func(seed int64) bool {
		m := RandGeneral(5, 5, seed)
		n1 := m.NormFro()
		for j := 0; j < 5; j++ {
			col := m.Col(j)
			for i := range col {
				col[i] *= 2
			}
		}
		return math.Abs(m.NormFro()-2*n1) < 1e-12*(1+n1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCholeskyResidualPerfectFactor(t *testing.T) {
	// L lower triangular, A = L*Lᵀ must give ~zero residual.
	n := 8
	l := New(n, n)
	for j := 0; j < n; j++ {
		for i := j; i < n; i++ {
			l.Set(i, j, float64(i+j+1)/float64(n))
		}
		l.Add(j, j, 2)
	}
	a := New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for k := 0; k <= min(i, j); k++ {
				s += l.At(i, k) * l.At(j, k)
			}
			a.Set(i, j, s)
		}
	}
	if r := CholeskyResidual(a, l); r > 1e-14 {
		t.Fatalf("residual %g for exact factor", r)
	}
	// Corrupt one factor entry: residual must blow up.
	l.Add(n-1, 0, 1.0)
	if r := CholeskyResidual(a, l); r < 1e-6 {
		t.Fatalf("residual %g did not detect corruption", r)
	}
}

func TestStringSmallAndLarge(t *testing.T) {
	small := New(2, 2)
	if s := small.String(); len(s) == 0 {
		t.Fatal("empty render")
	}
	big := New(100, 100)
	if s := big.String(); s != "Matrix{100x100}" {
		t.Fatalf("large matrix render = %q", s)
	}
}

func TestFromSliceTooShort(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FromSlice(3, 3, make([]float64, 8))
}

func TestRandVectorDeterministic(t *testing.T) {
	a := RandVector(10, 9)
	b := RandVector(10, 9)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("RandVector not deterministic")
		}
		if a[i] < -1 || a[i] > 1 {
			t.Fatal("RandVector out of range")
		}
	}
}

// randSPDByDots is RandSPD's earlier loop, one At-based dot product per
// lower-triangle element: the bit reference for the column-order one.
func randSPDByDots(n int, seed int64) *Matrix {
	g := RandGeneral(n, n, seed)
	m := New(n, n)
	for j := 0; j < n; j++ {
		for i := j; i < n; i++ {
			s := 0.0
			for k := 0; k < n; k++ {
				s += g.At(i, k) * g.At(j, k)
			}
			m.Set(i, j, s)
			m.Set(j, i, s)
		}
	}
	for i := 0; i < n; i++ {
		m.Add(i, i, float64(n))
	}
	return m
}

func TestRandSPDMatchesDotLoop(t *testing.T) {
	for _, n := range []int{1, 2, 7, 64, 129} {
		got, want := RandSPD(n, int64(n)), randSPDByDots(n, int64(n))
		for i, v := range got.Data {
			if math.Float64bits(v) != math.Float64bits(want.Data[i]) {
				t.Fatalf("n=%d: element %d is %v, the dot loop gives %v", n, i, v, want.Data[i])
			}
		}
	}
}

func TestCloneCopiesViewsAndTightMatrices(t *testing.T) {
	m := RandGeneral(9, 7, 2)
	for _, v := range []*Matrix{m, m.View(0, 2, 9, 3), m.View(1, 1, 5, 4), m.View(0, 0, 0, 3), New(0, 0)} {
		c := v.Clone()
		if c.Rows != v.Rows || c.Cols != v.Cols || c.Stride != v.Rows || len(c.Data) != v.Rows*v.Cols {
			t.Fatalf("clone of %dx%d (stride %d) is %dx%d, stride %d, %d elements", v.Rows, v.Cols, v.Stride, c.Rows, c.Cols, c.Stride, len(c.Data))
		}
		if MaxAbsDiff(c, v) != 0 {
			t.Fatalf("clone of %dx%d differs from its source", v.Rows, v.Cols)
		}
	}
}
