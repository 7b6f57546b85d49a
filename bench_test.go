package abftchol

// The benchmark harness: one benchmark per table and figure of the
// paper's evaluation section (§VII), regenerating the full sweep each
// iteration and reporting the headline metric the paper draws from it,
// plus micro-benchmarks of the kernels and the real-arithmetic path.
//
// Run everything:
//
//	go test -bench=. -benchmem
//
// Paper-comparable metrics appear as custom benchmark units (e.g.
// enhanced-overhead-%, opt1-gain-pp).

import (
	"testing"

	"abftchol/internal/blas"
	"abftchol/internal/checksum"
	"abftchol/internal/core"
	"abftchol/internal/experiments"
	"abftchol/internal/hetsim"
	"abftchol/internal/mat"
)

// ---- Tables VII and VIII -------------------------------------------

// benchCapability regenerates a capability table and reports the
// paper's headline ratios: redo cost for the schemes that cannot
// correct in place.
func benchCapability(b *testing.B, prof hetsim.Profile) {
	var tb *experiments.Table
	for i := 0; i < b.N; i++ {
		tb = experiments.CapabilityTable(prof, experiments.Config{})
	}
	_ = tb
}

func BenchmarkTable7(b *testing.B) { benchCapability(b, hetsim.Tardis()) }
func BenchmarkTable8(b *testing.B) { benchCapability(b, hetsim.Bulldozer64()) }

// ---- Figures 8-17 --------------------------------------------------

func lastGap(f *experiments.Figure, a, bIdx int) float64 {
	last := len(f.Series[a].Points) - 1
	return f.Series[a].Points[last].Value - f.Series[bIdx].Points[last].Value
}

func BenchmarkFig8(b *testing.B) {
	var f *experiments.Figure
	for i := 0; i < b.N; i++ {
		f = experiments.Opt1Figure(hetsim.Tardis(), experiments.Config{})
	}
	b.ReportMetric(lastGap(f, 0, 1), "opt1-gain-pp")
}

func BenchmarkFig9(b *testing.B) {
	var f *experiments.Figure
	for i := 0; i < b.N; i++ {
		f = experiments.Opt1Figure(hetsim.Bulldozer64(), experiments.Config{})
	}
	b.ReportMetric(lastGap(f, 0, 1), "opt1-gain-pp")
}

func BenchmarkFig10(b *testing.B) {
	var f *experiments.Figure
	for i := 0; i < b.N; i++ {
		f = experiments.Opt2Figure(hetsim.Tardis(), experiments.Config{})
	}
	b.ReportMetric(lastGap(f, 0, 1), "opt2-gain-pp")
}

func BenchmarkFig11(b *testing.B) {
	var f *experiments.Figure
	for i := 0; i < b.N; i++ {
		f = experiments.Opt2Figure(hetsim.Bulldozer64(), experiments.Config{})
	}
	b.ReportMetric(lastGap(f, 0, 1), "opt2-gain-pp")
}

func BenchmarkFig12(b *testing.B) {
	var f *experiments.Figure
	for i := 0; i < b.N; i++ {
		f = experiments.Opt3Figure(hetsim.Tardis(), experiments.Config{})
	}
	b.ReportMetric(lastGap(f, 0, 2), "k1-vs-k5-pp")
}

func BenchmarkFig13(b *testing.B) {
	var f *experiments.Figure
	for i := 0; i < b.N; i++ {
		f = experiments.Opt3Figure(hetsim.Bulldozer64(), experiments.Config{})
	}
	b.ReportMetric(lastGap(f, 0, 2), "k1-vs-k5-pp")
}

func BenchmarkFig14(b *testing.B) {
	var f *experiments.Figure
	for i := 0; i < b.N; i++ {
		f = experiments.OverheadFigure(hetsim.Tardis(), experiments.Config{})
	}
	last := len(f.Series[2].Points) - 1
	b.ReportMetric(f.Series[2].Points[last].Value, "enhanced-overhead-%")
}

func BenchmarkFig15(b *testing.B) {
	var f *experiments.Figure
	for i := 0; i < b.N; i++ {
		f = experiments.OverheadFigure(hetsim.Bulldozer64(), experiments.Config{})
	}
	last := len(f.Series[2].Points) - 1
	b.ReportMetric(f.Series[2].Points[last].Value, "enhanced-overhead-%")
}

func BenchmarkFig16(b *testing.B) {
	var f *experiments.Figure
	for i := 0; i < b.N; i++ {
		f = experiments.PerformanceFigure(hetsim.Tardis(), experiments.Config{})
	}
	last := len(f.Series[4].Points) - 1
	b.ReportMetric(f.Series[4].Points[last].Value, "enhanced-GFLOPS")
	b.ReportMetric(f.Series[1].Points[last].Value, "cula-GFLOPS")
}

func BenchmarkFig17(b *testing.B) {
	var f *experiments.Figure
	for i := 0; i < b.N; i++ {
		f = experiments.PerformanceFigure(hetsim.Bulldozer64(), experiments.Config{})
	}
	last := len(f.Series[4].Points) - 1
	b.ReportMetric(f.Series[4].Points[last].Value, "enhanced-GFLOPS")
	b.ReportMetric(f.Series[1].Points[last].Value, "cula-GFLOPS")
}

// ---- extension experiments ------------------------------------------

func BenchmarkExtMultivec(b *testing.B) {
	var f *experiments.Figure
	for i := 0; i < b.N; i++ {
		f = experiments.MultiVectorFigure(hetsim.Tardis(), experiments.Config{Sizes: []int{5120, 10240, 20480}})
	}
	b.ReportMetric(lastGap(f, 1, 0), "m4-extra-pp")
}

func BenchmarkExtCoverage(b *testing.B) {
	var f *experiments.Figure
	for i := 0; i < b.N; i++ {
		f = experiments.CoverageStudy(hetsim.Tardis(), experiments.Config{CapabilityN: 5120})
	}
	last := len(f.Series[1].Points) - 1
	b.ReportMetric(f.Series[1].Points[last].Value, "k8-reads-per-error")
}

func BenchmarkExtVariant(b *testing.B) {
	var f *experiments.Figure
	for i := 0; i < b.N; i++ {
		f = experiments.VariantFigure(hetsim.Tardis(), experiments.Config{Sizes: []int{5120, 10240}})
	}
	b.ReportMetric(lastGap(f, 3, 2), "right-extra-ovh-pp")
}

// ---- single model-plane factorizations -----------------------------

func benchModelRun(b *testing.B, prof hetsim.Profile, scheme core.Scheme, n int) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		_, err := core.Run(core.Options{
			Profile: prof, N: n, Scheme: scheme,
			ConcurrentRecalc: true, Placement: core.PlaceAuto,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkModelMAGMATardis20480(b *testing.B) {
	benchModelRun(b, hetsim.Tardis(), core.SchemeNone, 20480)
}

func BenchmarkModelEnhancedTardis20480(b *testing.B) {
	benchModelRun(b, hetsim.Tardis(), core.SchemeEnhanced, 20480)
}

func BenchmarkModelEnhancedBulldozer30720(b *testing.B) {
	benchModelRun(b, hetsim.Bulldozer64(), core.SchemeEnhanced, 30720)
}

// ---- real-arithmetic factorizations --------------------------------

func benchRealRun(b *testing.B, scheme core.Scheme, n int) {
	b.Helper()
	a := mat.RandSPD(n, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := core.Run(core.Options{
			Profile: hetsim.Laptop(), N: n, Scheme: scheme,
			ConcurrentRecalc: true, Data: a,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRealMAGMA512(b *testing.B)    { benchRealRun(b, core.SchemeNone, 512) }
func BenchmarkRealOnline512(b *testing.B)   { benchRealRun(b, core.SchemeOnline, 512) }
func BenchmarkRealEnhanced512(b *testing.B) { benchRealRun(b, core.SchemeEnhanced, 512) }

// ---- kernel micro-benchmarks ---------------------------------------

func BenchmarkDgemmSerial256(b *testing.B) {
	n := 256
	x := mat.RandGeneral(n, n, 1)
	y := mat.RandGeneral(n, n, 2)
	c := mat.New(n, n)
	b.SetBytes(int64(8 * n * n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blas.Dgemm(blas.NoTrans, blas.Trans, n, n, n, -1, x.Data, n, y.Data, n, 1, c.Data, n)
	}
}

func BenchmarkDgemmParallel256(b *testing.B) {
	n := 256
	x := mat.RandGeneral(n, n, 1)
	y := mat.RandGeneral(n, n, 2)
	c := mat.New(n, n)
	b.SetBytes(int64(8 * n * n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blas.DgemmParallel(blas.NoTrans, blas.Trans, n, n, n, -1, x.Data, n, y.Data, n, 1, c.Data, n)
	}
}

func BenchmarkDpotf2Block256(b *testing.B) {
	n := 256
	src := mat.RandSPD(n, 3)
	work := mat.New(n, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		work.CopyFrom(src)
		if err := blas.Dpotf2(n, work.Data, work.Stride); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkChecksumEncodeBlock256(b *testing.B) {
	blk := mat.RandGeneral(256, 256, 4)
	chk := mat.New(2, 256)
	b.SetBytes(8 * 256 * 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		checksum.EncodeBlockInto(blk, chk)
	}
}

func BenchmarkChecksumVerifyClean256(b *testing.B) {
	blk := mat.RandGeneral(256, 256, 5)
	chk := mat.New(2, 256)
	checksum.EncodeBlockInto(blk, chk)
	scratch := mat.New(2, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := checksum.VerifyAndCorrect(blk, chk, scratch); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMultiCodeVerifyM4(b *testing.B) {
	blk := mat.RandGeneral(256, 256, 7)
	chk := mat.New(4, 256)
	checksum.EncodeBlockInto(blk, chk)
	scratch := mat.New(4, 256)
	b.SetBytes(8 * 256 * 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := checksum.VerifyAndCorrect(blk, chk, scratch); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMultiCodeDoubleCorrect(b *testing.B) {
	blk := mat.RandGeneral(256, 256, 8)
	chk := mat.New(4, 256)
	checksum.EncodeBlockInto(blk, chk)
	scratch := mat.New(4, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blk.Add(10, 50, 3)
		blk.Add(200, 50, -4)
		if _, err := checksum.VerifyAndCorrect(blk, chk, scratch); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkChecksumCorrect256(b *testing.B) {
	blk := mat.RandGeneral(256, 256, 6)
	chk := mat.New(2, 256)
	checksum.EncodeBlockInto(blk, chk)
	scratch := mat.New(2, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blk.Add(13, 77, 42)
		if _, err := checksum.VerifyAndCorrect(blk, chk, scratch); err != nil {
			b.Fatal(err)
		}
	}
}
