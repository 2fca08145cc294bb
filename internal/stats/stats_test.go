package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSummarizeBasic(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 || s.Median != 3 || s.Sum != 15 {
		t.Fatalf("unexpected summary: %+v", s)
	}
	if !almost(s.Std, math.Sqrt(2), 1e-12) {
		t.Fatalf("std = %v, want sqrt(2)", s.Std)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 || s.Sum != 0 {
		t.Fatalf("empty summary not zero: %+v", s)
	}
}

func TestSummarizeSingle(t *testing.T) {
	s := Summarize([]float64{7})
	if s.Mean != 7 || s.Std != 0 || s.Median != 7 || s.Min != 7 || s.Max != 7 {
		t.Fatalf("single-value summary wrong: %+v", s)
	}
}

func TestQuantile(t *testing.T) {
	vals := []float64{10, 20, 30, 40}
	cases := []struct{ q, want float64 }{
		{0, 10}, {1, 40}, {0.5, 25}, {0.25, 17.5},
	}
	for _, c := range cases {
		if got := Quantile(vals, c.q); !almost(got, c.want, 1e-12) {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestQuantileDoesNotMutate(t *testing.T) {
	vals := []float64{3, 1, 2}
	Quantile(vals, 0.5)
	if vals[0] != 3 || vals[1] != 1 || vals[2] != 2 {
		t.Fatal("Quantile mutated its input")
	}
}

func TestQuantileClamps(t *testing.T) {
	vals := []float64{1, 2}
	if Quantile(vals, -1) != 1 || Quantile(vals, 2) != 2 {
		t.Fatal("Quantile did not clamp q")
	}
}

func TestPearsonPerfect(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	y := []float64{2, 4, 6, 8}
	if got := Pearson(x, y); !almost(got, 1, 1e-12) {
		t.Fatalf("Pearson = %v, want 1", got)
	}
	yneg := []float64{8, 6, 4, 2}
	if got := Pearson(x, yneg); !almost(got, -1, 1e-12) {
		t.Fatalf("Pearson = %v, want -1", got)
	}
}

func TestPearsonZeroVariance(t *testing.T) {
	if !math.IsNaN(Pearson([]float64{1, 1}, []float64{2, 3})) {
		t.Fatal("expected NaN for zero-variance x")
	}
}

func TestFitLineRecoversSlope(t *testing.T) {
	r := rng.New(1)
	x := make([]float64, 100)
	y := make([]float64, 100)
	for i := range x {
		x[i] = float64(i)
		y[i] = 3.5*x[i] + 10 + r.Normal(0, 0.01)
	}
	fit := FitLine(x, y)
	if !almost(fit.A, 3.5, 0.01) || !almost(fit.B, 10, 0.1) {
		t.Fatalf("fit = %+v", fit)
	}
	if fit.R2 < 0.9999 {
		t.Fatalf("R2 = %v", fit.R2)
	}
}

func TestFitLinePanics(t *testing.T) {
	cases := []func(){
		func() { FitLine([]float64{1}, []float64{1, 2}) },
		func() { FitLine([]float64{1}, []float64{1}) },
		func() { FitLine([]float64{2, 2}, []float64{1, 3}) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}

func TestHistogramBinning(t *testing.T) {
	h := NewHistogram(0, 10, 10)
	h.Add(0)
	h.Add(0.5)
	h.Add(9.99)
	h.Add(-1)
	h.Add(10)
	if h.Bins[0] != 2 || h.Bins[9] != 1 {
		t.Fatalf("bins: %v", h.Bins)
	}
	if h.Under != 1 || h.Over != 1 {
		t.Fatalf("under/over: %d/%d", h.Under, h.Over)
	}
	if h.Total() != 5 {
		t.Fatalf("total = %d", h.Total())
	}
}

func TestHistogramMassConservation(t *testing.T) {
	r := rng.New(2)
	h := NewHistogram(0, 1, 7)
	f := func(n uint16) bool {
		h2 := NewHistogram(0, 1, 7)
		count := int(n%1000) + 1
		for i := 0; i < count; i++ {
			h2.Add(r.Normal(0.5, 0.5))
		}
		inBins := h2.Under + h2.Over
		for _, c := range h2.Bins {
			inBins += c
		}
		return inBins == h2.Total() && inBins == count
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	_ = h
}

func TestHistogramBinLow(t *testing.T) {
	h := NewHistogram(0, 10, 5)
	if !almost(h.BinLow(2), 4, 1e-12) {
		t.Fatalf("bin low wrong: %v", h.BinLow(2))
	}
}

func TestHistogramMaxBin(t *testing.T) {
	h := NewHistogram(0, 3, 3)
	h.AddN(0.5, 1)
	h.AddN(1.5, 5)
	h.AddN(2.5, 2)
	if h.MaxBin() != 1 {
		t.Fatalf("MaxBin = %d", h.MaxBin())
	}
}

func TestHistogramPanics(t *testing.T) {
	for i, f := range []func(){
		func() { NewHistogram(0, 1, 0) },
		func() { NewHistogram(1, 1, 3) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}

func TestHistogramString(t *testing.T) {
	h := NewHistogram(0, 2, 2)
	h.Add(0.5)
	h.Add(-1)
	h.Add(5)
	s := h.String()
	if s == "" {
		t.Fatal("empty render")
	}
}

func TestSeries(t *testing.T) {
	s := NewSeries("test")
	for i := 0; i < 10; i++ {
		s.Add(float64(i), float64(i*2))
	}
	if s.Len() != 10 {
		t.Fatalf("len = %d", s.Len())
	}
	if !almost(s.YMean(), 9, 1e-12) {
		t.Fatalf("mean = %v", s.YMean())
	}
	if s.YMax() != 18 {
		t.Fatalf("max = %v", s.YMax())
	}
	w := s.Window(2, 4)
	if w.Len() != 3 || w.X[0] != 2 || w.X[2] != 4 {
		t.Fatalf("window wrong: %+v", w)
	}
}

func TestTopShare(t *testing.T) {
	// One giant value dominating.
	vals := []float64{100, 1, 1, 1, 1}
	count, covered := TopShare(vals, 0.5)
	if count != 1 {
		t.Fatalf("count = %d, want 1", count)
	}
	if covered < 0.9 {
		t.Fatalf("covered = %v", covered)
	}
	// Uniform values: need half of them.
	uniform := []float64{1, 1, 1, 1}
	count, _ = TopShare(uniform, 0.5)
	if count != 2 {
		t.Fatalf("uniform count = %d, want 2", count)
	}
}

func TestTopShareEdge(t *testing.T) {
	if c, _ := TopShare(nil, 0.5); c != 0 {
		t.Fatal("empty input should give 0")
	}
	if c, _ := TopShare([]float64{1}, 0); c != 0 {
		t.Fatal("zero share should give 0")
	}
}

func TestMeanSumEdge(t *testing.T) {
	if !math.IsNaN(Mean(nil)) {
		t.Fatal("Mean(nil) should be NaN")
	}
	if Sum(nil) != 0 {
		t.Fatal("Sum(nil) should be 0")
	}
}

func BenchmarkSummarize(b *testing.B) {
	r := rng.New(1)
	vals := make([]float64, 28224) // 168^2, the cost-matrix size
	for i := range vals {
		vals[i] = r.LogNormal(6, 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Summarize(vals)
	}
}

func BenchmarkHistogramAdd(b *testing.B) {
	h := NewHistogram(0, 100, 50)
	for i := 0; i < b.N; i++ {
		h.Add(float64(i % 100))
	}
}

func TestKolmogorovSmirnovIdentical(t *testing.T) {
	a := []float64{1, 2, 3, 4, 5}
	if d := KolmogorovSmirnov(a, a); d != 0 {
		t.Fatalf("KS of identical samples = %v", d)
	}
}

func TestKolmogorovSmirnovDisjoint(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{10, 11, 12}
	if d := KolmogorovSmirnov(a, b); d != 1 {
		t.Fatalf("KS of disjoint samples = %v", d)
	}
}

func TestKolmogorovSmirnovSameDistribution(t *testing.T) {
	r := rng.New(4)
	a := make([]float64, 5000)
	b := make([]float64, 5000)
	for i := range a {
		a[i] = r.Normal(0, 1)
		b[i] = r.Normal(0, 1)
	}
	if d := KolmogorovSmirnov(a, b); d > 0.05 {
		t.Fatalf("KS of same-distribution samples = %v", d)
	}
	// Shifted distribution clearly detected.
	for i := range b {
		b[i] += 2
	}
	if d := KolmogorovSmirnov(a, b); d < 0.5 {
		t.Fatalf("KS of shifted samples = %v", d)
	}
}

func TestKolmogorovSmirnovEmpty(t *testing.T) {
	if !math.IsNaN(KolmogorovSmirnov(nil, []float64{1})) {
		t.Fatal("empty sample should give NaN")
	}
}

func TestHistogramReset(t *testing.T) {
	h := NewHistogram(0, 10, 5)
	for _, v := range []float64{-1, 0, 3, 7, 42} {
		h.Add(v)
	}
	bins := &h.Bins[0]
	h.Reset()
	if h.Total() != 0 || h.Under != 0 || h.Over != 0 {
		t.Fatalf("reset histogram kept counts: %+v", h)
	}
	for i, c := range h.Bins {
		if c != 0 {
			t.Fatalf("bin %d not zeroed: %d", i, c)
		}
	}
	if &h.Bins[0] != bins {
		t.Fatal("reset reallocated the bin buffer")
	}
	h.Add(3)
	if h.Total() != 1 {
		t.Fatal("histogram unusable after reset")
	}
}

func TestSeriesReset(t *testing.T) {
	s := NewSeries("x")
	for i := 0; i < 100; i++ {
		s.Add(float64(i), float64(i*i))
	}
	c := cap(s.X)
	s.Reset()
	if s.Len() != 0 {
		t.Fatalf("reset series has %d points", s.Len())
	}
	if cap(s.X) != c {
		t.Fatal("reset dropped the backing array")
	}
	s.Add(1, 2)
	if s.Len() != 1 || s.YMean() != 2 {
		t.Fatal("series unusable after reset")
	}
}

func TestQuantileSortedMatchesQuantile(t *testing.T) {
	r := rng.New(9)
	vals := make([]float64, 501)
	for i := range vals {
		vals[i] = r.Normal(10, 4)
	}
	sorted := make([]float64, len(vals))
	copy(sorted, vals)
	sort.Float64s(sorted)
	for _, q := range []float64{-0.5, 0, 0.25, 0.5, 0.9, 1, 2} {
		if a, b := Quantile(vals, q), QuantileSorted(sorted, q); a != b {
			t.Fatalf("q=%v: Quantile %v != QuantileSorted %v", q, a, b)
		}
	}
	if !math.IsNaN(QuantileSorted(nil, 0.5)) {
		t.Fatal("empty sorted sample should give NaN")
	}
	if n := testing.AllocsPerRun(10, func() { QuantileSorted(sorted, 0.5) }); n != 0 {
		t.Fatalf("QuantileSorted allocated %v times", n)
	}
}
