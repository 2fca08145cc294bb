// Package stats provides the descriptive statistics, histograms, linear
// regression and time-series accumulation used throughout the HCMD
// reproduction: Table 1 summary statistics of the cost matrix, the linearity
// checks of Figure 3, the workunit histograms of Figures 4 and 8 and the
// weekly VFTP series of Figures 1 and 6.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary holds descriptive statistics of a sample.
type Summary struct {
	N      int
	Mean   float64
	Std    float64 // population standard deviation, as the paper reports
	Min    float64
	Max    float64
	Median float64
	Sum    float64
}

// Summarize computes descriptive statistics of vals. It returns a zero
// Summary for an empty input.
func Summarize(vals []float64) Summary {
	if len(vals) == 0 {
		return Summary{}
	}
	s := Summary{N: len(vals), Min: math.Inf(1), Max: math.Inf(-1)}
	for _, v := range vals {
		s.Sum += v
		if v < s.Min {
			s.Min = v
		}
		if v > s.Max {
			s.Max = v
		}
	}
	s.Mean = s.Sum / float64(s.N)
	var ss float64
	for _, v := range vals {
		d := v - s.Mean
		ss += d * d
	}
	s.Std = math.Sqrt(ss / float64(s.N))
	s.Median = Quantile(vals, 0.5)
	return s
}

// Quantile returns the q-quantile (0 <= q <= 1) of vals using linear
// interpolation between order statistics. The input is not modified (it is
// copied and sorted; callers that already hold a sorted sample should use
// QuantileSorted, which does not allocate).
func Quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	sorted := make([]float64, len(vals))
	copy(sorted, vals)
	sort.Float64s(sorted)
	return QuantileSorted(sorted, q)
}

// QuantileSorted returns the q-quantile of an ascending-sorted sample
// without copying or allocating.
func QuantileSorted(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Mean returns the arithmetic mean of vals, or NaN for empty input.
func Mean(vals []float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, v := range vals {
		sum += v
	}
	return sum / float64(len(vals))
}

// Sum returns the sum of vals.
func Sum(vals []float64) float64 {
	var s float64
	for _, v := range vals {
		s += v
	}
	return s
}

// Pearson returns the Pearson correlation coefficient of the paired samples
// x and y. It panics if the lengths differ and returns NaN if either sample
// has zero variance or fewer than two points.
func Pearson(x, y []float64) float64 {
	if len(x) != len(y) {
		panic("stats: Pearson length mismatch")
	}
	n := float64(len(x))
	if n < 2 {
		return math.NaN()
	}
	mx, my := Mean(x), Mean(y)
	var sxy, sxx, syy float64
	for i := range x {
		dx := x[i] - mx
		dy := y[i] - my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return math.NaN()
	}
	return sxy / math.Sqrt(sxx*syy)
}

// LinearFit is the result of an ordinary least-squares fit y = A*x + B.
type LinearFit struct {
	A, B float64 // slope and intercept
	R2   float64 // coefficient of determination
}

// FitLine fits y = A*x + B by ordinary least squares. It panics on length
// mismatch and requires at least two points.
func FitLine(x, y []float64) LinearFit {
	if len(x) != len(y) {
		panic("stats: FitLine length mismatch")
	}
	if len(x) < 2 {
		panic("stats: FitLine needs at least two points")
	}
	mx, my := Mean(x), Mean(y)
	var sxy, sxx float64
	for i := range x {
		dx := x[i] - mx
		sxy += dx * (y[i] - my)
		sxx += dx * dx
	}
	if sxx == 0 {
		panic("stats: FitLine with constant x")
	}
	a := sxy / sxx
	b := my - a*mx
	var ssRes, ssTot float64
	for i := range x {
		res := y[i] - (a*x[i] + b)
		ssRes += res * res
		d := y[i] - my
		ssTot += d * d
	}
	r2 := 1.0
	if ssTot > 0 {
		r2 = 1 - ssRes/ssTot
	}
	return LinearFit{A: a, B: b, R2: r2}
}

// Histogram is a fixed-width-bin histogram over [Lo, Hi). Values outside the
// range are counted in Under/Over.
type Histogram struct {
	Lo, Hi float64
	Bins   []int
	Under  int
	Over   int
	total  int
}

// NewHistogram creates a histogram with nbins equal-width bins over [lo, hi).
// It panics if nbins <= 0 or hi <= lo.
func NewHistogram(lo, hi float64, nbins int) *Histogram {
	if nbins <= 0 {
		panic("stats: histogram needs at least one bin")
	}
	if hi <= lo {
		panic("stats: histogram range empty")
	}
	return &Histogram{Lo: lo, Hi: hi, Bins: make([]int, nbins)}
}

// Reset empties the histogram for reuse, keeping the bin buffer: the
// preallocated-accumulator path for pooled run contexts that record the
// same distribution run after run.
func (h *Histogram) Reset() {
	clear(h.Bins)
	h.Under, h.Over, h.total = 0, 0, 0
}

// Add records one observation.
func (h *Histogram) Add(v float64) {
	h.total++
	if v < h.Lo {
		h.Under++
		return
	}
	if v >= h.Hi {
		h.Over++
		return
	}
	idx := int(float64(len(h.Bins)) * (v - h.Lo) / (h.Hi - h.Lo))
	if idx >= len(h.Bins) { // guard against floating-point edge
		idx = len(h.Bins) - 1
	}
	h.Bins[idx]++
}

// AddN records n identical observations.
func (h *Histogram) AddN(v float64, n int) {
	for i := 0; i < n; i++ {
		h.Add(v)
	}
}

// Total returns the number of observations recorded (including out of range).
func (h *Histogram) Total() int { return h.total }

// BinLow returns the lower edge of bin i.
func (h *Histogram) BinLow(i int) float64 {
	w := (h.Hi - h.Lo) / float64(len(h.Bins))
	return h.Lo + float64(i)*w
}

// MaxBin returns the index of the fullest bin.
func (h *Histogram) MaxBin() int {
	best := 0
	for i, c := range h.Bins {
		if c > h.Bins[best] {
			best = i
		}
	}
	return best
}

// String renders a compact ASCII view of the histogram, useful in logs and
// example programs.
func (h *Histogram) String() string {
	const width = 40
	maxCount := 0
	for _, c := range h.Bins {
		if c > maxCount {
			maxCount = c
		}
	}
	out := ""
	for i, c := range h.Bins {
		bar := 0
		if maxCount > 0 {
			bar = c * width / maxCount
		}
		out += fmt.Sprintf("%12.1f |%-*s| %d\n", h.BinLow(i), width, repeat('#', bar), c)
	}
	if h.Under > 0 {
		out += fmt.Sprintf("   underflow: %d\n", h.Under)
	}
	if h.Over > 0 {
		out += fmt.Sprintf("    overflow: %d\n", h.Over)
	}
	return out
}

func repeat(ch byte, n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = ch
	}
	return string(b)
}

// Series is an append-only sequence of (x, y) points, used for the figure
// time series (weekly VFTP, results per week, progression curves).
type Series struct {
	Name string
	X, Y []float64
}

// NewSeries creates a named empty series.
func NewSeries(name string) *Series { return &Series{Name: name} }

// NewSeriesCap creates a named empty series with storage preallocated for
// capacity points: the ring-buffer backing used by the obs metrics
// registry, which needs Add to stay allocation-free up to the cap.
func NewSeriesCap(name string, capacity int) *Series {
	return &Series{
		Name: name,
		X:    make([]float64, 0, capacity),
		Y:    make([]float64, 0, capacity),
	}
}

// Add appends a point.
func (s *Series) Add(x, y float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
}

// Reset empties the series for reuse, keeping the backing arrays.
func (s *Series) Reset() {
	s.X = s.X[:0]
	s.Y = s.Y[:0]
}

// Len returns the number of points.
func (s *Series) Len() int { return len(s.X) }

// YMean returns the mean of the Y values, or NaN if empty.
func (s *Series) YMean() float64 { return Mean(s.Y) }

// YMax returns the maximum Y value, or -Inf if empty.
func (s *Series) YMax() float64 {
	m := math.Inf(-1)
	for _, v := range s.Y {
		if v > m {
			m = v
		}
	}
	return m
}

// Window returns a sub-series restricted to x in [lo, hi].
func (s *Series) Window(lo, hi float64) *Series {
	out := NewSeries(s.Name)
	for i, x := range s.X {
		if x >= lo && x <= hi {
			out.Add(x, s.Y[i])
		}
	}
	return out
}

// TopShare reports the smallest number of values whose sum reaches the given
// share (0..1) of the total, and the share actually covered. The paper uses
// this to state that "10 proteins represent 30% of the total processing
// time".
func TopShare(vals []float64, share float64) (count int, covered float64) {
	if len(vals) == 0 || share <= 0 {
		return 0, 0
	}
	sorted := make([]float64, len(vals))
	copy(sorted, vals)
	sort.Sort(sort.Reverse(sort.Float64Slice(sorted)))
	total := Sum(sorted)
	if total <= 0 {
		return 0, 0
	}
	var cum float64
	for i, v := range sorted {
		cum += v
		if cum >= share*total {
			return i + 1, cum / total
		}
	}
	return len(sorted), 1
}

// KolmogorovSmirnov returns the two-sample KS statistic: the maximum
// distance between the empirical CDFs of a and b. Used by the calibration
// tests to quantify how close the synthesized cost matrix is to its target
// distribution (0 = identical, 1 = disjoint).
func KolmogorovSmirnov(a, b []float64) float64 {
	if len(a) == 0 || len(b) == 0 {
		return math.NaN()
	}
	sa := make([]float64, len(a))
	copy(sa, a)
	sort.Float64s(sa)
	sb := make([]float64, len(b))
	copy(sb, b)
	sort.Float64s(sb)
	var i, j int
	var d float64
	for i < len(sa) && j < len(sb) {
		// Advance past every occurrence of the smaller value on both
		// sides, so ties move the two empirical CDFs together.
		v := math.Min(sa[i], sb[j])
		for i < len(sa) && sa[i] == v {
			i++
		}
		for j < len(sb) && sb[j] == v {
			j++
		}
		fa := float64(i) / float64(len(sa))
		fb := float64(j) / float64(len(sb))
		if diff := math.Abs(fa - fb); diff > d {
			d = diff
		}
	}
	return d
}
