package rng

import (
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverge at step %d", i)
		}
	}
}

func TestDistinctSeeds(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical values", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	child := parent.Split()
	if parent.Uint64() == child.Uint64() {
		t.Fatal("split stream mirrors parent")
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(4)
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("uniform mean %v, want ~0.5", mean)
	}
}

func TestIntnRange(t *testing.T) {
	r := New(5)
	seen := make(map[int]bool)
	for i := 0; i < 10000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 10 {
		t.Fatalf("Intn(10) covered only %d values", len(seen))
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for Intn(0)")
		}
	}()
	New(1).Intn(0)
}

func TestNormalMoments(t *testing.T) {
	r := New(8)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.Normal(10, 3)
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	std := math.Sqrt(sumSq/n - mean*mean)
	if math.Abs(mean-10) > 0.05 {
		t.Errorf("normal mean %v, want ~10", mean)
	}
	if math.Abs(std-3) > 0.05 {
		t.Errorf("normal std %v, want ~3", std)
	}
}

func TestLogNormalMedian(t *testing.T) {
	r := New(9)
	const n = 100001
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = r.LogNormal(2, 0.5)
	}
	// Median of lognormal(mu, sigma) is exp(mu).
	// Selection via counting below exp(2).
	below := 0
	for _, v := range vals {
		if v < math.Exp(2) {
			below++
		}
	}
	frac := float64(below) / n
	if math.Abs(frac-0.5) > 0.01 {
		t.Fatalf("lognormal median fraction %v, want ~0.5", frac)
	}
}

func TestExponentialMean(t *testing.T) {
	r := New(10)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.Exponential(7)
	}
	mean := sum / n
	if math.Abs(mean-7) > 0.1 {
		t.Fatalf("exponential mean %v, want ~7", mean)
	}
}

func TestShufflePreservesElements(t *testing.T) {
	r := New(17)
	s := []int{1, 2, 3, 4, 5, 6}
	sum := 0
	r.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
	for _, v := range s {
		sum += v
	}
	if sum != 21 {
		t.Fatalf("shuffle lost elements: %v", s)
	}
}

func TestBernoulliExtremes(t *testing.T) {
	r := New(18)
	for i := 0; i < 1000; i++ {
		if r.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !r.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkNormal(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.NormFloat64()
	}
}
