package workunit

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/costmodel"
	"repro/internal/protein"
)

func smallPlan(t testing.TB, h float64) (*protein.Dataset, *Plan) {
	t.Helper()
	ds := protein.Generate(10, 42)
	m := costmodel.Synthesize(ds, costmodel.SynthesizeOptions{Seed: 7})
	return ds, NewPlan(ds, m, h)
}

func TestSliceCoupleRules(t *testing.T) {
	// q <= 1 → 1
	if got := SliceCouple(3600, 7200, 100); got != 1 {
		t.Fatalf("slow couple: nsep = %d, want 1", got)
	}
	// q >= Nsep → Nsep
	if got := SliceCouple(3600*100, 1, 50); got != 50 {
		t.Fatalf("fast couple: nsep = %d, want 50", got)
	}
	// middle: floor(h/ct)
	if got := SliceCouple(36000, 671, 5000); got != 53 {
		t.Fatalf("typical couple: nsep = %d, want 53", got)
	}
}

func TestSliceCouplePanics(t *testing.T) {
	for i, f := range []func(){
		func() { SliceCouple(0, 1, 1) },
		func() { SliceCouple(1, 0, 1) },
		func() { SliceCouple(1, 1, 0) },
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

func TestCoupleCount(t *testing.T) {
	cases := []struct{ total, nsep, want int }{
		{100, 10, 10}, {101, 10, 11}, {9, 10, 1}, {10, 10, 1}, {1, 1, 1},
	}
	for _, c := range cases {
		if got := CoupleCount(c.total, c.nsep); got != c.want {
			t.Errorf("CoupleCount(%d,%d) = %d, want %d", c.total, c.nsep, got, c.want)
		}
	}
}

// TestConservation: for every couple, the union of its workunits covers
// [1, Nsep] exactly once — no gaps, no overlaps.
func TestConservation(t *testing.T) {
	ds, plan := smallPlan(t, 10)
	covered := make(map[[2]int][]bool)
	plan.ForEach(func(w Workunit) bool {
		key := [2]int{w.Receptor, w.Ligand}
		if covered[key] == nil {
			covered[key] = make([]bool, ds.Proteins[w.Receptor].Nsep+1)
		}
		for i := w.ISepLo; i <= w.ISepHi; i++ {
			if covered[key][i] {
				t.Fatalf("couple %v: isep %d covered twice", key, i)
			}
			covered[key][i] = true
		}
		return true
	})
	if len(covered) != ds.Len()*ds.Len() {
		t.Fatalf("covered %d couples, want %d", len(covered), ds.Len()*ds.Len())
	}
	for key, seen := range covered {
		for i := 1; i < len(seen); i++ {
			if !seen[i] {
				t.Fatalf("couple %v: isep %d never covered", key, i)
			}
		}
	}
}

// TestConservationProperty uses testing/quick over random h values.
func TestConservationProperty(t *testing.T) {
	ds := protein.Generate(4, 3)
	m := costmodel.Synthesize(ds, costmodel.SynthesizeOptions{Seed: 9})
	f := func(hRaw uint16) bool {
		h := 0.25 + float64(hRaw%200)/10 // 0.25 .. 20.15 hours
		plan := NewPlan(ds, m, h)
		sum := make(map[[2]int]int)
		ok := true
		plan.ForEach(func(w Workunit) bool {
			if w.ISepLo < 1 || w.ISepHi > ds.Proteins[w.Receptor].Nsep || w.ISepLo > w.ISepHi {
				ok = false
				return false
			}
			sum[[2]int{w.Receptor, w.Ligand}] += w.ISepHi - w.ISepLo + 1
			return true
		})
		if !ok {
			return false
		}
		for key, got := range sum {
			if got != ds.Proteins[key[0]].Nsep {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestSummarizeMatchesForEach(t *testing.T) {
	_, plan := smallPlan(t, 6)
	sum := plan.Summarize(24, 48)
	var count int64
	var total float64
	plan.ForEach(func(w Workunit) bool {
		count++
		total += w.RefSeconds
		return true
	})
	if sum.Count != count {
		t.Fatalf("Summarize count %d, ForEach count %d", sum.Count, count)
	}
	if math.Abs(sum.TotalSeconds-total) > 1e-6*total {
		t.Fatalf("Summarize total %v, ForEach total %v", sum.TotalSeconds, total)
	}
	if got := plan.Count(); got != count {
		t.Fatalf("Count() = %d, want %d", got, count)
	}
	if int64(sum.Hist.Total()) != count {
		t.Fatalf("histogram mass %d, want %d", sum.Hist.Total(), count)
	}
}

func TestTotalWorkConserved(t *testing.T) {
	// Σ workunit durations must equal the formula-(1) total regardless of h.
	ds, _ := smallPlan(t, 1)
	m := costmodel.Synthesize(ds, costmodel.SynthesizeOptions{Seed: 7})
	want := m.TotalWork(ds)
	for _, h := range []float64{0.5, 4, 10, 100} {
		sum := NewPlan(ds, m, h).Summarize(1000, 10)
		if math.Abs(sum.TotalSeconds-want)/want > 1e-9 {
			t.Fatalf("h=%v: packaged total %v, matrix total %v", h, sum.TotalSeconds, want)
		}
	}
}

func TestSmallerHMoreWorkunits(t *testing.T) {
	_, p10 := smallPlan(t, 10)
	_, p4 := smallPlan(t, 4)
	if p4.Count() <= p10.Count() {
		t.Fatalf("h=4 gives %d WUs, h=10 gives %d; smaller h must give more", p4.Count(), p10.Count())
	}
}

func TestWorkunitDurationBounded(t *testing.T) {
	// No workunit may exceed the wanted duration unless it is a single
	// starting position (the indivisible unit).
	_, plan := smallPlan(t, 5)
	plan.ForEach(func(w Workunit) bool {
		if nsep := w.ISepHi - w.ISepLo + 1; w.RefSeconds > 5*3600 && nsep > 1 {
			t.Fatalf("workunit %d: %v s with %d positions exceeds h", w.ID, w.RefSeconds, nsep)
		}
		return true
	})
}

func TestWithCouples(t *testing.T) {
	ds, plan := smallPlan(t, 8)
	sub := plan.WithCouples([][2]int{{0, 1}, {2, 3}})
	var seen [][2]int
	sub.ForEach(func(w Workunit) bool {
		key := [2]int{w.Receptor, w.Ligand}
		if len(seen) == 0 || seen[len(seen)-1] != key {
			seen = append(seen, key)
		}
		return true
	})
	if len(seen) != 2 || seen[0] != [2]int{0, 1} || seen[1] != [2]int{2, 3} {
		t.Fatalf("couple order = %v", seen)
	}
	_ = ds
}

func TestForEachEarlyStop(t *testing.T) {
	_, plan := smallPlan(t, 10)
	n := 0
	plan.ForEach(func(w Workunit) bool {
		n++
		return n < 5
	})
	if n != 5 {
		t.Fatalf("early stop did not hold: %d", n)
	}
}

func TestIDsSequential(t *testing.T) {
	_, plan := smallPlan(t, 10)
	var next int64
	plan.ForEach(func(w Workunit) bool {
		if w.ID != next {
			t.Fatalf("ID %d, want %d", w.ID, next)
		}
		next++
		return true
	})
}

func TestNewPlanPanics(t *testing.T) {
	ds := protein.Generate(3, 1)
	m := costmodel.NewMatrix(4)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("expected size-mismatch panic")
			}
		}()
		NewPlan(ds, m, 1)
	}()
	m2 := costmodel.NewMatrix(3)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("expected bad-h panic")
			}
		}()
		NewPlan(ds, m2, 0)
	}()
}

func BenchmarkSummarizeFullHCMD(b *testing.B) {
	ds := protein.HCMD168()
	m := costmodel.SynthesizeHCMD(ds)
	plan := NewPlan(ds, m, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = plan.Summarize(14, 28)
	}
}
