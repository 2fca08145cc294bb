package protein

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/rng"
)

// eagerProtein is what the eager build below returns: every field a Protein
// carried when Generate built its geometry up front.
type eagerProtein struct {
	ID     int
	Name   string
	Beads  []Bead
	Radius float64
	Nsep   int
}

// eagerGenerate is Generate as it was when it built every protein's
// geometry up front: the oracle of the lazy build.
func eagerGenerate(n int, seed uint64) []*eagerProtein {
	r := rng.New(seed)
	nseps := calibratedNsep(n, r)
	out := make([]*eagerProtein, n)
	geomRng := r.Split()
	for i := 0; i < n; i++ {
		out[i] = eagerSynthesize(i, nseps[i], geomRng.Split())
	}
	return out
}

// eagerSynthesize is a verbatim copy of the eager geometry build; only its
// return type differs.
func eagerSynthesize(id, nsep int, r *rng.Source) *eagerProtein {
	nb := 24 + nsep/40
	if nb > 260 {
		nb = 260
	}
	// Pack beads into a ball: radius grows with the cube root of count.
	const beadSpacing = 3.8 // Å, ~Cα-Cα distance
	radius := beadSpacing * math.Cbrt(float64(nb)) * 0.75
	dirs := eagerFibonacciSphere(nb)
	beads := make([]Bead, nb)
	var center Vec3
	for i := range beads {
		// Radial position: bias outward (surface-heavy packing) with jitter.
		frac := math.Cbrt(r.Float64()) // uniform in ball volume
		pos := dirs[i].Scale(radius * frac)
		pos = pos.Add(Vec3{r.Normal(0, 0.4), r.Normal(0, 0.4), r.Normal(0, 0.4)})
		charge := r.Normal(0, 0.25)
		beads[i] = Bead{Pos: pos, Radius: 1.8 + 0.6*r.Float64(), Charge: charge}
		center = center.Add(pos)
	}
	// Center on the mass center, then neutralize total charge (proteins in
	// the benchmark are near-neutral overall).
	center = center.Scale(1 / float64(nb))
	var totalQ float64
	for i := range beads {
		beads[i].Pos = beads[i].Pos.Sub(center)
		totalQ += beads[i].Charge
	}
	dq := totalQ / float64(nb)
	maxR := 0.0
	for i := range beads {
		beads[i].Charge -= dq
		if n := beads[i].Pos.Norm(); n > maxR {
			maxR = n
		}
	}
	return &eagerProtein{
		ID:     id,
		Name:   fmt.Sprintf("HCMD%03d", id+1),
		Beads:  beads,
		Radius: maxR,
		Nsep:   nsep,
	}
}

// eagerFibonacciSphere is a verbatim copy of the golden-spiral loop before
// FibonacciPoint computed one point at a time.
func eagerFibonacciSphere(n int) []Vec3 {
	if n <= 0 {
		return nil
	}
	pts := make([]Vec3, n)
	if n == 1 {
		pts[0] = Vec3{0, 0, 1}
		return pts
	}
	golden := math.Pi * (3 - math.Sqrt(5))
	for i := 0; i < n; i++ {
		z := 1 - 2*float64(i)/float64(n-1)
		r := math.Sqrt(math.Max(0, 1-z*z))
		th := golden * float64(i)
		pts[i] = Vec3{r * math.Cos(th), r * math.Sin(th), z}
	}
	return pts
}

func sameVec(a, b Vec3) bool {
	return math.Float64bits(a.X) == math.Float64bits(b.X) &&
		math.Float64bits(a.Y) == math.Float64bits(b.Y) &&
		math.Float64bits(a.Z) == math.Float64bits(b.Z)
}

// checkMatchesEager compares every field of every protein, bit for bit.
func checkMatchesEager(t *testing.T, got *Dataset, want []*eagerProtein) {
	t.Helper()
	if got.Len() != len(want) {
		t.Fatalf("%d proteins, want %d", got.Len(), len(want))
	}
	for i, p := range got.Proteins {
		w := want[i]
		if p.ID != w.ID || p.Name != w.Name || p.Nsep != w.Nsep {
			t.Fatalf("protein %d: (%d, %s, %d), want (%d, %s, %d)", i, p.ID, p.Name, p.Nsep, w.ID, w.Name, w.Nsep)
		}
		if p.NumBeads() != len(w.Beads) {
			t.Fatalf("%s: %d beads, want %d", p.Name, p.NumBeads(), len(w.Beads))
		}
		if math.Float64bits(p.Radius()) != math.Float64bits(w.Radius) {
			t.Fatalf("%s: radius %v, want %v", p.Name, p.Radius(), w.Radius)
		}
		for k, b := range p.Beads() {
			wb := w.Beads[k]
			if !sameVec(b.Pos, wb.Pos) ||
				math.Float64bits(b.Radius) != math.Float64bits(wb.Radius) ||
				math.Float64bits(b.Charge) != math.Float64bits(wb.Charge) {
				t.Fatalf("%s bead %d: %+v, want %+v", p.Name, k, b, wb)
			}
		}
	}
}

func TestLazyGeometryMatchesEager(t *testing.T) {
	checkMatchesEager(t, HCMD168(), eagerGenerate(BenchmarkSize, DefaultSeed))
	for _, c := range []struct {
		n    int
		seed uint64
	}{{1, 3}, {2, 0}, {3, 42}, {8, 11}, {12, 99}, {40, 7}, {169, 1}} {
		t.Run(fmt.Sprintf("n%d-seed%d", c.n, c.seed), func(t *testing.T) {
			checkMatchesEager(t, Generate(c.n, c.seed), eagerGenerate(c.n, c.seed))
		})
	}
}

// TestGeometryFirstReadIsConcurrent makes the first read of one dataset's
// geometry from 8 goroutines at once: every sweep worker shares a dataset.
// Run it under -race.
func TestGeometryFirstReadIsConcurrent(t *testing.T) {
	const readers = 8
	ds := Generate(24, 5)
	start := make(chan struct{})
	got := make([][]float64, readers)
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			// Half the readers walk the dataset backwards, so first reads
			// of the same protein collide from both ends.
			for k := range ds.Proteins {
				i := k
				if g%2 == 1 {
					i = len(ds.Proteins) - 1 - k
				}
				p := ds.Proteins[i]
				var sum float64
				for _, b := range p.Beads() {
					sum += b.Pos.X + b.Charge
				}
				got[g] = append(got[g], p.Radius()+sum+float64(p.NumBeads()))
			}
		}(g)
	}
	close(start)
	wg.Wait()
	checkMatchesEager(t, ds, eagerGenerate(24, 5))
	for g := 1; g < readers; g++ {
		for k := range got[0] {
			i := k
			if g%2 == 1 {
				i = len(got[0]) - 1 - k
			}
			if math.Float64bits(got[g][k]) != math.Float64bits(got[0][i]) {
				t.Fatalf("reader %d saw protein %d differently", g, i)
			}
		}
	}
}

func TestFibonacciPointMatchesSphere(t *testing.T) {
	for n := 1; n <= 3000; n++ {
		want := eagerFibonacciSphere(n)
		sphere := FibonacciSphere(n)
		for i, w := range want {
			if p := FibonacciPoint(i, n); !sameVec(p, w) {
				t.Fatalf("FibonacciPoint(%d, %d) = %+v, want %+v", i, n, p, w)
			}
			if !sameVec(sphere[i], w) {
				t.Fatalf("FibonacciSphere(%d)[%d] = %+v, want %+v", n, i, sphere[i], w)
			}
		}
	}
}
