package protein

import (
	"math"
	"testing"
	"testing/quick"
)

func TestHCMD168Calibration(t *testing.T) {
	d := HCMD168()
	if d.Len() != BenchmarkSize {
		t.Fatalf("len = %d", d.Len())
	}
	if got := d.SumNsep(); got != TotalNsep {
		t.Fatalf("ΣNsep = %d, want %d", got, TotalNsep)
	}
	if got := d.Instances(); got != 49481544 {
		t.Fatalf("instances = %d, want 49,481,544 (§4.1)", got)
	}
	if d.MaxNsep() <= 8000 {
		t.Fatalf("max Nsep = %d, want > 8000 (Figure 2 outlier)", d.MaxNsep())
	}
	below3000 := 0
	for _, p := range d.Proteins {
		if p.Nsep < 3000 {
			below3000++
		}
		if p.Nsep < 1 {
			t.Fatalf("protein %s has Nsep %d", p.Name, p.Nsep)
		}
	}
	if frac := float64(below3000) / float64(d.Len()); frac < 0.8 {
		t.Fatalf("only %.0f%% of proteins below 3000 positions; Figure 2 wants 'most'", frac*100)
	}
}

func TestHCMD168Deterministic(t *testing.T) {
	a := HCMD168()
	b := HCMD168()
	for i := range a.Proteins {
		pa, pb := a.Proteins[i], b.Proteins[i]
		if pa.Nsep != pb.Nsep || pa.NumBeads() != pb.NumBeads() {
			t.Fatalf("protein %d differs across generations", i)
		}
		if pa.Beads()[0].Pos != pb.Beads()[0].Pos {
			t.Fatalf("bead geometry differs for protein %d", i)
		}
	}
}

func TestGenerateScaledSum(t *testing.T) {
	d := Generate(42, 7)
	want := int(math.Round(float64(TotalNsep) * 42.0 / 168.0))
	if got := d.SumNsep(); got != want {
		t.Fatalf("scaled ΣNsep = %d, want %d", got, want)
	}
}

func TestGenerateSingleProtein(t *testing.T) {
	d := Generate(1, 3)
	if d.Len() != 1 || d.Proteins[0].Nsep < 1 {
		t.Fatalf("bad single-protein dataset: %+v", d.Proteins[0])
	}
}

func TestGeneratePanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Generate(0, 1)
}

func TestProteinGeometry(t *testing.T) {
	d := Generate(8, 11)
	for _, p := range d.Proteins {
		if p.NumBeads() < 20 {
			t.Fatalf("%s has too few beads: %d", p.Name, p.NumBeads())
		}
		// Mass-centered.
		var c Vec3
		for _, b := range p.Beads() {
			c = c.Add(b.Pos)
		}
		c = c.Scale(1 / float64(p.NumBeads()))
		if c.Norm() > 1e-9 {
			t.Fatalf("%s not centered: |c| = %v", p.Name, c.Norm())
		}
		// Near-neutral.
		var q float64
		for _, b := range p.Beads() {
			q += b.Charge
		}
		if math.Abs(q) > 1e-9 {
			t.Fatalf("%s total charge %v", p.Name, q)
		}
		// Radius is the actual bounding radius.
		maxR := 0.0
		for _, b := range p.Beads() {
			if n := b.Pos.Norm(); n > maxR {
				maxR = n
			}
		}
		if math.Abs(maxR-p.Radius()) > 1e-9 {
			t.Fatalf("%s radius %v, beads extend to %v", p.Name, p.Radius(), maxR)
		}
	}
}

func TestBeadCountCorrelatesWithNsep(t *testing.T) {
	d := HCMD168()
	small, large := d.Proteins[0], d.Proteins[0]
	for _, p := range d.Proteins {
		if p.Nsep < small.Nsep {
			small = p
		}
		if p.Nsep > large.Nsep {
			large = p
		}
	}
	if large.NumBeads() <= small.NumBeads() {
		t.Fatalf("bead count does not grow with Nsep: %d beads (Nsep %d) vs %d beads (Nsep %d)",
			small.NumBeads(), small.Nsep, large.NumBeads(), large.Nsep)
	}
}

func TestSeparationPoints(t *testing.T) {
	p := Generate(4, 5).Proteins[0]
	const clearance = 5.0
	wantR := p.Radius() + clearance
	seen := make(map[Vec3]bool, p.Nsep)
	for isep := 1; isep <= p.Nsep; isep++ {
		pt := p.SeparationPoint(isep, clearance)
		if math.Abs(pt.Norm()-wantR) > 1e-9 {
			t.Fatalf("isep %d at radius %v, want %v", isep, pt.Norm(), wantR)
		}
		if seen[pt] {
			t.Fatalf("isep %d repeats an earlier starting position", isep)
		}
		seen[pt] = true
	}
}

func TestSeparationPointRange(t *testing.T) {
	p := Generate(1, 2).Proteins[0]
	for _, bad := range []int{0, -1, p.Nsep + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("expected panic for isep=%d", bad)
				}
			}()
			p.SeparationPoint(bad, 1)
		}()
	}
}

func TestVec3Ops(t *testing.T) {
	a := Vec3{1, 2, 3}
	b := Vec3{4, 5, 6}
	if a.Add(b) != (Vec3{5, 7, 9}) {
		t.Fatal("Add")
	}
	if b.Sub(a) != (Vec3{3, 3, 3}) {
		t.Fatal("Sub")
	}
	if a.Scale(2) != (Vec3{2, 4, 6}) {
		t.Fatal("Scale")
	}
	if a.Dot(b) != 32 {
		t.Fatal("Dot")
	}
	if math.Abs((Vec3{3, 4, 0}).Norm()-5) > 1e-12 {
		t.Fatal("Norm")
	}
}

func TestRotationMatrixProperties(t *testing.T) {
	f := func(a, b, g float64) bool {
		alpha := math.Mod(a, math.Pi)
		beta := math.Mod(b, math.Pi)
		gamma := math.Mod(g, math.Pi)
		m := EulerZYZ(alpha, beta, gamma)
		// Rotation matrices preserve length.
		v := Vec3{1, 2, 3}
		rv := m.Apply(v)
		if math.Abs(rv.Norm()-v.Norm()) > 1e-9 {
			return false
		}
		// m · mᵀ = I.
		id := mul(m, transpose(m))
		want := identity3()
		for i := 0; i < 3; i++ {
			for j := 0; j < 3; j++ {
				if math.Abs(id[i][j]-want[i][j]) > 1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEulerIdentity(t *testing.T) {
	m := EulerZYZ(0, 0, 0)
	id := identity3()
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if math.Abs(m[i][j]-id[i][j]) > 1e-12 {
				t.Fatalf("EulerZYZ(0,0,0) not identity: %v", m)
			}
		}
	}
}

func TestFibonacciSphere(t *testing.T) {
	for _, n := range []int{0, 1, 2, 10, 500} {
		pts := FibonacciSphere(n)
		if len(pts) != n {
			t.Fatalf("n=%d: got %d points", n, len(pts))
		}
		for _, p := range pts {
			if math.Abs(p.Norm()-1) > 1e-9 {
				t.Fatalf("n=%d: point off unit sphere: %v", n, p.Norm())
			}
		}
	}
	// Spread check: centroid of many points should be near origin.
	pts := FibonacciSphere(1000)
	var c Vec3
	for _, p := range pts {
		c = c.Add(p)
	}
	if c.Scale(1.0/1000).Norm() > 0.01 {
		t.Fatalf("points not balanced: centroid %v", c.Scale(1.0/1000))
	}
}

func TestMatrixApplyMul(t *testing.T) {
	m := EulerZYZ(0.3, 0.7, 1.1)
	n := EulerZYZ(0.2, 0.4, 0.6)
	v := Vec3{1, -2, 0.5}
	// (m·n)(v) == m(n(v))
	lhs := mul(m, n).Apply(v)
	rhs := m.Apply(n.Apply(v))
	if lhs.Sub(rhs).Norm() > 1e-9 {
		t.Fatalf("composition mismatch: %v vs %v", lhs, rhs)
	}
}

func BenchmarkHCMD168(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = HCMD168()
	}
}

// identity3 returns the 3×3 identity matrix.
func identity3() Matrix3 { return Matrix3{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}} }

// mul returns the matrix product m·n.
func mul(m, n Matrix3) Matrix3 {
	var out Matrix3
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			for k := 0; k < 3; k++ {
				out[i][j] += m[i][k] * n[k][j]
			}
		}
	}
	return out
}

// transpose returns mᵀ, the inverse of a rotation.
func transpose(m Matrix3) Matrix3 {
	var out Matrix3
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			out[i][j] = m[j][i]
		}
	}
	return out
}
