package protein

import "math"

// Vec3 is a point or vector in 3-D space, in ångströms.
type Vec3 struct {
	X, Y, Z float64
}

// Add returns v + w.
func (v Vec3) Add(w Vec3) Vec3 { return Vec3{v.X + w.X, v.Y + w.Y, v.Z + w.Z} }

// Sub returns v - w.
func (v Vec3) Sub(w Vec3) Vec3 { return Vec3{v.X - w.X, v.Y - w.Y, v.Z - w.Z} }

// Scale returns v * s.
func (v Vec3) Scale(s float64) Vec3 { return Vec3{v.X * s, v.Y * s, v.Z * s} }

// Dot returns the dot product v · w.
func (v Vec3) Dot(w Vec3) float64 { return v.X*w.X + v.Y*w.Y + v.Z*w.Z }

// Norm returns the Euclidean length of v.
func (v Vec3) Norm() float64 { return math.Sqrt(v.Dot(v)) }

// Norm2 returns the squared length of v.
func (v Vec3) Norm2() float64 { return v.Dot(v) }

// Matrix3 is a 3×3 rotation matrix in row-major order.
type Matrix3 [3][3]float64

// Apply returns m·v.
func (m Matrix3) Apply(v Vec3) Vec3 {
	return Vec3{
		m[0][0]*v.X + m[0][1]*v.Y + m[0][2]*v.Z,
		m[1][0]*v.X + m[1][1]*v.Y + m[1][2]*v.Z,
		m[2][0]*v.X + m[2][1]*v.Y + m[2][2]*v.Z,
	}
}

// EulerZYZ builds a rotation matrix from the ZYZ Euler angles (α, β, γ) in
// radians, the convention used by the MAXDo orientation grid.
func EulerZYZ(alpha, beta, gamma float64) Matrix3 {
	ca, sa := math.Cos(alpha), math.Sin(alpha)
	cb, sb := math.Cos(beta), math.Sin(beta)
	cg, sg := math.Cos(gamma), math.Sin(gamma)
	return Matrix3{
		{ca*cb*cg - sa*sg, -ca*cb*sg - sa*cg, ca * sb},
		{sa*cb*cg + ca*sg, -sa*cb*sg + ca*cg, sa * sb},
		{-sb * cg, sb * sg, cb},
	}
}

// FibonacciSphere returns n approximately evenly distributed unit vectors,
// generated by the golden-spiral construction. It is deterministic and is
// used for bead placement.
func FibonacciSphere(n int) []Vec3 {
	if n <= 0 {
		return nil
	}
	pts := make([]Vec3, n)
	for i := range pts {
		pts[i] = FibonacciPoint(i, n)
	}
	return pts
}

// FibonacciPoint returns point i (0-based) of FibonacciSphere(n) without
// building the others: one direction of the ligand starting-position grid
// or of the orientation grid.
func FibonacciPoint(i, n int) Vec3 {
	if n == 1 {
		return Vec3{0, 0, 1}
	}
	golden := math.Pi * (3 - math.Sqrt(5))
	z := 1 - 2*float64(i)/float64(n-1)
	r := math.Sqrt(math.Max(0, 1-z*z))
	th := golden * float64(i)
	return Vec3{r * math.Cos(th), r * math.Sin(th), z}
}
