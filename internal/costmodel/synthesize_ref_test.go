package costmodel

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"repro/internal/protein"
	"repro/internal/rng"
)

// refModel is a verbatim copy of the one-stage Synthesize's set-up, which
// built the full matrix at every bisection step: the target and build.
func refModel(ds *protein.Dataset, opts SynthesizeOptions) (float64, func(a float64) (*Matrix, float64)) {
	n := ds.Len()
	mean := opts.MeanSeconds
	if mean <= 0 {
		mean = Table1.Mean
	}
	target := opts.TargetTotal
	if target <= 0 {
		// Scale the paper total with dataset size: work scales with
		// (number of couples) × (ΣNsep per receptor slot).
		full := float64(PaperTotalSeconds)
		scale := float64(ds.SumNsep()) / float64(protein.TotalNsep) * float64(n) / float64(protein.BenchmarkSize)
		target = full * scale
	}

	// Centered log-size.
	z := make([]float64, n)
	var zbar float64
	for i, p := range ds.Proteins {
		z[i] = math.Log(float64(p.Nsep))
		zbar += z[i]
	}
	zbar /= float64(n)
	for i := range z {
		z[i] -= zbar
	}

	// Fixed shape parameters; total log-variance targets the Table 1
	// mean/median ratio (σ² = 2·ln(671/384) ≈ 1.12).
	const (
		b      = 0.35
		sigmaW = 0.80
	)

	// Pre-draw the noise so bisection re-uses it (deterministic in seed).
	r := rng.New(opts.Seed)
	eps := make([]float64, n*n)
	for i := range eps {
		eps[i] = r.NormFloat64()
	}

	build := func(a float64) (*Matrix, float64) {
		m := NewMatrix(n)
		var sum float64
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				v := math.Exp(a*z[i] + b*z[j] + sigmaW*eps[i*n+j])
				m.ct[i*n+j] = v
				sum += v
			}
		}
		// Scale the arithmetic mean to the Table 1 value.
		c := mean * float64(n*n) / sum
		for k := range m.ct {
			m.ct[k] *= c
		}
		return m, m.TotalWork(ds)
	}
	return target, build
}

// refSynthesize is a verbatim copy of the one-stage bisection: the oracle of
// the two-stage Synthesize.
func refSynthesize(ds *protein.Dataset, opts SynthesizeOptions) *Matrix {
	target, build := refModel(ds, opts)

	// Bisect a so TotalWork hits the target. The weighted total is
	// monotonically increasing in a (more receptor-size correlation pushes
	// work toward large-Nsep rows).
	lo, hi := 0.0, 3.0
	var m *Matrix
	for iter := 0; iter < 60; iter++ {
		a := (lo + hi) / 2
		var tw float64
		m, tw = build(a)
		if math.Abs(tw-target) <= 1e-6*target {
			break
		}
		if tw < target {
			lo = a
		} else {
			hi = a
		}
	}
	return m
}

// sameBits fails unless the two matrices hold the same float64 bits.
func sameBits(t testing.TB, got, want *Matrix) {
	t.Helper()
	if got.N != want.N {
		t.Fatalf("N = %d, want %d", got.N, want.N)
	}
	for k, v := range want.Values() {
		if g := got.Values()[k]; math.Float64bits(g) != math.Float64bits(v) {
			t.Fatalf("entry (%d,%d) = %v (%#x), want %v (%#x)", k/want.N, k%want.N, g, math.Float64bits(g), v, math.Float64bits(v))
		}
	}
}

// matrixDigest is the SHA-256 of a matrix's float64 bits, little-endian in
// row-major order.
func matrixDigest(m *Matrix) string {
	h := sha256.New()
	var buf [8]byte
	for _, v := range m.Values() {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

func TestSynthesizeMatchesReferenceAtCanonicalSeeds(t *testing.T) {
	ds := protein.HCMD168()
	for _, c := range []struct {
		name        string
		opts        SynthesizeOptions
		steps       int
		sha256      string
		synthesized func() *Matrix
	}{
		{"hcmd", SynthesizeOptions{Seed: protein.DefaultSeed + 1}, 18,
			"ae91f7494d93fbb199938a2626ea523b89ddb75adb668e67ad55e65a95704d95",
			func() *Matrix { return SynthesizeHCMD(ds) }},
		{"phase-ii", SynthesizeOptions{
			Seed:        protein.DefaultSeed + 11,
			MeanSeconds: Table1.Mean * PhaseIIRatio,
			TargetTotal: PaperTotalSeconds * PhaseIIRatio,
		}, 19,
			"c65b4765fa45b23be85a197fb6ad1f034d25d3986d9e6548decd27c60e2d442f",
			func() *Matrix { return SynthesizePhaseII(ds, protein.DefaultSeed+11) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			want := refSynthesize(ds, c.opts)
			got, steps, exact := synthesize(ds, c.opts)
			sameBits(t, got, want)
			sameBits(t, c.synthesized(), want)
			if steps != c.steps || exact != 0 {
				t.Errorf("%d bisection steps, %d exact; want %d and 0", steps, exact, c.steps)
			}
			if d := matrixDigest(got); d != c.sha256 {
				t.Errorf("SHA-256 of the float64 bits %s, want %s", d, c.sha256)
			}
		})
	}
}

func TestSynthesizeMatchesReferenceAcrossDatasets(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 8, 20, 50, 168} {
		for _, dsSeed := range []uint64{1, 99} {
			ds := protein.Generate(n, dsSeed)
			uncorrelated := float64(ds.Len()*ds.SumNsep()) * 100
			for _, seed := range []uint64{0, 5, 123} {
				for _, o := range []struct {
					name string
					opts SynthesizeOptions
				}{
					{"default", SynthesizeOptions{Seed: seed}},
					{"mean", SynthesizeOptions{Seed: seed, MeanSeconds: 100}},
					{"target", SynthesizeOptions{Seed: seed, TargetTotal: uncorrelated * 6.71 * 1.4}},
					{"both", SynthesizeOptions{Seed: seed, MeanSeconds: 100, TargetTotal: uncorrelated * 1.4}},
				} {
					t.Run(fmt.Sprintf("n%d/ds%d/seed%d/%s", n, dsSeed, seed, o.name), func(t *testing.T) {
						got, _, exact := synthesize(ds, o.opts)
						sameBits(t, got, refSynthesize(ds, o.opts))
						if exact != 0 {
							t.Errorf("%d steps took the exact path", exact)
						}
					})
				}
			}
		}
	}
}

// TestSynthesizeUnreachableTargetRunsEveryStep sets targets no a in [0, 3]
// reaches, so both bisections run all 60 steps.
func TestSynthesizeUnreachableTargetRunsEveryStep(t *testing.T) {
	ds := protein.Generate(20, 4)
	for _, target := range []float64{1, 1e30} {
		opts := SynthesizeOptions{Seed: 8, TargetTotal: target}
		got, steps, exact := synthesize(ds, opts)
		sameBits(t, got, refSynthesize(ds, opts))
		if steps != 60 || exact != 0 {
			t.Errorf("target %g: %d steps, %d exact; want 60 and 0", target, steps, exact)
		}
	}
}

// TestSynthesizeBandTakesExactPath puts the first step's total inside the
// margin around the stop threshold: the target is the reference's exact
// total at a = 1.5 scaled by 1 ± 1e-6. The step must call build and the
// result must still match.
func TestSynthesizeBandTakesExactPath(t *testing.T) {
	for _, c := range []struct {
		n    int
		seed uint64
	}{{168, protein.DefaultSeed}, {12, 3}} {
		ds := protein.Generate(c.n, c.seed)
		_, build := refModel(ds, SynthesizeOptions{Seed: 2})
		_, atHalf := build(1.5)
		for _, scale := range []float64{1 + 1e-6, 1 - 1e-6} {
			opts := SynthesizeOptions{Seed: 2, TargetTotal: atHalf * scale}
			got, steps, exact := synthesize(ds, opts)
			sameBits(t, got, refSynthesize(ds, opts))
			if exact == 0 {
				t.Errorf("n=%d scale %v: no step took the exact path (%d steps)", c.n, scale, steps)
			}
			if scale > 1 && steps != 1 {
				t.Errorf("n=%d scale %v: %d steps, want 1 (a = 1.5 is within 1e-6)", c.n, scale, steps)
			}
		}
	}
}

// TestMarginCoversRoundingBound checks Synthesize's margin against the
// rounding bound its doc comment derives, E = 2(n² + 6n + 10X + 32)·2⁻⁵³, at
// the largest exponent bound X = 200 the fast stage accepts: δ ≥ 10·E.
func TestMarginCoversRoundingBound(t *testing.T) {
	const u = 0x1p-53
	for n := 1; n <= 1<<16; n = n*5/4 + 1 {
		nf := float64(n)
		bound := 2 * (nf*nf + 6*nf + 10*200 + 32) * u
		if d := calibrationMargin(n); d < 10*bound {
			t.Fatalf("n=%d: margin %g < 10 × bound %g", n, d, bound)
		}
	}
	if d := calibrationMargin(protein.BenchmarkSize); d != 1e-9 {
		t.Fatalf("margin at the benchmark's size = %g, want 1e-9", d)
	}
}

// FuzzSynthesize compares Synthesize with the one-stage reference bit for
// bit over datasets of up to 40 proteins, both seeds and multipliers of the
// default mean and target.
func FuzzSynthesize(f *testing.F) {
	f.Add(uint8(11), uint64(99), uint64(5), 1.0, 1.0)
	f.Add(uint8(0), uint64(3), uint64(0), 1.0, 1.0)
	f.Add(uint8(39), uint64(7), uint64(123), 0.149, 1.4)
	f.Add(uint8(7), uint64(1), uint64(2), 1.0, 1e-3)
	f.Add(uint8(20), uint64(4), uint64(8), 1e6, 1e6)
	f.Add(uint8(2), uint64(0), uint64(0), -1.0, math.Inf(1))
	f.Fuzz(func(t *testing.T, size uint8, dsSeed, seed uint64, meanMul, targetMul float64) {
		ds := protein.Generate(1+int(size)%40, dsSeed)
		n := float64(ds.Len())
		target := float64(PaperTotalSeconds) * float64(ds.SumNsep()) / float64(protein.TotalNsep) * n / float64(protein.BenchmarkSize)
		opts := SynthesizeOptions{Seed: seed, MeanSeconds: Table1.Mean * meanMul, TargetTotal: target * targetMul}
		got, _, _ := synthesize(ds, opts)
		sameBits(t, got, refSynthesize(ds, opts))
	})
}
