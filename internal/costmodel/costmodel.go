// Package costmodel implements the computation-time matrix Mct of §4.1 and
// the total-work accounting of formula (1).
//
// The paper obtained Mct experimentally: the MAXDo program was run for every
// couple of the 168-protein set on 640 Opteron-2GHz processors of Grid'5000
// (one day, > 73 CPU-days), giving for each couple (p1, p2) the time needed
// to compute one starting position with the full rotation sweep. Thanks to
// the linearity properties (Figure 3), that single measurement per couple is
// enough to predict the cost of any workunit slice.
//
// This package provides both routes:
//
//   - Measure: runs the real docking kernel and converts its deterministic
//     operation count into reference-processor seconds (our stand-in for the
//     "Opteron 2 GHz" of the paper). Deterministic and platform-independent.
//   - Synthesize: generates a full 168×168 matrix calibrated to the paper's
//     Table 1 statistics (mean 671 s, σ 968, min 6, max 46,347, median 384)
//     and to the formula-(1) total of 1,488 years 237 days 19:45:54, with
//     the receptor-size correlation that makes 10 proteins carry ~30 % of
//     the total processing time.
//
// Synthesize bisects the correlation a in two stages. Each step decides
// from an O(n) total built on precomputed row sums, and falls back to
// building the full matrix only when that total lies within a margin δ
// (1e-9 relative up to 168 proteins, growing with n²) of the stop
// threshold. δ is at least ten times the rounding bound between the two
// totals, about 2(n² + 6n)·2⁻⁵³ (derived on Synthesize), so every step
// decides as a full build at that step would, and the matrix, built once
// at the final midpoint, has the bits a bisection that builds the full
// matrix at each of its up to 60 steps returns.
//
// Matrix entries are in seconds on the reference processor, per starting
// position (the 21-rotation sweep included). Formula (1) in the paper is
// written as Σ Nsep(p1)·21·ct_iter(p1,p2) with ct_iter the per-rotation
// time; our entries fold the factor 21 in: Mct = 21·ct_iter.
package costmodel

import (
	"fmt"
	"math"

	"repro/internal/docking"
	"repro/internal/protein"
	"repro/internal/rng"
	"repro/internal/stats"
)

// ReferenceOpsPerSecond defines the reference processor ("Opteron 2 GHz"):
// how many bead-pair energy evaluations it performs per second. All matrix
// entries and workunit durations are expressed against this machine.
const ReferenceOpsPerSecond = 4e6

// PaperTotalSeconds is the formula-(1) total the paper reports for phase I
// on the reference processor: 1,488 years 237 days 19:45:54 (y:d:h:m:s with
// 365-day years), in seconds.
const PaperTotalSeconds = 1488*365*86400 + 237*86400 + 19*3600 + 45*60 + 54 // 46,946,115,954

// Table1 holds the paper's published statistics of the computation-time
// matrix (Table 1), in seconds.
var Table1 = stats.Summary{
	N:      protein.BenchmarkSize * protein.BenchmarkSize,
	Mean:   671,
	Std:    968.04,
	Min:    6,
	Max:    46347,
	Median: 384,
}

// Matrix is a dense N×N computation-time matrix. Entry (i, j) is the
// reference-processor time, in seconds, to compute ONE starting position
// (all 21 rotations) for receptor i and ligand j.
type Matrix struct {
	N  int
	ct []float64 // row-major
}

// NewMatrix allocates an N×N zero matrix.
func NewMatrix(n int) *Matrix {
	if n <= 0 {
		panic("costmodel: matrix size must be positive")
	}
	return &Matrix{N: n, ct: make([]float64, n*n)}
}

// At returns entry (receptor i, ligand j).
func (m *Matrix) At(i, j int) float64 {
	return m.ct[i*m.N+j]
}

// Set assigns entry (i, j).
func (m *Matrix) Set(i, j int, v float64) {
	if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
		panic(fmt.Sprintf("costmodel: invalid cost %v at (%d,%d)", v, i, j))
	}
	m.ct[i*m.N+j] = v
}

// Values returns all entries (row-major). The slice aliases the matrix.
func (m *Matrix) Values() []float64 { return m.ct }

// Stats returns the Table 1 descriptive statistics of the matrix.
func (m *Matrix) Stats() stats.Summary { return stats.Summarize(m.ct) }

// TotalWork evaluates formula (1): Σ_{p1,p2} Nsep(p1) · Mct(p1,p2), the
// total reference-processor seconds to compute the whole campaign.
func (m *Matrix) TotalWork(ds *protein.Dataset) float64 {
	if ds.Len() != m.N {
		panic("costmodel: dataset/matrix size mismatch")
	}
	var total float64
	for i, p := range ds.Proteins {
		var row float64
		for j := 0; j < m.N; j++ {
			row += m.At(i, j)
		}
		total += float64(p.Nsep) * row
	}
	return total
}

// ReceptorCost returns, for each protein as receptor, its share of the total
// work: Nsep(p1) · Σ_p2 Mct(p1,p2). The paper's launch order and the
// "10 proteins = 30 % of the time" observation both derive from this.
func (m *Matrix) ReceptorCost(ds *protein.Dataset) []float64 {
	if ds.Len() != m.N {
		panic("costmodel: dataset/matrix size mismatch")
	}
	out := make([]float64, m.N)
	for i, p := range ds.Proteins {
		var row float64
		for j := 0; j < m.N; j++ {
			row += m.At(i, j)
		}
		out[i] = float64(p.Nsep) * row
	}
	return out
}

// KernelOps returns the deterministic operation count (bead-pair energy
// evaluations) of docking one starting position with nrot rotations for the
// given couple, which is what Measure converts to seconds. The count is the
// product of bead counts, the minimization evaluation count, and the
// rotation sweep — hence the linearity in nrot and nsep of Figure 3.
func KernelOps(receptor, ligand *protein.Protein, nrot int, params docking.MinimizeParams) float64 {
	p := paramsWithDefaults(params)
	// Each minimize() iteration evaluates 12 candidate poses (6 translation
	// + 6 rotation moves) plus the initial evaluation; each evaluation costs
	// beads(receptor)·beads(ligand) pair interactions. γ-sweep multiplies.
	evalsPerStart := float64(1 + 12*p.MaxIter)
	pairs := float64(receptor.NumBeads() * ligand.NumBeads())
	return evalsPerStart * pairs * float64(p.GammaSub) * float64(nrot)
}

func paramsWithDefaults(p docking.MinimizeParams) docking.MinimizeParams {
	d := docking.DefaultMinimize
	if p.MaxIter > 0 {
		d.MaxIter = p.MaxIter
	}
	if p.GammaSub > 0 {
		d.GammaSub = p.GammaSub
	}
	return d
}

// MeasureCouple returns the reference-processor seconds to compute one
// starting position (nrot rotations) for the couple, derived from the
// kernel's deterministic operation count.
func MeasureCouple(receptor, ligand *protein.Protein, nrot int, params docking.MinimizeParams) float64 {
	return KernelOps(receptor, ligand, nrot, params) / ReferenceOpsPerSecond
}

// Measure builds the full matrix by "running" the kernel cost model for
// every couple — the Grid'5000 calibration experiment of §4.1 (168² runs).
func Measure(ds *protein.Dataset, params docking.MinimizeParams) *Matrix {
	m := NewMatrix(ds.Len())
	for i, rec := range ds.Proteins {
		for j, lig := range ds.Proteins {
			m.Set(i, j, MeasureCouple(rec, lig, protein.NRotWorkunit, params))
		}
	}
	return m
}

// SynthesizeOptions tunes the calibrated generative model.
type SynthesizeOptions struct {
	Seed uint64
	// TargetTotal is the formula-(1) total to calibrate to; 0 means
	// PaperTotalSeconds (scaled for non-full-size datasets).
	TargetTotal float64
	// MeanSeconds is the matrix arithmetic mean to calibrate to; 0 means
	// the Table 1 value of 671 s.
	MeanSeconds float64
}

// Synthesize generates a cost matrix calibrated to Table 1 and formula (1).
//
// Model: Mct(p1,p2) = C · exp(a·z(p1) + b·z(p2) + σw·ε(p1,p2)) where z(p)
// is the centered log-Nsep of the protein (size proxy), ε is standard
// normal noise, b and σw are fixed shape parameters, a controls the
// receptor-size correlation and is solved by bisection so the Nsep-weighted
// total hits the target, and C scales the arithmetic mean to 671 s.
//
// The bisection runs in two stages and returns the same bits as building
// the full matrix at every step (build, the exact path). A step needs only
// two decisions: whether TotalWork lies within 1e-6·target of the target
// (stop), and on which side of it (move lo or hi). Since the exponent
// splits by rows, e^(a·z_i) factors out of row i, and with the row sums
// C_i = Σ_j exp(b·z_j + σw·ε_ij), drawn once, the total is
//
//	tw′(a) = mean·n² · Σ_i Nsep_i·e^(a·z_i)·C_i / Σ_i e^(a·z_i)·C_i,
//
// n Exp calls a step instead of n². tw′ and build's float total tw differ
// only by rounding. With u = 2⁻⁵³, X a bound on every exponent's magnitude
// |a·z_i| + b·|z_j| + σw·|ε_ij| over a ∈ [0, 3], and math.Exp within 2 ulps
// (4u), to first order in u:
//
//   - build rounds each term by at most (3X + 4)u (three roundings of an
//     exponent of magnitude ≤ X, then Exp), its n²-term mean sum by
//     (n² − 1)u, its row and weighted sums by 2(n − 1)u, and the scale and
//     products by 4u more. The term errors reach both the numerator and
//     the denominator of its ratio, and the two add, so
//     |tw − T| ≤ (n² + 2n + 6X + 9)·u·T, T the total in exact arithmetic;
//   - tw′ rounds each w_i = e^(a·z_i)·C_i by at most (2X + 9)u + (n − 1)u,
//     each of its two outer sums by (n − 1)u, and the quotient and scale by
//     4u, so |tw′ − T| ≤ (4n + 4X + 18)·u·T.
//
// Every term is positive, so no sum cancels, and every rounding is relative
// while nothing underflows or overflows, which the fast stage checks before
// it starts: X ≤ 200 and mean and target within [2⁻⁴⁰⁰, 2⁴⁰⁰]. Hence
// |tw − tw′| ≤ E·tw′ with E = 2(n² + 6n + 10X + 32)·u, the factor 2 covering
// the second-order terms and the change of base from T to tw′.
//
// The margin is δ = 1e-9·max(1, n²/168²): at least 10·E for every n when
// X ≤ 200 (about 150·E at n = 168, where X is about 9). If |tw′ − target|
// lies outside [1e-6 − δ, 1e-6 + δ]·target, tw′ makes both decisions as tw
// would. Below the band, tw′ < 2·target, so |tw − tw′| < 2E·target < δ·target
// and tw is inside the stop threshold too. Above it, either tw′ ≤ 2·target,
// and then tw lies more than 1e-6·target from the target on tw′'s side, or
// tw′ > 2·target and tw ≥ (1 − E)·tw′ is far above it. Inside the band, when
// tw′ is not finite or when the checks fail, the step calls build and
// decides from tw exactly as the one-stage bisection did. The matrix
// returned is always build of the final midpoint, whether the loop stopped
// at the threshold or ran its 60 steps.
func Synthesize(ds *protein.Dataset, opts SynthesizeOptions) *Matrix {
	m, _, _ := synthesize(ds, opts)
	return m
}

// synthesize is Synthesize, also returning how many bisection steps ran and
// how many of them called build.
func synthesize(ds *protein.Dataset, opts SynthesizeOptions) (m *Matrix, steps, exact int) {
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

	// build fills m with the matrix at a and returns its TotalWork.
	m = NewMatrix(n)
	build := func(a float64) float64 {
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
		return m.TotalWork(ds)
	}

	// The row sums C_i, and the bound X on every exponent's magnitude.
	rows := make([]float64, n)
	var zmax, emax float64
	for _, v := range z {
		zmax = max(zmax, math.Abs(v))
	}
	for i := range rows {
		var c float64
		for j, e := range eps[i*n : (i+1)*n] {
			c += math.Exp(b*z[j] + sigmaW*e)
			emax = max(emax, math.Abs(e))
		}
		rows[i] = c
	}
	fast := (3+b)*zmax+sigmaW*emax <= 200 && inCalibrationRange(mean) && inCalibrationRange(target)
	delta := calibrationMargin(n)
	// decided returns tw′(a) and whether it makes both of the step's
	// decisions as build's total would.
	decided := func(a float64) (float64, bool) {
		if !fast {
			return 0, false
		}
		var num, den float64
		for i, p := range ds.Proteins {
			w := math.Exp(a*z[i]) * rows[i]
			num += float64(p.Nsep) * w
			den += w
		}
		tw := mean * float64(n*n) * (num / den)
		d := math.Abs(tw - target)
		return tw, !math.IsInf(tw, 0) && !math.IsNaN(tw) && (d < (1e-6-delta)*target || d > (1e-6+delta)*target)
	}

	// Bisect a so TotalWork hits the target. The weighted total is
	// monotonically increasing in a (more receptor-size correlation pushes
	// work toward large-Nsep rows).
	lo, hi := 0.0, 3.0
	var a float64
	for steps < 60 {
		steps++
		a = (lo + hi) / 2
		tw, ok := decided(a)
		if !ok {
			tw = build(a)
			exact++
		}
		if math.Abs(tw-target) <= 1e-6*target {
			break
		}
		if tw < target {
			lo = a
		} else {
			hi = a
		}
	}
	build(a)
	return m, steps, exact
}

// calibrationMargin is Synthesize's margin δ around the stop threshold for
// an n-protein dataset: 1e-9, growing with n² beyond the benchmark's size.
func calibrationMargin(n int) float64 {
	const full = float64(protein.BenchmarkSize * protein.BenchmarkSize)
	return 1e-9 * max(1, float64(n)*float64(n)/full)
}

// inCalibrationRange reports whether a mean or target keeps every
// intermediate of Synthesize's two totals a normal float.
func inCalibrationRange(v float64) bool { return v >= 0x1p-400 && v <= 0x1p400 }

// SynthesizeHCMD returns the canonical calibrated matrix for the HCMD-168
// benchmark (the one every experiment in EXPERIMENTS.md uses).
func SynthesizeHCMD(ds *protein.Dataset) *Matrix {
	return Synthesize(ds, SynthesizeOptions{Seed: protein.DefaultSeed + 1})
}

// PhaseIIRatio is the §7 workload ratio: 4000² / (168² × 100).
const PhaseIIRatio = 4000.0 * 4000.0 / (168.0 * 168.0 * 100.0)

// SynthesizePhaseII generates the §7 phase II cost matrix: the benchmark's
// shape carrying PhaseIIRatio× the phase I work.
func SynthesizePhaseII(ds *protein.Dataset, seed uint64) *Matrix {
	return Synthesize(ds, SynthesizeOptions{
		Seed:        seed,
		MeanSeconds: Table1.Mean * PhaseIIRatio,
		TargetTotal: PaperTotalSeconds * PhaseIIRatio,
	})
}

// LinearityReport holds the Figure 3 verification for one couple: fits of
// kernel cost against the number of rotations (3a) and the number of
// starting positions (3b).
type LinearityReport struct {
	NrotFit stats.LinearFit
	NsepFit stats.LinearFit
	NrotR   float64 // Pearson correlation, paper reports ≈ 0.99
	NsepR   float64
}

// VerifyLinearity reproduces the §4.1 linearity check for a couple using
// the kernel cost model, sweeping nrot at fixed nsep and nsep at fixed nrot.
func VerifyLinearity(receptor, ligand *protein.Protein, params docking.MinimizeParams) LinearityReport {
	var rep LinearityReport
	// Figure 3(a): time vs number of rotations, one starting position.
	var xs, ys []float64
	for nrot := 1; nrot <= protein.NRotWorkunit; nrot++ {
		xs = append(xs, float64(nrot))
		ys = append(ys, MeasureCouple(receptor, ligand, nrot, params))
	}
	rep.NrotFit = stats.FitLine(xs, ys)
	rep.NrotR = stats.Pearson(xs, ys)
	// Figure 3(b): time vs number of starting positions, full rotation set.
	perIsep := MeasureCouple(receptor, ligand, protein.NRotWorkunit, params)
	xs, ys = nil, nil
	maxSep := 20
	if receptor.Nsep < maxSep {
		maxSep = receptor.Nsep
	}
	for nsep := 1; nsep <= maxSep; nsep++ {
		xs = append(xs, float64(nsep))
		ys = append(ys, perIsep*float64(nsep))
	}
	rep.NsepFit = stats.FitLine(xs, ys)
	rep.NsepR = stats.Pearson(xs, ys)
	return rep
}

// TopShare reports how many receptors carry the given share of the total
// processing time (the paper: 10 proteins ≈ 30 %).
func (m *Matrix) TopShare(ds *protein.Dataset, share float64) (count int, covered float64) {
	return stats.TopShare(m.ReceptorCost(ds), share)
}
