// Package protein implements the reduced protein model and the synthetic
// HCMD-168 benchmark used throughout the reproduction.
//
// The paper's phase I targets 168 real proteins drawn from the
// protein-protein docking benchmark 2.0 (Mintseris et al.), represented in
// the Zacharias reduced model: a protein is a rigid set of pseudo-atom beads
// with van-der-Waals radii and partial charges. Per §4.1, the only protein
// properties the campaign planning depends on are
//
//   - Nsep(p): the number of ligand starting positions around receptor p,
//     determined by the protein's size and shape (Figure 2), and
//   - the per-couple compute cost (captured by the cost matrix, Table 1).
//
// We therefore substitute a deterministic synthetic benchmark whose Nsep
// table is calibrated to the paper's aggregate identities:
//
//   - Σp Nsep(p) = 294,533, so the number of generatable workunits is
//     168 · Σp Nsep(p) = 49,481,544 exactly as §4.1 states;
//   - most proteins have fewer than 3,000 starting positions;
//   - one protein exceeds 8,000 (the Figure 2 outlier).
//
// The bead geometry is genuine (beads packed in a ball, alternating partial
// charges) so the docking kernel computes real interaction energies over it.
// A protein builds it the first time something reads it, from a seed drawn
// with the dataset, so a campaign, which reads only Nsep, never pays for it.
package protein

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/rng"
)

// BenchmarkSize is the number of proteins in the HCMD phase I target set.
const BenchmarkSize = 168

// TotalNsep is Σp Nsep(p) over the benchmark, calibrated so that
// BenchmarkSize · TotalNsep = 49,481,544 generatable workunits (§4.1).
const TotalNsep = 294533

// TotalInstances is the total number of MAXDo workunit instances that can be
// generated for the benchmark: one per (receptor couple slot, starting
// position), i.e. 168 · Σp Nsep(p).
const TotalInstances = BenchmarkSize * TotalNsep // 49,481,544

// NRotWorkunit is the number of starting orientations per workunit slice
// (§4.2): 21 (α, β) couples.
const NRotWorkunit = 21

// NGamma is the number of γ values explored per (α, β) couple; the full
// orientation set has NRotWorkunit·NGamma = 210 members (§2.1 footnote).
const NGamma = 10

// Bead is a pseudo-atom of the reduced protein model.
type Bead struct {
	Pos    Vec3    // position in the protein body frame, Å
	Radius float64 // van-der-Waals radius, Å
	Charge float64 // partial charge, e
}

// Protein is a rigid reduced-model protein. Its name and Nsep are set when
// the dataset is generated; its bead geometry is built from a stored seed
// the first time Beads, Radius or NumBeads reads it, since a campaign reads
// only Nsep. The build runs once per protein and is safe for concurrent
// readers (every sweep worker shares one dataset). A Protein must not be
// copied.
type Protein struct {
	ID   int    // index in the benchmark, 0-based
	Name string // synthetic PDB-like identifier
	Nsep int    // number of ligand starting positions around this protein as receptor

	geomSeed uint64 // seeds the bead geometry
	geomOnce sync.Once
	beads    []Bead
	radius   float64
}

// Beads returns the pseudo-atoms in the body frame, centered on the mass
// center. The slice is shared by every caller; do not modify it.
func (p *Protein) Beads() []Bead {
	p.geomOnce.Do(p.buildGeometry)
	return p.beads
}

// Radius returns the bounding radius of the bead set, Å.
func (p *Protein) Radius() float64 {
	p.geomOnce.Do(p.buildGeometry)
	return p.radius
}

// NumBeads returns the number of pseudo-atoms.
func (p *Protein) NumBeads() int { return len(p.Beads()) }

func (p *Protein) buildGeometry() {
	p.beads, p.radius = geometry(p.Nsep, rng.New(p.geomSeed))
}

// SeparationPoint returns starting position isep (1-based, as the paper
// indexes) with the given clearance.
func (p *Protein) SeparationPoint(isep int, clearance float64) Vec3 {
	if isep < 1 || isep > p.Nsep {
		panic(fmt.Sprintf("protein: isep %d out of range [1,%d] for %s", isep, p.Nsep, p.Name))
	}
	return FibonacciPoint(isep-1, p.Nsep).Scale(p.Radius() + clearance)
}

// Dataset is a protein benchmark: an ordered set of proteins plus its Nsep
// table.
type Dataset struct {
	Proteins []*Protein
}

// Len returns the number of proteins.
func (d *Dataset) Len() int { return len(d.Proteins) }

// SumNsep returns Σp Nsep(p).
func (d *Dataset) SumNsep() int {
	sum := 0
	for _, p := range d.Proteins {
		sum += p.Nsep
	}
	return sum
}

// Instances returns the total number of MAXDo instances for the dataset:
// len(d) couple slots per receptor starting position.
func (d *Dataset) Instances() int { return d.Len() * d.SumNsep() }

// MaxNsep returns the largest Nsep in the dataset.
func (d *Dataset) MaxNsep() int {
	m := 0
	for _, p := range d.Proteins {
		if p.Nsep > m {
			m = p.Nsep
		}
	}
	return m
}

// DefaultSeed is the seed of the canonical HCMD-168 benchmark; all
// experiments in EXPERIMENTS.md use it.
const DefaultSeed = 20061219 // the HCMD launch date, 2006-12-19

// HCMD168 generates the canonical synthetic 168-protein benchmark with the
// calibrated Nsep table (Σ = 294,533; one outlier above 8,000; bulk below
// 3,000) and deterministic bead geometry.
func HCMD168() *Dataset { return Generate(BenchmarkSize, DefaultSeed) }

// Generate builds a synthetic benchmark of n proteins from the given seed.
// For n = BenchmarkSize the Nsep table is rescaled to sum exactly to
// TotalNsep; for other n the sum scales proportionally (used by scaled-down
// tests).
//
// Each protein's geometry seed is drawn here, one value of the geometry
// stream per protein in order, and the beads are built from it on first
// use (see Protein): the same bits an eager build would give, without the
// cost for the proteins nobody docks.
func Generate(n int, seed uint64) *Dataset {
	if n <= 0 {
		panic("protein: benchmark size must be positive")
	}
	r := rng.New(seed)
	nseps := calibratedNsep(n, r)
	d := &Dataset{Proteins: make([]*Protein, n)}
	geomRng := r.Split()
	for i := 0; i < n; i++ {
		d.Proteins[i] = &Protein{
			ID:       i,
			Name:     fmt.Sprintf("HCMD%03d", i+1),
			Nsep:     nseps[i],
			geomSeed: geomRng.Uint64(),
		}
	}
	return d
}

// calibratedNsep draws n starting-position counts matching Figure 2:
// a log-normal body, one forced outlier, rescaled to the exact target sum.
func calibratedNsep(n int, r *rng.Source) []int {
	targetSum := int(math.Round(float64(TotalNsep) * float64(n) / float64(BenchmarkSize)))
	raw := make([]float64, n)
	// Log-normal body: median ≈ 1400 positions, moderate spread, clamped
	// to a plausible range for globular proteins.
	for i := range raw {
		v := r.LogNormal(math.Log(1400), 0.55)
		if v < 150 {
			v = 150
		}
		if v > 5800 {
			v = 5800
		}
		raw[i] = v
	}
	// Figure 2 shows a single protein above 8,000 starting positions.
	// Only force the outlier when the target sum can absorb it while
	// leaving the body proteins a plausible size (small scaled-down test
	// datasets skip it).
	outlier := 8500 + r.Float64()*300
	hasOutlier := n >= 2 && float64(targetSum) >= outlier+300*float64(n-1)
	if hasOutlier {
		raw[0] = outlier
	}
	// Rescale everything except the outlier so the total hits the target.
	var sumOthers, fixed float64
	start := 0
	if hasOutlier {
		fixed = raw[0]
		start = 1
	}
	for _, v := range raw[start:] {
		sumOthers += v
	}
	scale := (float64(targetSum) - fixed) / sumOthers
	ints := make([]int, n)
	sum := 0
	for i := range raw {
		v := raw[i]
		if i >= start {
			v *= scale
		}
		ints[i] = int(math.Round(v))
		if ints[i] < 1 {
			ints[i] = 1
		}
		sum += ints[i]
	}
	// Distribute the rounding residual one unit at a time over the body
	// (never the outlier, to keep it above 8,000). Stop if a full pass
	// makes no progress (every body value already at the floor).
	residual := targetSum - sum
	for residual != 0 && n > 1 {
		progressed := false
		for i := start; i < n && residual != 0; i++ {
			step := 1
			if residual < 0 {
				step = -1
			}
			if ints[i]+step >= 1 {
				ints[i] += step
				residual -= step
				progressed = true
			}
		}
		if !progressed {
			break
		}
	}
	// Shuffle so the outlier is not always protein 0.
	r.Shuffle(n, func(a, b int) { ints[a], ints[b] = ints[b], ints[a] })
	return ints
}

// geometry builds the bead geometry of one protein and its bounding radius.
// The bead count scales with Nsep (larger surface ⇒ more starting positions
// ⇒ bigger protein), so kernel run time correlates with Nsep exactly as the
// paper's matrix does.
func geometry(nsep int, r *rng.Source) ([]Bead, float64) {
	nb := 24 + nsep/40
	if nb > 260 {
		nb = 260
	}
	// Pack beads into a ball: radius grows with the cube root of count.
	const beadSpacing = 3.8 // Å, ~Cα-Cα distance
	radius := beadSpacing * math.Cbrt(float64(nb)) * 0.75
	dirs := FibonacciSphere(nb)
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
	return beads, maxR
}

// NsepHistogramEdges are the bin edges the Figure 2 reproduction uses.
func NsepHistogramEdges() (lo, hi float64, bins int) { return 0, 9000, 18 }
