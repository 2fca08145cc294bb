// Package docking implements the MAXDo kernel: systematic rigid-body
// cross-docking of a mobile protein (the ligand) against a fixed protein
// (the receptor) in the reduced protein model.
//
// Following §2.1 of the paper, the quality of a protein-protein interaction
// is an interaction energy in kcal/mol, the sum of a Lennard-Jones term
// (Elj) and an electrostatic term (Eelec). The docking search minimizes this
// energy over the six rigid-body degrees of freedom of the ligand — the
// position (x, y, z) of its mass center and its orientation (α, β, γ) —
// from a regular grid of starting configurations indexed by
//
//	isep ∈ [1, Nsep(receptor)] — starting position on the receptor surface
//	irot ∈ [1, 21]            — starting (α, β) couple, each explored for
//	                            10 values of γ (so 210 orientations total)
//
// The kernel is reproducible (property 1 of §4.1), linear in the number of
// orientations at fixed isep (property 2 / Figure 3a), and linear in the
// number of starting positions at fixed irot (property 3 / Figure 3b).
// It checkpoints between starting positions, exactly like the production
// MAXDo port on World Community Grid (§4.3).
package docking

import (
	"fmt"
	"math"

	"repro/internal/protein"
)

// Physical constants of the reduced interaction model.
const (
	// CoulombK is the electrostatic constant in kcal·Å/(mol·e²).
	CoulombK = 332.0637
	// DielectricScale is the distance-dependent dielectric factor ε(r)=Dr.
	DielectricScale = 2.0
	// LJEpsilon is the well depth of the Lennard-Jones term, kcal/mol.
	LJEpsilon = 0.20
	// Clearance is the probe clearance added to the receptor radius when
	// placing ligand starting positions, Å.
	Clearance = 3.0
	// CutoffFactor bounds the pair interaction radius relative to bead
	// contact distance; pairs beyond it contribute negligibly.
	Cutoff = 24.0 // Å
)

// Energy holds the two contributions of the interaction energy (kcal/mol).
type Energy struct {
	LJ   float64 // Lennard-Jones term
	Elec float64 // electrostatic term
}

// Total returns Elj + Eelec; the more negative, the stronger the
// interaction (§2.1).
func (e Energy) Total() float64 { return e.LJ + e.Elec }

// Pose is a rigid-body placement of the ligand relative to the receptor
// body frame.
type Pose struct {
	Pos                Vec3    // ligand mass-center position, Å
	Alpha, Beta, Gamma float64 // ZYZ Euler angles, radians
}

// Vec3 aliases the protein geometry type so callers need only one import.
type Vec3 = protein.Vec3

// InteractionEnergy computes the reduced-model interaction energy between
// the receptor (fixed, body frame) and the ligand placed at pose.
func InteractionEnergy(receptor, ligand *protein.Protein, pose Pose) Energy {
	rot := protein.EulerZYZ(pose.Alpha, pose.Beta, pose.Gamma)
	var e Energy
	const cutoff2 = Cutoff * Cutoff
	lbeads, rbeads := ligand.Beads(), receptor.Beads()
	for li := range lbeads {
		lb := &lbeads[li]
		lpos := rot.Apply(lb.Pos).Add(pose.Pos)
		for ri := range rbeads {
			rb := &rbeads[ri]
			d := lpos.Sub(rb.Pos)
			r2 := d.Norm2()
			if r2 > cutoff2 {
				continue
			}
			if r2 < 1e-6 {
				r2 = 1e-6 // avoid the singularity for overlapping beads
			}
			sigma := lb.Radius + rb.Radius
			s2 := sigma * sigma / r2
			s6 := s2 * s2 * s2
			e.LJ += 4 * LJEpsilon * (s6*s6 - s6)
			r := math.Sqrt(r2)
			e.Elec += CoulombK * lb.Charge * rb.Charge / (DielectricScale * r * r)
		}
	}
	return e
}

// OrientationGrid returns the (α, β) couple for irot ∈ [1, 21] and the γ
// value for igamma ∈ [1, 10]. The 21 (α, β) couples tile the orientation
// sphere by the golden-spiral construction; γ spans [0, 2π).
func OrientationGrid(irot, igamma int) (alpha, beta, gamma float64) {
	if irot < 1 || irot > protein.NRotWorkunit {
		panic(fmt.Sprintf("docking: irot %d out of range [1,%d]", irot, protein.NRotWorkunit))
	}
	if igamma < 1 || igamma > protein.NGamma {
		panic(fmt.Sprintf("docking: igamma %d out of range [1,%d]", igamma, protein.NGamma))
	}
	dir := protein.FibonacciPoint(irot-1, protein.NRotWorkunit)
	beta = math.Acos(clamp(dir.Z, -1, 1))
	alpha = math.Atan2(dir.Y, dir.X)
	gamma = 2 * math.Pi * float64(igamma-1) / float64(protein.NGamma)
	return alpha, beta, gamma
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Result is the outcome of minimizing the interaction energy from one
// starting configuration (isep, irot): the best pose over the 10 γ values
// and its energy terms. This is one output line of the MAXDo result file
// (§5.2).
type Result struct {
	ISep, IRot int
	Pose       Pose
	Energy     Energy
}

// MinimizeParams tunes the local energy minimization. The zero value is
// replaced by DefaultMinimize.
type MinimizeParams struct {
	MaxIter  int     // gradient-descent iterations per start
	Step     float64 // initial translation step, Å
	AngStep  float64 // initial rotation step, rad
	Shrink   float64 // step shrink factor on failed move
	MinStep  float64 // convergence threshold on the translation step, Å
	GammaSub int     // γ values explored per (isep, irot); default NGamma
}

// DefaultMinimize is the production parameter set: cheap but genuinely
// descends the energy landscape.
var DefaultMinimize = MinimizeParams{
	MaxIter:  60,
	Step:     1.5,
	AngStep:  0.15,
	Shrink:   0.6,
	MinStep:  0.05,
	GammaSub: protein.NGamma,
}

func (p MinimizeParams) withDefaults() MinimizeParams {
	d := DefaultMinimize
	if p.MaxIter > 0 {
		d.MaxIter = p.MaxIter
	}
	if p.Step > 0 {
		d.Step = p.Step
	}
	if p.AngStep > 0 {
		d.AngStep = p.AngStep
	}
	if p.Shrink > 0 && p.Shrink < 1 {
		d.Shrink = p.Shrink
	}
	if p.MinStep > 0 {
		d.MinStep = p.MinStep
	}
	if p.GammaSub > 0 && p.GammaSub <= protein.NGamma {
		d.GammaSub = p.GammaSub
	}
	return d
}

// Dock minimizes the interaction energy for one (isep, irot) starting
// configuration and returns the best result over the γ sweep. It is
// deterministic: identical inputs give identical outputs (§4.1 property 1).
func Dock(receptor, ligand *protein.Protein, isep, irot int, params MinimizeParams) Result {
	p := params.withDefaults()
	start := receptor.SeparationPoint(isep, ligand.Radius()+Clearance)
	best := Result{ISep: isep, IRot: irot, Energy: Energy{LJ: math.Inf(1)}}
	bestTotal := math.Inf(1)
	for ig := 1; ig <= p.GammaSub; ig++ {
		alpha, beta, gamma := OrientationGrid(irot, ig)
		pose := Pose{Pos: start, Alpha: alpha, Beta: beta, Gamma: gamma}
		pose, e := minimize(receptor, ligand, pose, p)
		if tot := e.Total(); tot < bestTotal {
			bestTotal = tot
			best.Pose = pose
			best.Energy = e
		}
	}
	return best
}

// minimize performs a deterministic pattern-search descent over the six
// rigid-body degrees of freedom.
func minimize(receptor, ligand *protein.Protein, pose Pose, p MinimizeParams) (Pose, Energy) {
	e := InteractionEnergy(receptor, ligand, pose)
	step := p.Step
	ang := p.AngStep
	dirs := []Vec3{
		{X: 1}, {X: -1},
		{Y: 1}, {Y: -1},
		{Z: 1}, {Z: -1},
	}
	for iter := 0; iter < p.MaxIter && step > p.MinStep; iter++ {
		improved := false
		// Translation moves.
		for _, d := range dirs {
			cand := pose
			cand.Pos = pose.Pos.Add(d.Scale(step))
			ce := InteractionEnergy(receptor, ligand, cand)
			if ce.Total() < e.Total() {
				pose, e = cand, ce
				improved = true
			}
		}
		// Rotation moves.
		for _, da := range [...][3]float64{
			{ang, 0, 0}, {-ang, 0, 0},
			{0, ang, 0}, {0, -ang, 0},
			{0, 0, ang}, {0, 0, -ang},
		} {
			cand := pose
			cand.Alpha += da[0]
			cand.Beta += da[1]
			cand.Gamma += da[2]
			ce := InteractionEnergy(receptor, ligand, cand)
			if ce.Total() < e.Total() {
				pose, e = cand, ce
				improved = true
			}
		}
		if !improved {
			step *= p.Shrink
			ang *= p.Shrink
		}
	}
	return pose, e
}

// DockRange computes results for starting positions [isepLo, isepHi]
// (inclusive, 1-based) and rotations [1, nrot], the unit of work a workunit
// executes. The onCheckpoint callback, if non-nil, is invoked after each
// completed starting position with the index just finished — mirroring the
// production checkpointing of §4.3 ("the checkpoint occurs only between
// starting positions").
func DockRange(receptor, ligand *protein.Protein, isepLo, isepHi, nrot int, params MinimizeParams, onCheckpoint func(isepDone int)) []Result {
	if isepLo < 1 || isepHi > receptor.Nsep || isepLo > isepHi {
		panic(fmt.Sprintf("docking: isep range [%d,%d] invalid for receptor with Nsep=%d", isepLo, isepHi, receptor.Nsep))
	}
	if nrot < 1 || nrot > protein.NRotWorkunit {
		panic(fmt.Sprintf("docking: nrot %d out of range", nrot))
	}
	out := make([]Result, 0, (isepHi-isepLo+1)*nrot)
	for isep := isepLo; isep <= isepHi; isep++ {
		for irot := 1; irot <= nrot; irot++ {
			out = append(out, Dock(receptor, ligand, isep, irot, params))
		}
		if onCheckpoint != nil {
			onCheckpoint(isep)
		}
	}
	return out
}
