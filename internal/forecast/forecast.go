// Package forecast implements the §7 phase II planning model and Table 3.
//
// After phase I, the scientists intend to add evolutionary information to
// the docking process, cutting the number of docking points by a factor of
// about 100, and to scale the protein set from 168 to ~4,000. Because the
// total work of formula (1) grows with the square of the number of proteins,
// the phase II workload is
//
//	phaseII = phaseI × (4000² / (168² × 100)) ≈ 5.67 × phaseI
//
// The paper then asks three questions, all answered here: how long phase II
// takes at the phase I rate (~90 weeks); how many virtual full-time
// processors finish it in 40 weeks (59,730); and how many World Community
// Grid members that requires, given the observed VFTP-per-member yield and
// the project's expected 25 % share of the grid (~1.3 million members).
package forecast

import (
	"fmt"
	"math"

	"repro/internal/vftp"
)

// PhaseI holds the phase I observations the forecast extrapolates from.
// The defaults are the paper's published numbers.
type PhaseI struct {
	CPUSeconds   float64 // total consumed CPU time (reported), seconds
	Weeks        float64 // full-power weeks the forecast normalizes to
	Proteins     int     // target-set size
	Members      float64 // WCG members during phase I
	MemberYield  float64 // VFTP per member (derived if zero)
	VFTPObserved float64 // VFTP sustained over Weeks (derived if zero)
}

// PaperPhaseI returns the phase I record as Table 3 states it: the consumed
// 254,897,774,144 s normalized over 16 full-power weeks, with 132,490
// members engaged.
func PaperPhaseI() PhaseI {
	return PhaseI{
		CPUSeconds: 254897774144,
		Weeks:      16,
		Proteins:   168,
		Members:    132490,
	}
}

// vftpOf returns the (possibly derived) sustained VFTP.
func (p PhaseI) vftpOf() float64 {
	if p.VFTPObserved > 0 {
		return p.VFTPObserved
	}
	return p.CPUSeconds / (p.Weeks * 7 * vftp.SecondsPerDay)
}

// yield returns VFTP produced per member.
func (p PhaseI) yield() float64 {
	if p.MemberYield > 0 {
		return p.MemberYield
	}
	if p.Members <= 0 {
		panic("forecast: need members or an explicit yield")
	}
	return p.vftpOf() / p.Members
}

// PhaseIIPlan parameterizes the phase II what-if.
type PhaseIIPlan struct {
	Proteins        int     // target-set size (paper: 4,000)
	PointsReduction float64 // docking-point cut factor (paper: 100)
	TargetWeeks     float64 // wanted completion time (paper: 40)
	GridShare       float64 // project share of the grid in phase II (paper: 0.25)
	// MeasuredShare, when positive, replaces the assumed GridShare in the
	// §7 member arithmetic: the grid share actually realized by a
	// shared-grid co-run simulation (project.GridReport.MeasuredShareOf)
	// instead of the paper's hardcoded 25 %. Table 3 then rests on a
	// mechanistic number rather than an assumption.
	MeasuredShare float64
}

// shareInForce returns the grid share the member arithmetic uses: the
// measured share when one is supplied, the planning assumption otherwise.
func (p PhaseIIPlan) shareInForce() float64 {
	if p.MeasuredShare > 0 {
		return p.MeasuredShare
	}
	return p.GridShare
}

// PaperPhaseIIPlan returns the §7 assumptions.
func PaperPhaseIIPlan() PhaseIIPlan {
	return PhaseIIPlan{Proteins: 4000, PointsReduction: 100, TargetWeeks: 40, GridShare: 0.25}
}

// Forecast is the computed phase II estimate: Table 3 plus the §7 numbers
// discussed in the text.
type Forecast struct {
	WorkRatio         float64 // phase II work / phase I work (≈ 5.67)
	CPUSecondsI       float64
	CPUSecondsII      float64
	WeeksI            float64
	WeeksII           float64 // target
	VFTPI             float64 // Table 3 row 3, phase I
	VFTPII            float64 // Table 3 row 3, phase II
	MembersI          float64
	MembersII         float64 // members whose yield supplies VFTPII
	WeeksAtPhaseIRate float64 // §7: ~90 weeks if nothing changes
	GridMembersNeeded float64 // §7: members so the share in force supplies VFTPII
	NewMembersNeeded  float64 // §7: beyond the current grid membership
}

// CurrentGridMembers is the membership of World Community Grid at writing
// time (§7: "approximatively 325,000 members").
const CurrentGridMembers = 325000

// Estimate computes the phase II forecast from phase I observations.
func Estimate(p1 PhaseI, plan PhaseIIPlan) Forecast {
	if p1.CPUSeconds <= 0 || p1.Weeks <= 0 || p1.Proteins <= 0 {
		panic("forecast: phase I record incomplete")
	}
	if plan.Proteins <= 0 || plan.PointsReduction <= 0 || plan.TargetWeeks <= 0 {
		panic("forecast: phase II plan incomplete")
	}
	ratio := float64(plan.Proteins) * float64(plan.Proteins) /
		(float64(p1.Proteins) * float64(p1.Proteins) * plan.PointsReduction)
	cpuII := p1.CPUSeconds * ratio
	vftpI := p1.vftpOf()
	vftpII := cpuII / (plan.TargetWeeks * 7 * vftp.SecondsPerDay)
	f := Forecast{
		WorkRatio:    ratio,
		CPUSecondsI:  p1.CPUSeconds,
		CPUSecondsII: cpuII,
		WeeksI:       p1.Weeks,
		WeeksII:      plan.TargetWeeks,
		VFTPI:        vftpI,
		VFTPII:       vftpII,
		MembersI:     p1.Members,
	}
	f.MembersII = vftpII / p1.yield()
	f.WeeksAtPhaseIRate = cpuII / (vftpI * 7 * vftp.SecondsPerDay)
	if share := plan.shareInForce(); share > 0 {
		// The grid-wide member yield: the whole grid's membership maps to
		// the whole grid's VFTP; the project only gets its share of it.
		// §7 uses ~60,000 VFTP for ~325,000 members and divides by the
		// assumed 25 % share; a MeasuredShare substitutes the share a
		// shared-grid co-run actually realized.
		gridYield := gridVFTPForMembers / float64(CurrentGridMembers)
		f.GridMembersNeeded = vftpII / (gridYield * share)
		f.NewMembersNeeded = f.GridMembersNeeded - CurrentGridMembers
		if f.NewMembersNeeded < 0 {
			f.NewMembersNeeded = 0
		}
	}
	return f
}

// gridVFTPForMembers is the grid-wide VFTP corresponding to the current
// membership (§7: "It corresponds to about 60,000 virtual full-time
// processors according to the Figure 1").
const gridVFTPForMembers = 60000

// PaperForecast computes Table 3 and the §7 text numbers from the paper's
// own inputs.
func PaperForecast() Forecast {
	return Estimate(PaperPhaseI(), PaperPhaseIIPlan())
}

// Table3Row is one column pair of Table 3.
type Table3Row struct {
	Label    string
	PhaseI   float64
	PhaseII  float64
	Integral bool // render without decimals
}

// Table3 renders the forecast as the paper's Table 3.
func (f Forecast) Table3() []Table3Row {
	return []Table3Row{
		{Label: "cpu time in s", PhaseI: f.CPUSecondsI, PhaseII: f.CPUSecondsII, Integral: true},
		{Label: "Nb weeks", PhaseI: f.WeeksI, PhaseII: f.WeeksII, Integral: true},
		{Label: "Nb virtual full-time processors", PhaseI: math.Round(f.VFTPI), PhaseII: math.Round(f.VFTPII), Integral: true},
		{Label: "Nb members", PhaseI: f.MembersI, PhaseII: math.Round(f.MembersII), Integral: true},
	}
}

// String renders a row.
func (r Table3Row) String() string {
	if r.Integral {
		return fmt.Sprintf("%-33s %18.0f %18.0f", r.Label, r.PhaseI, r.PhaseII)
	}
	return fmt.Sprintf("%-33s %18.2f %18.2f", r.Label, r.PhaseI, r.PhaseII)
}
