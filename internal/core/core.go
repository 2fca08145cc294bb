// Package core is the public façade of the HCMD reproduction: one type that
// wires the substrates together and exposes, as plain method calls, every
// planning step and every experiment of the paper.
//
// The pipeline mirrors the paper's own workflow:
//
//  1. assemble the 168-protein benchmark (§2, Figure 2);
//  2. calibrate the computation-time matrix (§4.1, Table 1, Figure 3);
//  3. slice the work into workunits of a wanted duration (§4.2, Figure 4);
//  4. run the campaign on the simulated volunteer grid (§5, Figures 6-8);
//  5. compare against a dedicated grid (§6, Table 2);
//  6. forecast phase II (§7, Table 3).
//
// Example:
//
//	sys := core.NewHCMD()
//	plan := sys.Package(10)                   // 10-hour workunits
//	rep := sys.RunCampaign(1.0/84, 0)         // scaled simulation
//	fc := sys.ForecastPhaseII()               // Table 3
package core

import (
	"math"

	"repro/internal/costmodel"
	"repro/internal/docking"
	"repro/internal/forecast"
	"repro/internal/grid"
	"repro/internal/project"
	"repro/internal/protein"
	"repro/internal/stats"
	"repro/internal/vftp"
	"repro/internal/volunteer"
	"repro/internal/workunit"
)

// System bundles the protein benchmark with its calibrated cost matrix.
type System struct {
	DS     *protein.Dataset
	Matrix *costmodel.Matrix
	Grid   volunteer.GridModel
}

// NewHCMD assembles the canonical HCMD phase I system: the 168-protein
// benchmark and the Table 1-calibrated cost matrix.
func NewHCMD() *System {
	ds := protein.HCMD168()
	return &System{
		DS:     ds,
		Matrix: costmodel.SynthesizeHCMD(ds),
		Grid:   volunteer.DefaultGridModel(),
	}
}

// TotalWork evaluates formula (1): the campaign's total reference-processor
// seconds.
func (s *System) TotalWork() float64 { return s.Matrix.TotalWork(s.DS) }

// Table1 returns the cost-matrix statistics of Table 1.
func (s *System) Table1() stats.Summary { return s.Matrix.Stats() }

// Figure2 returns the Nsep distribution histogram of Figure 2.
func (s *System) Figure2() *stats.Histogram {
	lo, hi, bins := protein.NsepHistogramEdges()
	h := stats.NewHistogram(lo, hi, bins)
	for _, p := range s.DS.Proteins {
		h.Add(float64(p.Nsep))
	}
	return h
}

// Figure3 verifies the run-time linearity of §4.1 for one couple.
func (s *System) Figure3(receptor, ligand int) costmodel.LinearityReport {
	return costmodel.VerifyLinearity(s.DS.Proteins[receptor], s.DS.Proteins[ligand], docking.MinimizeParams{})
}

// Package slices the campaign into workunits of the wanted duration
// (hours on the reference processor) — the §4.2 algorithm.
func (s *System) Package(hHours float64) *workunit.Plan {
	return workunit.NewPlan(s.DS, s.Matrix, hHours)
}

// Figure4 returns the workunit-duration summary for the wanted duration:
// the count and histogram of Figure 4 (and, at the deployed duration,
// the reference-side distribution of Figure 8).
func (s *System) Figure4(hHours float64) workunit.Summary {
	return s.Package(hHours).Summarize(14, 28)
}

// Figure1 returns the grid-wide daily VFTP series of Figure 1 over the
// given number of days since the World Community Grid launch.
func (s *System) Figure1(days int) *stats.Series {
	daily := s.Grid.DailyVFTP(days, protein.DefaultSeed+3)
	series := stats.NewSeries("grid-vftp-daily")
	for d, v := range daily {
		series.Add(float64(d), v)
	}
	return series
}

// CampaignConfig returns the campaign configuration at the given scale
// (0 < scale ≤ 1 subsamples work and hosts together). A zero hHours uses
// the deployed duration.
func (s *System) CampaignConfig(scale, hHours float64) project.Config {
	cfg := project.DefaultConfig(s.DS, s.Matrix)
	cfg.Grid = s.Grid
	if scale > 0 {
		cfg.WorkScale = scale
		cfg.HostScale = scale
	}
	if hHours > 0 {
		cfg.HHours = hHours
	}
	return cfg
}

// RunCampaign simulates the HCMD campaign on the volunteer grid at the
// given scale and returns the full report (Figures 6-8, Table 2 inputs).
func (s *System) RunCampaign(scale, hHours float64) *project.Report {
	return project.New(s.CampaignConfig(scale, hHours)).Run()
}

// DedicatedEquivalent returns how many dedicated reference processors match
// the given volunteer VFTP under the paper's measured inflation.
func (s *System) DedicatedEquivalent(vftpValue float64) float64 {
	return vftp.DedicatedEquivalent(vftpValue, vftp.PaperTotalFactor)
}

// DedicatedMakespan returns the ideal dedicated-grid makespan (seconds) of
// the whole campaign on n reference processors.
func (s *System) DedicatedMakespan(n int) float64 {
	return grid.NewCluster(n).AnalyticMakespan(s.TotalWork())
}

// ForecastPhaseII computes the §7 phase II estimate from the paper's
// phase I record (Table 3).
func (s *System) ForecastPhaseII() forecast.Forecast {
	return forecast.PaperForecast()
}

// PhaseIIConfig builds a campaign configuration for the phase II plan of
// §7, validated by simulation rather than arithmetic: the same benchmark
// shape carries 5.67× the work (each couple's per-point cost stands in for
// the 4,000-protein, ÷100-points workload), and the grid supplies a
// constant 59,730 VFTP — the Table 3 operating point. The §7 estimate says
// this completes in 40 weeks.
func (s *System) PhaseIIConfig(scale float64) project.Config {
	cfg := project.DefaultConfig(s.DS, costmodel.SynthesizePhaseII(s.DS, protein.DefaultSeed+11))
	// §7 assumes a steady allocation, not the phase I ramp: a flat grid
	// slice of 59,730 VFTP for the whole run.
	cfg.Grid = volunteer.GridModel{BaseVFTP: 59730, GrowthPerWeek: 0}
	cfg.ControlWeeks = 0
	cfg.RampWeeks = 0.1
	cfg.ControlShare = 1
	cfg.FullShare = 1
	cfg.MaxWeeks = 90
	cfg.SnapshotWeeks = []float64{10, 20, 30, 40}
	if scale > 0 {
		cfg.WorkScale = scale
		cfg.HostScale = scale
	}
	return cfg
}

// SimulatePhaseII runs the §7 plan on the simulated grid and returns the
// report; WeeksElapsed near 40 confirms Table 3 dynamically.
func (s *System) SimulatePhaseII(scale float64) *project.Report {
	return project.New(s.PhaseIIConfig(scale)).Run()
}

// SharedGridConfig builds a co-run configuration: n co-running copies of
// the HCMD workload (per-tenant seeds offset so seed-dependent choices
// decorrelate) on one volunteer population carved from the whole modeled
// grid, under the given resource shares (nil = equal). scale subsamples
// work and hosts together, as in CampaignConfig.
func (s *System) SharedGridConfig(n int, scale float64, shares []float64) project.Config {
	if n < 1 {
		panic("core: shared grid needs at least one project")
	}
	base := s.CampaignConfig(scale, 0)
	projects := make([]project.Config, n)
	for i := range projects {
		p := base
		p.Seed = base.Seed + uint64(i)
		projects[i] = p
	}
	return project.Config{
		Projects:  projects,
		Shares:    shares,
		Host:      base.Host,
		Grid:      s.Grid,
		FullShare: 1, // the shared population is the whole grid
		HostScale: base.HostScale,
		Seed:      base.Seed,
		MaxWeeks:  base.MaxWeeks,
	}
}

// CoShareConfig builds the §7 cross-validation co-run: the HCMD workload
// holding the given resource share of a shared grid against a
// phase-II-sized co-project holding the rest. The co-project carries 5.67×
// the work, so it outlasts HCMD and the HCMD tenant's measured share is
// contended for its whole lifetime.
func (s *System) CoShareConfig(scale, share float64) project.Config {
	if share <= 0 || share >= 1 {
		panic("core: co-run share must be in (0,1)")
	}
	cfg := s.SharedGridConfig(2, scale, []float64{share, 1 - share})
	big := &cfg.Projects[1]
	big.M = costmodel.SynthesizePhaseII(big.DS, big.Seed+11)
	cfg.MaxWeeks = 120
	return cfg
}

// GridShareCheck is the §7 cross-validation: the forecast's assumed grid
// share next to the share a shared-grid simulation actually realized, and
// Table 3 recomputed under each.
type GridShareCheck struct {
	AssumedShare  float64
	MeasuredShare float64
	AbsError      float64
	// Assumed is Table 3 under the plan's GridShare; Measured is Table 3
	// under the simulated share (PhaseIIPlan.MeasuredShare path).
	Assumed  forecast.Forecast
	Measured forecast.Forecast
}

// CrossValidateGridShare recomputes the §7 member arithmetic from the
// grid share project proj realized in a shared-grid co-run, next to the
// plan's assumed share. A small AbsError means the paper's 25 % assumption
// is dynamically consistent with a grid that actually multiplexes the
// projects; a large one quantifies how far the assumption drifts.
func (s *System) CrossValidateGridShare(rep *project.GridReport, proj int, plan forecast.PhaseIIPlan) GridShareCheck {
	measured := rep.MeasuredShareOf(proj)
	if measured <= 0 {
		// A zero measured share means the co-run never contended (the
		// share window closed before any CPU was reported) — passing it
		// on would make forecast.shareInForce silently fall back to the
		// assumption and label it "measured".
		panic("core: co-run measured no contended share; scale the workload up or the population down")
	}
	measuredPlan := plan
	measuredPlan.MeasuredShare = measured
	check := GridShareCheck{
		AssumedShare:  plan.GridShare,
		MeasuredShare: measured,
		Assumed:       forecast.Estimate(forecast.PaperPhaseI(), plan),
		Measured:      forecast.Estimate(forecast.PaperPhaseI(), measuredPlan),
	}
	check.AbsError = math.Abs(measured - plan.GridShare)
	return check
}

// DockCouple runs the real docking kernel for one couple over a range of
// starting positions — the quickstart entry point.
func (s *System) DockCouple(receptor, ligand, isepLo, isepHi int, params docking.MinimizeParams) []docking.Result {
	return docking.DockRange(s.DS.Proteins[receptor], s.DS.Proteins[ligand], isepLo, isepHi, protein.NRotWorkunit, params, nil)
}
