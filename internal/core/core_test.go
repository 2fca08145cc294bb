package core

import (
	"math"
	"testing"

	"context"

	"repro/internal/costmodel"
	"repro/internal/docking"
	"repro/internal/experiment"
	"repro/internal/forecast"
	"repro/internal/grid"
	"repro/internal/project"
	"repro/internal/protein"
)

var hcmd = NewHCMD() // shared across tests; System is read-only after build

func TestNewHCMDShape(t *testing.T) {
	if hcmd.DS.Len() != 168 {
		t.Fatalf("dataset size %d", hcmd.DS.Len())
	}
	if got := hcmd.TotalWork(); math.Abs(got-costmodel.PaperTotalSeconds)/costmodel.PaperTotalSeconds > 1e-3 {
		t.Fatalf("total work %.3g", got)
	}
}

func TestTable1(t *testing.T) {
	s := hcmd.Table1()
	if math.Abs(s.Mean-671) > 0.1 {
		t.Fatalf("mean %v", s.Mean)
	}
}

func TestFigure2(t *testing.T) {
	h := hcmd.Figure2()
	if h.Total() != 168 {
		t.Fatalf("histogram mass %d", h.Total())
	}
	// The outlier beyond 8,000 must be in the last bins, the bulk below
	// 3,000 in the first third.
	var below3000 int
	for i, c := range h.Bins {
		if h.BinLow(i) < 3000 {
			below3000 += c
		}
	}
	if below3000 < 130 {
		t.Fatalf("only %d proteins below 3,000", below3000)
	}
}

func TestFigure3(t *testing.T) {
	rep := hcmd.Figure3(0, 1)
	if rep.NrotR < 0.99 || rep.NsepR < 0.99 {
		t.Fatalf("linearity broken: %+v", rep)
	}
}

func TestFigure4Counts(t *testing.T) {
	// Figure 4: 1,364,476 workunits at h=10; 3,599,937 at h=4. Accept ±3%.
	s10 := hcmd.Figure4(10)
	if math.Abs(float64(s10.Count)-1364476)/1364476 > 0.03 {
		t.Fatalf("h=10 count %d, want ≈ 1,364,476", s10.Count)
	}
	s4 := hcmd.Figure4(4)
	if math.Abs(float64(s4.Count)-3599937)/3599937 > 0.03 {
		t.Fatalf("h=4 count %d, want ≈ 3,599,937", s4.Count)
	}
	// Conservation: both slicings carry the same total work.
	if math.Abs(s10.TotalSeconds-s4.TotalSeconds) > 1 {
		t.Fatal("packaging changed the total work")
	}
}

func TestFigure1(t *testing.T) {
	s := hcmd.Figure1(365)
	if s.Len() != 365 {
		t.Fatalf("len %d", s.Len())
	}
}

func TestRunCampaignSmall(t *testing.T) {
	rep := project.New(hcmd.CampaignConfig(1.0/168, 0)).Run()
	if !rep.Completed {
		t.Fatal("scaled campaign did not complete")
	}
	if rep.WeeksElapsed < 15 || rep.WeeksElapsed > 45 {
		t.Fatalf("weeks %.1f", rep.WeeksElapsed)
	}
}

func TestDedicatedMakespan(t *testing.T) {
	// On 4,833 dedicated processors (Table 2 full-power equivalent) the
	// whole campaign takes total/4833 seconds ≈ 16 weeks — consistent with
	// the full-power phase duration.
	weeks := grid.NewCluster(4833).AnalyticMakespan(hcmd.TotalWork()) / (7 * 86400)
	if weeks < 10 || weeks > 25 {
		t.Fatalf("dedicated makespan %.1f weeks, want ≈ 16", weeks)
	}
}

func TestForecastPhaseII(t *testing.T) {
	fc := hcmd.ForecastPhaseII()
	if math.Abs(fc.VFTPII-59730) > 2 {
		t.Fatalf("phase II VFTP %v", fc.VFTPII)
	}
}

func TestDockCouple(t *testing.T) {
	res := docking.DockRange(hcmd.DS.Proteins[0], hcmd.DS.Proteins[1], 1, 2, protein.NRotWorkunit, docking.MinimizeParams{MaxIter: 4, GammaSub: 1}, nil)
	if len(res) != 2*21 {
		t.Fatalf("results %d", len(res))
	}
}

func TestCampaignConfigOverrides(t *testing.T) {
	cfg := hcmd.CampaignConfig(0.5, 8)
	if cfg.WorkScale != 0.5 || cfg.HostScale != 0.5 {
		t.Fatalf("scale not applied: %+v", cfg)
	}
	if cfg.HHours != 8 {
		t.Fatalf("hHours not applied: %v", cfg.HHours)
	}
	// Zero values keep defaults.
	cfg = hcmd.CampaignConfig(0, 0)
	if cfg.WorkScale != 1 || cfg.HHours <= 0 {
		t.Fatalf("defaults broken: %+v", cfg)
	}
}

func TestPhaseIIConfigShape(t *testing.T) {
	cfg := hcmd.PhaseIIConfig(1.0 / 168)
	// The phase II matrix carries PhaseIIRatio× the phase I work.
	got := cfg.M.TotalWork(hcmd.DS)
	want := costmodel.PaperTotalSeconds * costmodel.PhaseIIRatio
	if math.Abs(got-want)/want > 1e-3 {
		t.Fatalf("phase II total %.3g, want %.3g", got, want)
	}
	// Flat grid at the Table 3 operating point.
	if cfg.Grid.VFTPAt(0) != 59730 || cfg.Grid.VFTPAt(100) != 59730 {
		t.Fatalf("phase II grid not flat: %v", cfg.Grid)
	}
	if cfg.WorkScale != 1.0/168 || cfg.HostScale != 1.0/168 {
		t.Fatalf("scale not applied: %+v", cfg)
	}
}

func TestSimulatePhaseIICompletes(t *testing.T) {
	rep := hcmd.SimulatePhaseII(1.0 / 168)
	if !rep.Completed {
		t.Fatal("phase II did not complete")
	}
	if rep.WeeksElapsed < 28 || rep.WeeksElapsed > 56 {
		t.Fatalf("phase II took %.0f weeks, §7 predicts 40", rep.WeeksElapsed)
	}
}

func TestSharedGridCrossValidation(t *testing.T) {
	cfg := hcmd.CoShareConfig(1.0/168, 0.25)
	cfg.HostScale = 0.002 // keep the test population tiny
	rep := project.NewGrid(cfg).Run()
	if len(rep.Projects) != 2 {
		t.Fatalf("co-run carried %d projects, want 2", len(rep.Projects))
	}
	plan := forecast.PaperPhaseIIPlan()
	check := hcmd.CrossValidateGridShare(rep, 0, plan)
	if check.AssumedShare != 0.25 {
		t.Fatalf("assumed share %v", check.AssumedShare)
	}
	if check.AbsError > 0.03 {
		t.Fatalf("measured share %.4f drifted %.4f from the assumed 0.25", check.MeasuredShare, check.AbsError)
	}
	// The measured forecast rests on the measured share: member arithmetic
	// scales inversely with the share in force.
	wantRatio := check.AssumedShare / check.MeasuredShare
	gotRatio := check.Measured.GridMembersNeeded / check.Assumed.GridMembersNeeded
	if math.Abs(gotRatio-wantRatio) > 1e-9 {
		t.Fatalf("member arithmetic ratio %v, want %v", gotRatio, wantRatio)
	}
}

func TestSharedGridConfigShape(t *testing.T) {
	cfg := hcmd.SharedGridConfig(3, 1.0/84, nil)
	if len(cfg.Projects) != 3 {
		t.Fatalf("projects = %d", len(cfg.Projects))
	}
	seen := map[uint64]bool{}
	for _, p := range cfg.Projects {
		if p.DS != hcmd.DS || p.M != hcmd.Matrix {
			t.Fatal("tenants must share the benchmark dataset and matrix")
		}
		if seen[p.Seed] {
			t.Fatal("tenant seeds must be offset")
		}
		seen[p.Seed] = true
	}
	if cfg.FullShare != 1 {
		t.Fatalf("FullShare = %v, want the whole grid", cfg.FullShare)
	}
}

func TestRunExperiments(t *testing.T) {
	base := hcmd.CampaignConfig(1.0/168, 0)
	base.HostScale = 0.002 // keep the test population tiny
	scen, err := experiment.Select(experiment.Catalog(), "baseline,quorum-1")
	if err != nil {
		t.Fatal(err)
	}
	sweep, err := experiment.Run(context.Background(), experiment.Options{
		Base:      base,
		Scenarios: scen,
		Reps:      2,
		Workers:   2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sweep.Results) != 4 || len(sweep.Aggregates) != 2 {
		t.Fatalf("sweep shape: %d results, %d aggregates", len(sweep.Results), len(sweep.Aggregates))
	}
	var q1, base2 experiment.Aggregate
	for _, a := range sweep.Aggregates {
		switch a.Scenario {
		case "quorum-1":
			q1 = a
		case "baseline":
			base2 = a
		}
	}
	if q1.Redundancy.Mean >= base2.Redundancy.Mean {
		t.Fatalf("quorum-1 redundancy %.2f should undercut baseline %.2f",
			q1.Redundancy.Mean, base2.Redundancy.Mean)
	}
}
