package project

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/protein"
	"repro/internal/volunteer"
)

// gridConfig builds a small two-project shared grid over the determinism
// dataset: big enough that both tenants run for weeks under contention,
// small enough for the unit-test budget.
func gridConfig(t *testing.T, seed uint64, shares []float64) Config {
	t.Helper()
	ds := protein.Generate(10, 51)
	m := costmodel.Synthesize(ds, costmodel.SynthesizeOptions{Seed: 52})
	pa := DefaultConfig(ds, m)
	pa.WorkScale = 0.3
	pb := pa
	pb.Seed = pa.Seed + 1
	return Config{
		Projects:  []Config{pa, pb},
		Shares:    shares,
		Host:      volunteer.DefaultHostConfig(),
		Grid:      volunteer.DefaultGridModel(),
		FullShare: 0.48,
		HostScale: 0.004,
		Seed:      seed,
		MaxWeeks:  80,
	}
}

// TestTwoProjectEqualShareWithin2pct is the PR's acceptance criterion: a
// two-project equal-share co-run must yield each project a measured share
// within 2 % of its configured resource share.
func TestTwoProjectEqualShareWithin2pct(t *testing.T) {
	gr := NewGrid(gridConfig(t, 777, nil)).Run()
	if !gr.Completed {
		t.Fatalf("co-run did not complete in %v weeks", gr.Config.MaxWeeks)
	}
	for i := range gr.Shares {
		if math.Abs(gr.MeasuredShares[i]-gr.Shares[i]) > 0.02 {
			t.Fatalf("project %d: measured share %.4f vs configured %.4f, want within 0.02 (all: %v vs %v)",
				i, gr.MeasuredShares[i], gr.Shares[i], gr.MeasuredShares, gr.Shares)
		}
	}
	if gr.MaxShareError() > 0.02 {
		t.Fatalf("max share error %.4f", gr.MaxShareError())
	}
}

// TestUnequalShareArbitration pins the 25/75 split: the mux must hold both
// tenants to their configured slices during the contention window.
func TestUnequalShareArbitration(t *testing.T) {
	gr := NewGrid(gridConfig(t, 777, []float64{0.25, 0.75})).Run()
	if gr.MaxShareError() > 0.02 {
		t.Fatalf("25/75 share error %.4f (measured %v), want within 0.02", gr.MaxShareError(), gr.MeasuredShares)
	}
	if gr.ShareWindowWeeks <= 0 {
		t.Fatal("share window never recorded")
	}
	// The 75% tenant finishes the (equal) workload first.
	if !(gr.Projects[1].WeeksElapsed < gr.Projects[0].WeeksElapsed) {
		t.Fatalf("75%% tenant (%.1f wk) should finish before the 25%% tenant (%.1f wk)",
			gr.Projects[1].WeeksElapsed, gr.Projects[0].WeeksElapsed)
	}
}

// renderGridReport marshals a grid report with the per-tenant Configs
// zeroed (they carry shared DS/M pointers), for byte comparisons.
func renderGridReport(t *testing.T, gr *GridReport) []byte {
	t.Helper()
	for _, p := range gr.Projects {
		p.Config = Config{}
	}
	data, err := json.Marshal(gr)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestGridByteDeterminism: same co-run Config, byte-identical GridReport.
func TestGridByteDeterminism(t *testing.T) {
	a := renderGridReport(t, NewGrid(gridConfig(t, 777, []float64{1, 2})).Run())
	b := renderGridReport(t, NewGrid(gridConfig(t, 777, []float64{1, 2})).Run())
	if !bytes.Equal(a, b) {
		t.Fatalf("same config produced different grid reports:\nfirst:  %.300s…\nsecond: %.300s…", a, b)
	}
}

// TestGridRunnerPooledByteIdentical extends the PR3 pooled-reuse contract
// to the shared grid: a co-run on a GridRunner whose arenas are dirty from
// previous (differently configured) co-runs must be byte-identical to a
// fresh NewGrid(cfg).Run().
func TestGridRunnerPooledByteIdentical(t *testing.T) {
	fresh := renderGridReport(t, NewGrid(gridConfig(t, 777, nil)).Run())

	runner := NewGridRunner()
	other := gridConfig(t, 4242, []float64{0.2, 0.8})
	other.Projects[0].Order = CostliestFirst
	runner.Run(other)
	runner.Run(gridConfig(t, 31, []float64{3, 1}))
	reused := renderGridReport(t, runner.Run(gridConfig(t, 777, nil)))
	if !bytes.Equal(fresh, reused) {
		t.Fatalf("pooled co-run diverged from fresh:\nfresh:  %.300s…\nreused: %.300s…", fresh, reused)
	}
	// Different seed still differs (no stale state replay).
	if probe := renderGridReport(t, runner.Run(gridConfig(t, 778, nil))); bytes.Equal(fresh, probe) {
		t.Fatal("different seed produced an identical grid report")
	}
}

// TestGridRunnerTenantCountChange reuses a runner across co-runs of
// different widths: 2 → 1 → 2 tenants must all match their fresh runs.
func TestGridRunnerTenantCountChange(t *testing.T) {
	two := gridConfig(t, 777, nil)
	one := gridConfig(t, 777, nil)
	one.Projects = one.Projects[:1]
	one.Shares = nil

	freshOne := renderGridReport(t, NewGrid(one).Run())
	freshTwo := renderGridReport(t, NewGrid(two).Run())

	runner := NewGridRunner()
	runner.Run(two)
	if got := renderGridReport(t, runner.Run(one)); !bytes.Equal(freshOne, got) {
		t.Fatal("pooled 2→1-tenant run diverged from fresh single-tenant grid")
	}
	if got := renderGridReport(t, runner.Run(two)); !bytes.Equal(freshTwo, got) {
		t.Fatal("pooled 1→2-tenant run diverged from fresh two-tenant grid")
	}
}

// TestGridShareStarvationResists: a 5% tenant against a 95% giant still
// receives its slice — the debt mechanism prevents starvation.
func TestGridShareStarvationResists(t *testing.T) {
	cfg := gridConfig(t, 777, []float64{0.05, 0.95})
	cfg.MaxWeeks = 20 // the point is the share, not completion
	gr := NewGrid(cfg).Run()
	if gr.MeasuredShares[0] < 0.03 || gr.MeasuredShares[0] > 0.07 {
		t.Fatalf("5%% tenant measured share %.4f, want ≈ 0.05", gr.MeasuredShares[0])
	}
	if gr.Projects[0].ServerStats.Completed == 0 {
		t.Fatal("starved tenant completed no work at all")
	}
}

// TestMeasuredShareOfScalesByGridShare: the whole-grid share is the mux
// share scaled by the population's slice of the modeled grid, FullShare.
func TestMeasuredShareOfScalesByGridShare(t *testing.T) {
	gr := NewGrid(gridConfig(t, 777, nil)).Run()
	want := gr.MeasuredShares[0] * 0.48
	if got := gr.MeasuredShareOf(0); math.Abs(got-want) > 1e-12 {
		t.Fatalf("MeasuredShareOf(0) = %v, want %v", got, want)
	}
}

// TestGridSingleTenantCompletes: the degenerate one-project grid runs the
// mux path end to end.
func TestGridSingleTenantCompletes(t *testing.T) {
	cfg := gridConfig(t, 777, nil)
	cfg.Projects = cfg.Projects[:1]
	cfg.Shares = nil
	gr := NewGrid(cfg).Run()
	if !gr.Completed {
		t.Fatal("single-tenant grid did not complete")
	}
	if gr.MeasuredShares[0] != 1 {
		t.Fatalf("sole tenant's measured share = %v, want 1", gr.MeasuredShares[0])
	}
	if gr.Projects[0].ServerStats.Completed != gr.Projects[0].DistinctWUs {
		t.Fatal("not all workunits completed")
	}
}

// TestGridConfigValidation covers the checkGridConfig panics.
func TestGridConfigValidation(t *testing.T) {
	base := gridConfig(t, 1, nil)
	cases := map[string]func() Config{
		"no projects":     func() Config { c := base; c.Projects = nil; return c },
		"share mismatch":  func() Config { c := base; c.Shares = []float64{1}; return c },
		"negative share":  func() Config { c := base; c.Shares = []float64{1, -1}; return c },
		"zero share":      func() Config { c := base; c.Shares = []float64{1, 0}; return c },
		"bad grid share":  func() Config { c := base; c.FullShare = 1.5; return c },
		"zero host scale": func() Config { c := base; c.HostScale = 0; return c },
	}
	for name, mk := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s should panic", name)
				}
			}()
			NewGrid(mk())
		}()
	}
}

// TestGridReportPopulationAccounting: the shared-population fields live on
// the GridReport, and tenant reports carry no per-tenant points (the hosts
// are shared, so per-tenant crediting would double-count).
func TestGridReportPopulationAccounting(t *testing.T) {
	gr := NewGrid(gridConfig(t, 777, nil)).Run()
	if gr.PointsTotal <= 0 || gr.MeanSpeedDown <= 1 {
		t.Fatalf("grid-level accounting missing: points %v, speed-down %v", gr.PointsTotal, gr.MeanSpeedDown)
	}
	if gr.EventsExecuted == 0 {
		t.Fatal("grid-level kernel accounting missing")
	}
	for i, p := range gr.Projects {
		if p.PointsTotal != 0 {
			t.Fatalf("tenant %d carries per-tenant points %v; population accounting is grid-level", i, p.PointsTotal)
		}
		if p.MeanSpeedDown != gr.MeanSpeedDown {
			t.Fatalf("tenant %d speed-down %v ≠ shared population %v", i, p.MeanSpeedDown, gr.MeanSpeedDown)
		}
		if p.EventsExecuted != 0 || p.PeakPending != 0 {
			t.Fatalf("tenant %d carries engine-wide kernel accounting (%d events); it is grid-level", i, p.EventsExecuted)
		}
		// Grid tenants have no phase ramp: the whole series is the
		// full-power window, so the two VFTP averages coincide.
		if p.Config.ControlWeeks != 0 || p.Config.RampWeeks != 0 {
			t.Fatalf("tenant %d kept a phase schedule (%v/%v weeks)", i, p.Config.ControlWeeks, p.Config.RampWeeks)
		}
		if p.AvgVFTPFullPower != p.AvgVFTPWhole {
			t.Fatalf("tenant %d full-power VFTP %v ≠ whole-period %v despite no ramp", i, p.AvgVFTPFullPower, p.AvgVFTPWhole)
		}
	}
}
