// Integration tests: the full pipeline exercised end-to-end at reduced
// scale, with cross-module invariants that no single package can check on
// its own.
package repro_test

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/docking"
	"repro/internal/forecast"
	"repro/internal/project"
	"repro/internal/protein"
	"repro/internal/validate"
	"repro/internal/volunteer"
	"repro/internal/workunit"
)

// TestPipelinePlanningInvariants checks the identities that tie the
// planning modules together at full scale.
func TestPipelinePlanningInvariants(t *testing.T) {
	s := system()
	// (1) Packaging conserves the formula-(1) total at any h.
	total := s.TotalWork()
	for _, h := range []float64{2, 10} {
		sum := s.Figure4(h)
		if math.Abs(sum.TotalSeconds-total)/total > 1e-9 {
			t.Fatalf("h=%v: packaged %.0f ≠ matrix total %.0f", h, sum.TotalSeconds, total)
		}
	}
	// (2) Workunit count × mean duration = total.
	sum := s.Figure4(10)
	if got := float64(sum.Count) * sum.MeanSeconds; math.Abs(got-total)/total > 1e-9 {
		t.Fatalf("count × mean = %.0f ≠ %.0f", got, total)
	}
	// (3) The per-receptor costs sum to the total.
	per := s.Matrix.ReceptorCost(s.DS)
	var acc float64
	for _, v := range per {
		acc += v
	}
	if math.Abs(acc-total)/total > 1e-9 {
		t.Fatal("receptor costs do not sum to the total")
	}
}

// TestPipelineCampaignConservation runs a scaled campaign and checks that
// the server-side accounting balances exactly.
func TestPipelineCampaignConservation(t *testing.T) {
	rep := project.New(system().CampaignConfig(1.0/168, 0)).Run()
	st := rep.ServerStats
	if !rep.Completed {
		t.Fatal("campaign incomplete")
	}
	// Everything sent is either returned, timed out, or was still in
	// flight at the end; completed ≤ valid ≤ received.
	if st.Valid > st.Received || int64(st.Completed) > st.Valid {
		t.Fatalf("accounting out of order: %+v", st)
	}
	if st.Completed != rep.DistinctWUs {
		t.Fatalf("completed %d ≠ distinct %d", st.Completed, rep.DistinctWUs)
	}
	// Valid results split exactly into useful (quorum-advancing) and
	// wasted; invalid accounts for the rest of received.
	if st.Useful+st.Wasted+st.Invalid != st.Received {
		t.Fatalf("received %d ≠ useful %d + wasted %d + invalid %d",
			st.Received, st.Useful, st.Wasted, st.Invalid)
	}
	// CPU is conserved: every result's CPU is counted once.
	if st.CPUSeconds <= 0 || st.WastedSeconds > st.CPUSeconds {
		t.Fatalf("cpu accounting wrong: %+v", st)
	}
	// Points accounting present and the bias is the hardware share.
	if rep.PointsTotal <= 0 {
		t.Fatal("no points granted")
	}
	if rep.AccountingBias < 1 || rep.AccountingBias > 3 {
		t.Fatalf("accounting bias %v outside hardware-factor band", rep.AccountingBias)
	}
}

// TestPipelineWorkunitToKernel checks that a planned workunit is actually
// executable by the kernel and produces a valid §5.2 result file.
func TestPipelineWorkunitToKernel(t *testing.T) {
	ds := protein.Generate(4, 50)
	for _, p := range ds.Proteins {
		p.Nsep = 6
	}
	m := costmodel.Measure(ds, docking.MinimizeParams{MaxIter: 2, GammaSub: 1})
	plan := workunit.NewPlan(ds, m, 1e-3) // tiny h: multiple WUs per couple
	var first workunit.Workunit
	got := false
	plan.ForEach(func(w workunit.Workunit) bool {
		first = w
		got = true
		return false
	})
	if !got {
		t.Fatal("no workunits")
	}
	rec, lig := ds.Proteins[first.Receptor], ds.Proteins[first.Ligand]
	task := docking.NewTask(rec, lig, first.ISepLo, first.ISepHi, protein.NRotWorkunit,
		docking.MinimizeParams{MaxIter: 2, GammaSub: 1})
	results := task.Run()
	lines := (first.ISepHi - first.ISepLo + 1) * protein.NRotWorkunit
	if len(results) != lines {
		t.Fatalf("kernel produced %d lines, workunit promised %d", len(results), lines)
	}
	var buf bytes.Buffer
	if err := docking.WriteResults(&buf, results); err != nil {
		t.Fatal(err)
	}
	parsed, err := docking.ParseResults(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := docking.DefaultValidRange.CheckResults(parsed, lines); err != nil {
		t.Fatalf("workunit output fails §5.2 validation: %v", err)
	}
}

// TestPipelineValidateArchive runs kernel → result files → the §5.2
// checks for every couple of a tiny campaign, and checks that the archive
// holds the lines EstimateArchive predicts.
func TestPipelineValidateArchive(t *testing.T) {
	ds := protein.Generate(2, 60)
	for _, p := range ds.Proteins {
		p.Nsep = 3
	}
	params := docking.MinimizeParams{MaxIter: 2, GammaSub: 1}
	var lines int64
	for _, rec := range ds.Proteins {
		for _, lig := range ds.Proteins {
			results := docking.DockRange(rec, lig, 1, rec.Nsep, protein.NRotWorkunit, params, nil)
			var buf bytes.Buffer
			if err := docking.WriteResults(&buf, results); err != nil {
				t.Fatal(err)
			}
			parsed, err := docking.ParseResults(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if err := docking.DefaultValidRange.CheckResults(parsed, rec.Nsep*protein.NRotWorkunit); err != nil {
				t.Fatalf("couple (%s, %s): %v", rec.Name, lig.Name, err)
			}
			lines += int64(len(parsed))
		}
	}
	if want, _, _ := validate.EstimateArchive(ds); lines != want {
		t.Fatalf("archive lines %d, EstimateArchive predicts %d", lines, want)
	}
}

// TestPhaseIISimulationMatchesTable3 validates the §7 forecast dynamically:
// a grid supplying the Table 3 VFTP completes the phase II workload in
// about the predicted 40 weeks.
func TestPhaseIISimulationMatchesTable3(t *testing.T) {
	rep := system().SimulatePhaseII(1.0 / 168) // one ligand per receptor
	if !rep.Completed {
		t.Fatal("phase II simulation did not complete")
	}
	predicted := forecast.PaperForecast().WeeksII
	if rep.WeeksElapsed < predicted*0.75 || rep.WeeksElapsed > predicted*1.35 {
		t.Fatalf("phase II took %.0f weeks, Table 3 predicts %.0f", rep.WeeksElapsed, predicted)
	}
}

// TestAccountingModesEndToEnd compares UD and BOINC accounting over the
// same campaign: identical completion, lower reported totals under BOINC.
func TestAccountingModesEndToEnd(t *testing.T) {
	run := func(mode volunteer.AccountingMode) *project.Report {
		cfg := system().CampaignConfig(1.0/168, 0)
		cfg.Host.Accounting = mode
		return project.New(cfg).Run()
	}
	ud := run(volunteer.UDWallClock)
	boinc := run(volunteer.BOINCCPUTime)
	if !ud.Completed || !boinc.Completed {
		t.Fatal("campaigns incomplete")
	}
	// Physics identical (same seeds, same wall times): same duration.
	if math.Abs(ud.WeeksElapsed-boinc.WeeksElapsed) > 2 {
		t.Fatalf("durations diverge: %v vs %v weeks", ud.WeeksElapsed, boinc.WeeksElapsed)
	}
	// Reported CPU (and hence VFTP) much lower under CPU-time accounting.
	ratio := ud.ServerStats.CPUSeconds / boinc.ServerStats.CPUSeconds
	want := volunteer.UDThrottleFactor * volunteer.PriorityFactor
	if ratio < want*0.9 || ratio > want*1.1 {
		t.Fatalf("accounting ratio %.2f, want ≈ %.2f", ratio, want)
	}
}
