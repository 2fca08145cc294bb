package project

import (
	"math"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/protein"
	"repro/internal/vftp"
)

// testConfig returns a heavily scaled-down campaign that still exercises
// every mechanism: three phases, batch release, redundancy, timeouts.
func testConfig(t testing.TB, scale float64) Config {
	t.Helper()
	ds := protein.HCMD168()
	m := costmodel.SynthesizeHCMD(ds)
	cfg := DefaultConfig(ds, m)
	cfg.WorkScale = scale
	cfg.HostScale = scale
	return cfg
}

// runScaled caches one scaled campaign run for the package's tests.
var cachedReport *Report

func scaledReport(t testing.TB) *Report {
	t.Helper()
	if cachedReport == nil {
		cfg := testConfig(t, 1.0/168) // one ligand per receptor
		cachedReport = New(cfg).Run()
	}
	return cachedReport
}

func TestCampaignCompletes(t *testing.T) {
	r := scaledReport(t)
	if !r.Completed {
		t.Fatalf("campaign did not complete within %v weeks", r.Config.MaxWeeks)
	}
	if r.ServerStats.Completed != r.DistinctWUs {
		t.Fatalf("completed %d of %d distinct workunits", r.ServerStats.Completed, r.DistinctWUs)
	}
}

func TestCampaignDurationShape(t *testing.T) {
	// The paper: 26 weeks. Accept a generous band — the scaled run keeps
	// the shape, not the exact length.
	r := scaledReport(t)
	if r.WeeksElapsed < 18 || r.WeeksElapsed > 40 {
		t.Fatalf("campaign took %.1f weeks, want ≈ 26", r.WeeksElapsed)
	}
}

func TestRedundancyFactorShape(t *testing.T) {
	// Paper: 1.37 overall (73 % useful results).
	r := scaledReport(t)
	red := r.ServerStats.RedundancyFactor()
	if red < 1.1 || red > 1.7 {
		t.Fatalf("redundancy factor %.3f, want ≈ 1.37", red)
	}
	useful := r.ServerStats.UsefulFraction()
	if useful < 0.55 || useful > 0.92 {
		t.Fatalf("useful fraction %.3f, want ≈ 0.73", useful)
	}
}

func TestThreePhasesVisible(t *testing.T) {
	r := scaledReport(t)
	s := r.HCMDVFTP
	if s.Len() < 15 {
		t.Fatalf("too few weekly points: %d", s.Len())
	}
	control := s.Window(1, r.Config.ControlWeeks-1).YMean()
	full := s.Window(r.Config.ControlWeeks+r.Config.RampWeeks+1, r.WeeksElapsed-2).YMean()
	if !(full > 4*control) {
		t.Fatalf("full-power VFTP %.0f not ≫ control %.0f", full, control)
	}
}

func TestVFTPMagnitudes(t *testing.T) {
	// Paper (Figure 6a): whole-period average 16,450; full power 26,248.
	r := scaledReport(t)
	if r.AvgVFTPWhole < 8000 || r.AvgVFTPWhole > 30000 {
		t.Fatalf("whole-period VFTP %.0f, want ≈ 16,450", r.AvgVFTPWhole)
	}
	if r.AvgVFTPFullPower < 15000 || r.AvgVFTPFullPower > 40000 {
		t.Fatalf("full-power VFTP %.0f, want ≈ 26,248", r.AvgVFTPFullPower)
	}
	if r.AvgVFTPFullPower <= r.AvgVFTPWhole {
		t.Fatal("full-power average must exceed whole-period average")
	}
}

func TestTotalFactorShape(t *testing.T) {
	// Paper: consumed CPU = 5.43× the reference estimate.
	r := scaledReport(t)
	f := r.TotalFactor()
	if f < 3.5 || f > 7.5 {
		t.Fatalf("total factor %.2f, want ≈ 5.43", f)
	}
	// And the speed-down net of redundancy ≈ 3.96.
	net := f / r.ServerStats.RedundancyFactor()
	if net < 3.0 || net > 5.0 {
		t.Fatalf("net speed-down %.2f, want ≈ 3.96", net)
	}
}

func TestProgressionSnapshots(t *testing.T) {
	r := scaledReport(t)
	if len(r.Snapshots) != len(r.Config.SnapshotWeeks) {
		t.Fatalf("got %d snapshots, want %d", len(r.Snapshots), len(r.Config.SnapshotWeeks))
	}
	prev := -1.0
	for _, s := range r.Snapshots {
		if s.OverallFraction < prev-1e-9 {
			t.Fatalf("overall progression decreased: %v after %v", s.OverallFraction, prev)
		}
		prev = s.OverallFraction
		if len(s.PerBatch) != r.Config.DS.Len() {
			t.Fatalf("snapshot has %d batches", len(s.PerBatch))
		}
	}
	// Figure 7's headline: cheapest-first means the fraction of proteins
	// done runs ahead of the fraction of work done (85% proteins vs 47%
	// work on 05-02-07).
	mid := r.Snapshots[2]
	if !(mid.ProteinsDoneFraction() > mid.OverallFraction) {
		t.Fatalf("proteins done %.2f should exceed work done %.2f under cheapest-first",
			mid.ProteinsDoneFraction(), mid.OverallFraction)
	}
	// Final snapshot near completion.
	last := r.Snapshots[len(r.Snapshots)-1]
	if last.OverallFraction < 0.8 {
		t.Fatalf("final snapshot only %.2f complete", last.OverallFraction)
	}
}

func TestReportedHoursFigure8(t *testing.T) {
	// Paper: packaged ≈ 3.3 h on the reference CPU, observed ≈ 13 h on the
	// volunteer grid.
	r := scaledReport(t)
	if r.MeanReportedH < 8 || r.MeanReportedH > 20 {
		t.Fatalf("mean reported hours %.1f, want ≈ 13", r.MeanReportedH)
	}
	if r.ReportedHours.Total() == 0 {
		t.Fatal("empty reported-hours histogram")
	}
}

func TestTable2FromRun(t *testing.T) {
	r := scaledReport(t)
	rows := r.Table2()
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Paper: 3,029 and 4,833 dedicated processors. Shape: thousands, and
	// full power > whole period.
	if rows[0].Dedicated < 1200 || rows[0].Dedicated > 6500 {
		t.Fatalf("whole-period equivalent %.0f, want ≈ 3,029", rows[0].Dedicated)
	}
	if rows[1].Dedicated <= rows[0].Dedicated {
		t.Fatal("full-power equivalent must exceed whole-period")
	}
	if rows[1].Dedicated < 2000 || rows[1].Dedicated > 9000 {
		t.Fatalf("full-power equivalent %.0f, want ≈ 4,833", rows[1].Dedicated)
	}
}

func TestShareSchedule(t *testing.T) {
	cfg := testConfig(t, 1.0/168)
	if got := cfg.Share(0); got != cfg.ControlShare {
		t.Fatalf("share(0) = %v", got)
	}
	if got := cfg.Share(cfg.ControlWeeks + cfg.RampWeeks + 1); got != cfg.FullShare {
		t.Fatalf("full share = %v", got)
	}
	mid := cfg.Share(cfg.ControlWeeks + cfg.RampWeeks/2)
	if mid <= cfg.ControlShare || mid >= cfg.FullShare {
		t.Fatalf("ramp share %v not between %v and %v", mid, cfg.ControlShare, cfg.FullShare)
	}
	// Monotone over the ramp.
	prev := -1.0
	for w := 0.0; w < 20; w += 0.5 {
		s := cfg.Share(w)
		if s < prev-1e-12 {
			t.Fatalf("share not monotone at week %v", w)
		}
		prev = s
	}
}

func TestLaunchOrderCheapestFirst(t *testing.T) {
	cfg := testConfig(t, 1.0/168)
	c := New(cfg)
	c.t.prepare()
	prev := -1.0
	for _, bi := range c.t.order {
		cost := c.t.batches[bi].cost
		if cost < prev-1e-9 {
			t.Fatal("batches not in ascending cost order")
		}
		prev = cost
	}
}

func TestLaunchOrderCostliestFirst(t *testing.T) {
	cfg := testConfig(t, 1.0/168)
	cfg.Order = CostliestFirst
	c := New(cfg)
	c.t.prepare()
	if c.t.batches[c.t.order[0]].cost < c.t.batches[c.t.order[len(c.t.order)-1]].cost {
		t.Fatal("costliest-first order wrong")
	}
}

func TestLaunchOrderRandomDeterministic(t *testing.T) {
	cfg := testConfig(t, 1.0/168)
	cfg.Order = RandomOrder
	a := New(cfg)
	a.t.prepare()
	b := New(cfg)
	b.t.prepare()
	for i := range a.t.order {
		if a.t.order[i] != b.t.order[i] {
			t.Fatal("random order not seed-deterministic")
		}
	}
}

func TestWorkScaleConservation(t *testing.T) {
	// Total released work at scale s must be ≈ s × full total.
	cfg := testConfig(t, 1.0/168)
	c := New(cfg)
	c.t.prepare()
	full := cfg.M.TotalWork(cfg.DS)
	want := full / 168
	if math.Abs(c.t.report.TotalRefWork-want)/want > 0.25 {
		t.Fatalf("scaled work %.3g, want ≈ %.3g", c.t.report.TotalRefWork, want)
	}
}

func TestConfigValidation(t *testing.T) {
	ds := protein.Generate(4, 1)
	m := costmodel.Synthesize(ds, costmodel.SynthesizeOptions{Seed: 1})
	cases := []Config{
		{},
		func() Config { c := DefaultConfig(ds, m); c.WorkScale = 0; return c }(),
		func() Config { c := DefaultConfig(ds, m); c.WorkScale = 2; return c }(),
		func() Config { c := DefaultConfig(ds, m); c.HostScale = 0; return c }(),
	}
	for i, cfg := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %d should panic", i)
				}
			}()
			New(cfg)
		}()
	}
}

// TestSpeedDownObservedAccessor: the observed speed-down is the paper's
// ratio of observed to packaged mean hours (§6: 13 h over 3.3 h = 3.96),
// within 15 % at 1/168. Dividing it by redundancy a second time read 2.99.
func TestSpeedDownObservedAccessor(t *testing.T) {
	r := scaledReport(t)
	meanRef := r.TotalRefWork / float64(r.DistinctWUs) / 3600
	sd := r.SpeedDownObserved(meanRef)
	if math.Abs(sd-3.96) > 0.15*3.96 {
		t.Fatalf("observed speed-down %.2f, want 3.96 ± 15 %%", sd)
	}
	if r.SpeedDownObserved(0) != 0 {
		t.Fatal("zero mean ref should yield 0")
	}
}

func TestPaperConstantsCrossCheck(t *testing.T) {
	// The phase schedule must reproduce the paper's whole-period average
	// analytically: Σ share(w)·grid(w) / 26 ≈ 16,450.
	cfg := testConfig(t, 1.0/168)
	var sum float64
	for w := 0.0; w < 26; w++ {
		sum += cfg.Share(w) * cfg.Grid.VFTPAt(CampaignStartWeek+w)
	}
	avg := sum / 26
	if avg < 12000 || avg > 22000 {
		t.Fatalf("analytic whole-period VFTP %.0f, want ≈ 16,450", avg)
	}
	_ = vftp.PaperTotalFactor
}
