package forecast

import (
	"math"
	"testing"
)

func TestPaperTable3Exact(t *testing.T) {
	f := PaperForecast()
	// Work ratio 4000²/(168²·100) = 5.6689…
	if math.Abs(f.WorkRatio-5.6689) > 0.001 {
		t.Fatalf("work ratio = %v", f.WorkRatio)
	}
	// Table 3 row 1: cpu times.
	if f.CPUSecondsI != 254897774144 {
		t.Fatalf("phase I cpu = %v", f.CPUSecondsI)
	}
	// Paper: 1,444,998,719,637 s.
	if math.Abs(f.CPUSecondsII-1444998719637)/1444998719637 > 1e-4 {
		t.Fatalf("phase II cpu = %.0f, want 1,444,998,719,637", f.CPUSecondsII)
	}
	// Row 3: 26,341 and 59,730 VFTP.
	if math.Abs(f.VFTPI-26341) > 1 {
		t.Fatalf("phase I VFTP = %v, want 26,341", f.VFTPI)
	}
	if math.Abs(f.VFTPII-59730) > 1.5 {
		t.Fatalf("phase II VFTP = %v, want 59,730", f.VFTPII)
	}
	// Row 4: 132,490 and 300,430 members.
	if f.MembersI != 132490 {
		t.Fatalf("phase I members = %v", f.MembersI)
	}
	if math.Abs(f.MembersII-300430) > 300430*0.002 {
		t.Fatalf("phase II members = %.0f, want ≈ 300,430", f.MembersII)
	}
}

func TestSection7TextNumbers(t *testing.T) {
	f := PaperForecast()
	// "if it behaves like for the first step, it will take 90 weeks".
	if math.Abs(f.WeeksAtPhaseIRate-90) > 1 {
		t.Fatalf("weeks at phase-I rate = %.1f, want ≈ 90", f.WeeksAtPhaseIRate)
	}
	// "the HCMD project needs 1,300,000 WCG members" (25% share).
	if math.Abs(f.GridMembersNeeded-1294150)/1294150 > 0.01 {
		t.Fatalf("grid members needed = %.0f, want ≈ 1,300,000", f.GridMembersNeeded)
	}
	// "nearly 1,000,000 new volunteers".
	if f.NewMembersNeeded < 900000 || f.NewMembersNeeded > 1100000 {
		t.Fatalf("new members = %.0f, want ≈ 1,000,000", f.NewMembersNeeded)
	}
}

func TestTable3Rendering(t *testing.T) {
	rows := PaperForecast().Table3()
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	labels := []string{"cpu time in s", "Nb weeks", "Nb virtual full-time processors", "Nb members"}
	for i, r := range rows {
		if r.Label != labels[i] {
			t.Errorf("row %d label %q", i, r.Label)
		}
		if r.String() == "" {
			t.Errorf("row %d renders empty", i)
		}
	}
	nonIntegral := Table3Row{Label: "x", PhaseI: 1.5, PhaseII: 2.5}
	if nonIntegral.String() == "" {
		t.Error("non-integral row renders empty")
	}
}

func TestEstimateCustomPlan(t *testing.T) {
	// Doubling the protein count quadruples the work; halving the points
	// reduction doubles it.
	p1 := PaperPhaseI()
	base := Estimate(p1, PhaseIIPlan{Proteins: 4000, PointsReduction: 100, TargetWeeks: 40})
	quad := Estimate(p1, PhaseIIPlan{Proteins: 8000, PointsReduction: 100, TargetWeeks: 40})
	if math.Abs(quad.WorkRatio/base.WorkRatio-4) > 1e-9 {
		t.Fatalf("ratio scaling wrong: %v vs %v", quad.WorkRatio, base.WorkRatio)
	}
	harder := Estimate(p1, PhaseIIPlan{Proteins: 4000, PointsReduction: 50, TargetWeeks: 40})
	if math.Abs(harder.WorkRatio/base.WorkRatio-2) > 1e-9 {
		t.Fatal("points reduction scaling wrong")
	}
	// Halving the target weeks doubles the needed VFTP.
	fast := Estimate(p1, PhaseIIPlan{Proteins: 4000, PointsReduction: 100, TargetWeeks: 20})
	if math.Abs(fast.VFTPII/base.VFTPII-2) > 1e-9 {
		t.Fatal("weeks scaling wrong")
	}
}

func TestEstimateDerivedYield(t *testing.T) {
	p1 := PaperPhaseI()
	p1.MemberYield = 0.2 // explicit yield overrides the derived one
	f := Estimate(p1, PaperPhaseIIPlan())
	want := f.VFTPII / 0.2
	if math.Abs(f.MembersII-want) > 1 {
		t.Fatalf("explicit yield ignored: %v vs %v", f.MembersII, want)
	}
}

func TestEstimateNoShare(t *testing.T) {
	f := Estimate(PaperPhaseI(), PhaseIIPlan{Proteins: 4000, PointsReduction: 100, TargetWeeks: 40, GridShare: 0})
	if f.GridMembersNeeded != 0 || f.NewMembersNeeded != 0 {
		t.Fatal("share-less plan should skip grid-member estimates")
	}
}

// TestMeasuredShareInputPath: Table 3's member arithmetic recomputed from
// a simulated share instead of the hardcoded 25 %. A measured share equal
// to the paper's assumption must reproduce the paper's numbers exactly;
// a different measured share rescales the member need inversely.
func TestMeasuredShareInputPath(t *testing.T) {
	p1 := PaperPhaseI()
	assumed := Estimate(p1, PaperPhaseIIPlan())

	// Measured == assumed ⇒ identical to the paper's Table 3 / §7 numbers.
	same := PaperPhaseIIPlan()
	same.MeasuredShare = same.GridShare
	f := Estimate(p1, same)
	if f.GridMembersNeeded != assumed.GridMembersNeeded || f.NewMembersNeeded != assumed.NewMembersNeeded {
		t.Fatalf("measured share equal to the assumption diverged: %v vs %v",
			f.GridMembersNeeded, assumed.GridMembersNeeded)
	}
	// And against the paper's own text: ~1,300,000 members at 25 %.
	if math.Abs(f.GridMembersNeeded-1294150)/1294150 > 0.01 {
		t.Fatalf("members at measured 25%% = %.0f, want ≈ 1,300,000", f.GridMembersNeeded)
	}

	// A measured share of 50 % halves the membership requirement; the
	// measured path overrides the assumption, not the other way round.
	half := PaperPhaseIIPlan()
	half.MeasuredShare = 0.5
	g := Estimate(p1, half)
	if math.Abs(g.GridMembersNeeded*2-assumed.GridMembersNeeded) > 1 {
		t.Fatalf("doubled share should halve the member need: %v vs %v",
			g.GridMembersNeeded, assumed.GridMembersNeeded)
	}
	// Everything share-independent is untouched.
	if g.VFTPII != assumed.VFTPII || g.MembersII != assumed.MembersII {
		t.Fatal("measured share must only affect the grid-member arithmetic")
	}
}

func TestEstimatePanics(t *testing.T) {
	good1 := PaperPhaseI()
	goodPlan := PaperPhaseIIPlan()
	cases := []func(){
		func() { Estimate(PhaseI{}, goodPlan) },
		func() { Estimate(good1, PhaseIIPlan{}) },
		func() {
			p := good1
			p.Members = 0
			Estimate(p, goodPlan)
		},
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestVFTPOverride(t *testing.T) {
	p := PaperPhaseI()
	p.VFTPObserved = 30000
	f := Estimate(p, PaperPhaseIIPlan())
	if math.Abs(f.VFTPI-30000) > 1e-9 {
		t.Fatalf("VFTP override ignored: %v", f.VFTPI)
	}
}
