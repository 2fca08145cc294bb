// Command forecast evaluates the §7 phase II plan (Table 3) and arbitrary
// what-if variants of it.
//
// Usage:
//
//	forecast [-proteins 4000] [-reduction 100] [-weeks 40] [-share 0.25]
//
// -proteins must be positive, -reduction and -weeks finite and positive,
// and -share in (0, 1]; any other value exits 2.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"repro/internal/forecast"
	"repro/internal/report"
)

func main() {
	proteins := flag.Int("proteins", 4000, "phase II protein count")
	reduction := flag.Float64("reduction", 100, "docking-point reduction factor")
	weeks := flag.Float64("weeks", 40, "wanted completion time (weeks)")
	share := flag.Float64("share", 0.25, "project share of the grid")
	flag.Parse()

	switch {
	case *proteins < 1:
		usage("-proteins must be positive")
	case !(*reduction > 0) || math.IsInf(*reduction, 1):
		usage("-reduction must be finite and positive")
	case !(*weeks > 0) || math.IsInf(*weeks, 1):
		usage("-weeks must be finite and positive")
	case !(*share > 0 && *share <= 1):
		usage("-share must be in (0, 1]")
	}

	plan := forecast.PhaseIIPlan{
		Proteins:        *proteins,
		PointsReduction: *reduction,
		TargetWeeks:     *weeks,
		GridShare:       *share,
	}
	fc := forecast.Estimate(forecast.PaperPhaseI(), plan)

	t := report.NewTable("Table 3: evaluation of the HCMD phase II",
		"", "HCMD phase I", "HCMD phase II")
	for _, r := range fc.Table3() {
		t.AddRow(r.Label, report.Comma(r.PhaseI), report.Comma(r.PhaseII))
	}
	fmt.Print(t.String())
	fmt.Printf("\nwork ratio phase II / phase I: %.2f\n", fc.WorkRatio)
	fmt.Printf("at the phase I rate phase II takes %.0f weeks\n", fc.WeeksAtPhaseIRate)
	if fc.GridMembersNeeded > 0 {
		fmt.Printf("members needed at %.0f%% grid share: %s (%s new volunteers)\n",
			*share*100, report.Comma(fc.GridMembersNeeded), report.Comma(fc.NewMembersNeeded))
	}
}

// usage reports a bad flag value and exits 2, as the flag package does.
func usage(msg string) {
	fmt.Fprintln(os.Stderr, "forecast: "+msg)
	os.Exit(2)
}
