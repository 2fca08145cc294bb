// Volunteer-grid example: run a scaled HCMD campaign end-to-end on the
// simulated World Community Grid and print the §5-§6 evaluation.
package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/project"
	"repro/internal/report"
)

func main() {
	sys := core.NewHCMD()

	// 1/168 scale: one ligand per receptor, ~25k workunits, a few seconds.
	rep := project.New(sys.CampaignConfig(1.0/168, 0)).Run()

	fmt.Printf("campaign completed: %v in %.0f weeks (paper: 26)\n", rep.Completed, rep.WeeksElapsed)
	fmt.Printf("distinct workunits: %s, results received: %s\n",
		report.Comma(float64(rep.DistinctWUs)), report.Comma(float64(rep.ServerStats.Received)))
	fmt.Printf("redundant computing: factor %.2f, useful results %.0f%%\n",
		rep.ServerStats.RedundancyFactor(), rep.ServerStats.UsefulFraction()*100)
	fmt.Printf("speed-down: total %.2f, net of redundancy %.2f (paper: 5.43 and 3.96)\n",
		rep.TotalFactor(), rep.TotalFactor()/rep.ServerStats.RedundancyFactor())

	fmt.Println("\nweekly project VFTP (Figure 6a):")
	for i := 0; i < rep.HCMDVFTP.Len(); i++ {
		week := int(rep.HCMDVFTP.X[i])
		v := rep.HCMDVFTP.Y[i]
		bar := int(v / 600)
		fmt.Printf("w%02d %7.0f |%s\n", week, v, bars(bar))
	}

	fmt.Println("\nprogression (Figure 7):")
	for _, sn := range rep.Snapshots {
		fmt.Printf("  week %5.1f: %3.0f%% proteins, %3.0f%% work\n",
			sn.Week, sn.ProteinsDoneFraction()*100, sn.OverallFraction*100)
	}

	rows := rep.Table2()
	fmt.Println("\nTable 2 from this run:")
	for _, r := range rows {
		fmt.Printf("  %s\n", r)
	}
}

func bars(n int) string {
	if n < 0 {
		n = 0
	}
	b := make([]byte, n)
	for i := range b {
		b[i] = '#'
	}
	return string(b)
}
