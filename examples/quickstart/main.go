// Quickstart: assemble the HCMD system, dock one couple of proteins, and
// plan the campaign — the first steps of the pipeline in ~40 effective
// lines.
package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/docking"
	"repro/internal/grid"
	"repro/internal/protein"
	"repro/internal/report"
)

func main() {
	// 1. The benchmark and its calibrated cost matrix (§2, §4.1).
	sys := core.NewHCMD()
	fmt.Printf("benchmark: %d proteins, %s docking instances\n",
		sys.DS.Len(), report.Comma(float64(sys.DS.Instances())))

	// 2. Dock a couple for a few starting positions (the MAXDo kernel).
	rec, lig := sys.DS.Proteins[0], sys.DS.Proteins[1]
	results := docking.DockRange(rec, lig, 1, 3, protein.NRotWorkunit, docking.MinimizeParams{MaxIter: 20, GammaSub: 2}, nil)
	best := results[0]
	for _, r := range results {
		if r.Energy.Total() < best.Energy.Total() {
			best = r
		}
	}
	fmt.Printf("docked %s vs %s: best E = %.2f kcal/mol (Elj %.2f, Eelec %.2f) at isep=%d irot=%d\n",
		rec.Name, lig.Name, best.Energy.Total(), best.Energy.LJ, best.Energy.Elec,
		best.ISep, best.IRot)

	// 3. How much work is the whole campaign? (formula 1)
	fmt.Printf("total campaign work: %s on an Opteron 2 GHz\n", report.FormatYDHMS(sys.TotalWork()))

	// 4. Slice it into 10-hour workunits (§4.2, Figure 4).
	sum := sys.Figure4(10)
	fmt.Printf("at 10-hour workunits: %s workunits (mean %.2f h)\n",
		report.Comma(float64(sum.Count)), sum.MeanSeconds/3600)

	// 5. What does that cost on a dedicated grid? (§6)
	weeks := grid.NewCluster(4833).AnalyticMakespan(sys.TotalWork()) / (7 * 86400)
	fmt.Printf("on 4,833 dedicated processors: %.1f weeks\n", weeks)
}
