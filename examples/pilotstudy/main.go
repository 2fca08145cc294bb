// Pilot-study example: the §2 prelude. Before phase I, the docking program
// was exercised on 6 proteins on the Décrypthon dedicated grid; that study
// showed the computation was promising but far too expensive for a
// dedicated machine room — the argument for moving to a volunteer grid.
//
// This example reruns that story: dock a 6-protein subset on a simulated
// dedicated cluster, extrapolate the full 168-protein campaign with the
// quadratic scaling of formula (1), and compare the machine-room cost with
// what World Community Grid delivered.
package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/report"
	"repro/internal/vftp"
	"repro/internal/workunit"
)

func main() {
	sys := core.NewHCMD()
	const pilotN = 6

	// The pilot: the first 6 proteins, all couples, sliced into 10-hour
	// workunits and list-scheduled on a 64-node dedicated cluster.
	couples := make([][2]int, 0, pilotN*pilotN)
	for i := 0; i < pilotN; i++ {
		for j := 0; j < pilotN; j++ {
			couples = append(couples, [2]int{i, j})
		}
	}
	plan := sys.Package(10).WithCouples(couples)
	var durations []float64
	var pilotWork float64
	plan.ForEach(func(w workunit.Workunit) bool {
		durations = append(durations, w.RefSeconds)
		pilotWork += w.RefSeconds
		return true
	})

	cluster := grid.NewCluster(64)
	res := cluster.Schedule(durations)
	fmt.Printf("pilot: %d proteins, %d workunits, %s of CPU\n",
		pilotN, res.Tasks, report.FormatYDHMS(pilotWork))
	fmt.Printf("on a %d-node dedicated cluster: %.1f days (utilization %.0f%%)\n",
		cluster.Procs, res.Makespan/86400, res.Utilization*100)

	// Extrapolate to the full campaign: work grows with the square of the
	// protein count (formula 1).
	full := sys.TotalWork()
	naive := pilotWork * float64(168*168) / float64(pilotN*pilotN)
	fmt.Printf("\nfull campaign, quadratic extrapolation: %s (actual formula-(1) total: %s)\n",
		report.FormatYDHMS(naive), report.FormatYDHMS(full))

	fmt.Printf("on the same 64-node cluster: %.1f YEARS\n",
		cluster.AnalyticMakespan(full)/86400/365)
	fmt.Printf("to finish in 26 weeks a dedicated grid needs %s processors\n",
		report.Comma(float64(grid.ProcessorsFor(full, 26*7*86400))))
	fmt.Printf("World Community Grid delivered the equivalent of ≈ %s dedicated processors\n",
		report.Comma(vftp.DedicatedEquivalent(26248, vftp.PaperTotalFactor)))
	fmt.Println("\n⇒ the workload is feasible only on a volunteer grid — the paper's premise.")
}
