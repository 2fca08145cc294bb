// Command gridcmp compares the volunteer grid with a dedicated grid (§6,
// Table 2): it converts virtual full-time processors into equivalent
// dedicated reference processors and reports the dedicated-grid makespan of
// the whole campaign.
//
// Usage:
//
//	gridcmp [-vftp-whole 16450] [-vftp-full 26248] [-factor 5.43] [-procs 640]
//
// -vftp-whole and -vftp-full must be finite and non-negative, -factor
// finite and positive and -procs positive; any other value exits 2 before
// anything runs.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/report"
	"repro/internal/vftp"
)

func main() {
	whole := flag.Float64("vftp-whole", 16450, "whole-period volunteer VFTP")
	full := flag.Float64("vftp-full", 26248, "full-power-phase volunteer VFTP")
	factor := flag.Float64("factor", vftp.PaperTotalFactor, "total CPU inflation (speed-down × redundancy)")
	procs := flag.Int("procs", 4833, "dedicated cluster size for the makespan estimate")
	flag.Parse()

	switch {
	case !(*whole >= 0) || math.IsInf(*whole, 1):
		usage("-vftp-whole must be finite and non-negative")
	case !(*full >= 0) || math.IsInf(*full, 1):
		usage("-vftp-full must be finite and non-negative")
	case !(*factor > 0) || math.IsInf(*factor, 1):
		usage("-factor must be finite and positive")
	case *procs < 1:
		usage("-procs must be positive")
	}

	rows := vftp.Table2(*whole, *full, *factor)
	t := report.NewTable("Table 2: equivalence between volunteer VFTP and dedicated processors",
		"Grid", "whole period", "full power working phase")
	t.AddRow("World Community Grid", report.Comma(rows[0].Volunteer), report.Comma(rows[1].Volunteer))
	t.AddRow("Dedicated Grid", report.Comma(rows[0].Dedicated), report.Comma(rows[1].Dedicated))
	fmt.Print(t.String())

	sys := core.NewHCMD()
	total := sys.TotalWork()
	mk := grid.NewCluster(*procs).AnalyticMakespan(total)
	fmt.Printf("\ncampaign total: %s on the reference CPU\n", report.FormatYDHMS(total))
	fmt.Printf("dedicated makespan on %s processors: %.1f weeks\n",
		report.Comma(float64(*procs)), mk/(7*86400))
	fmt.Printf("processors to finish in 26 weeks: %s\n",
		report.Comma(float64(grid.ProcessorsFor(total, 26*7*86400))))
}

// usage reports a bad flag value and exits 2, as the flag package does.
func usage(msg string) {
	fmt.Fprintln(os.Stderr, "gridcmp: "+msg)
	os.Exit(2)
}
