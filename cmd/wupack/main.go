// Command wupack runs the §4.2 workunit packaging over the full benchmark
// and reports the Figure 4 view: workunit count, duration histogram and
// totals for a wanted duration.
//
// Usage:
//
//	wupack [-hours 10] [-bins 28] [-csv out.csv]
//
// -hours must be finite and positive and -bins in [1, 10000]; any other
// value exits 2 before anything runs.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"repro/internal/core"
	"repro/internal/report"
)

func main() {
	hours := flag.Float64("hours", 10, "wanted workunit duration (hours on the reference CPU)")
	bins := flag.Int("bins", 28, "histogram bins over [0, 14) hours")
	csvPath := flag.String("csv", "", "write the histogram as CSV")
	flag.Parse()

	if !(*hours > 0) || math.IsInf(*hours, 1) {
		fmt.Fprintln(os.Stderr, "wupack: -hours must be finite and positive")
		os.Exit(2)
	}
	if *bins < 1 || *bins > 10000 {
		fmt.Fprintln(os.Stderr, "wupack: -bins must be in [1, 10000]")
		os.Exit(2)
	}
	sys := core.NewHCMD()
	sum := sys.Package(*hours).Summarize(14, *bins)

	fmt.Printf("WantedWuExecTime = %g h, Nb wu = %s\n", *hours, report.Comma(float64(sum.Count)))
	fmt.Printf("total work %s (y:d:h:m:s), mean workunit %.2f h\n",
		report.FormatYDHMS(sum.TotalSeconds), sum.MeanSeconds/3600)
	fmt.Println()
	fmt.Print(sum.Hist.String())

	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "wupack: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := report.WriteHistogramCSV(f, sum.Hist); err != nil {
			fmt.Fprintf(os.Stderr, "wupack: %v\n", err)
			os.Exit(1)
		}
	}
}
