// Command hcmdsim runs the full HCMD phase I reproduction: it assembles the
// benchmark, calibrates the cost matrix, packages workunits, simulates the
// campaign on the volunteer grid, and prints every table and figure of the
// paper. With -outdir it also writes the figure series as CSV files.
//
// Usage:
//
//	hcmdsim [-scale 1/N] [-hours H] [-outdir DIR] [-fig1days D] [-seed S]
//	        [-coshare F] [-cpuprofile FILE] [-memprofile FILE]
//	        [-metrics FILE] [-trace FILE] [-sample-every S]
//	        [-maintenance-hours H] [-outage-rate R] [-outage-hours H]
//	        [-upload-loss P] [-churn-weekly F] [-fault-seed N]
//
// The default scale (1/84) finishes in under a second; -scale 1 simulates
// the full 3.9-million-workunit campaign in a few seconds (2.2–3.7 s on a
// 2-core VM, with a peak Go heap near 140 MB).
//
// A flag value out of range (-scale outside (0, 1], -fig1days outside
// [1, 36400], a negative or non-finite -hours, ...) exits 2 before
// anything runs or any file is written.
//
// With -coshare F (0 < F < 1) it additionally co-runs the HCMD workload at
// resource share F on a shared grid against a phase-II-sized co-project
// holding 1−F, then recomputes the §7 member arithmetic from the measured
// share next to the assumed one — the Table 3 grid-share assumption
// cross-validated by simulation instead of taken as a constant.
//
// The fault flags install the internal/faults plane under the campaign:
// planned weekly maintenance windows, seeded unplanned outages, flaky
// result uploads, and permanent host churn with replacement joins. Hosts
// degrade gracefully (capped exponential backoff, smeared reconnects,
// upload retries) and the run ends with a one-line fault summary.
//
// -cpuprofile / -memprofile write pprof files covering the run, the same
// profiling loop cmd/sweep has. -metrics / -trace attach the observability
// probe to the campaign simulation and stream its sim-time metric samples
// and structured run-trace events as NDJSON; the probe is run-neutral, so
// an instrumented campaign prints exactly the tables a bare one does.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/forecast"
	"repro/internal/obs"
	"repro/internal/project"
	"repro/internal/report"
)

// maxFig1Days bounds -fig1days: a century of grid history.
const maxFig1Days = 100 * 364

func main() {
	scale := flag.Float64("scale", 1.0/84, "work and host scale (0 < s <= 1)")
	hours := flag.Float64("hours", 0, "workunit target duration in hours (0 = deployed 3.7)")
	outdir := flag.String("outdir", "", "directory for CSV figure series (optional)")
	fig1Days := flag.Int("fig1days", 3*364, "days of grid history for Figure 1")
	seed := flag.Uint64("seed", 0, "campaign seed (0 = the deployed default)")
	coshare := flag.Float64("coshare", 0, "co-run HCMD at this grid share against a phase-II co-project and cross-validate the §7 share assumption (0 = off)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile (captured after the run) to this file")
	metricsPath := flag.String("metrics", "", "write campaign metric samples (NDJSON) to this file")
	tracePath := flag.String("trace", "", "write campaign run-trace events (NDJSON) to this file")
	sampleEvery := flag.Float64("sample-every", 0, "metrics sampling cadence in sim seconds (0 = half a sim day)")
	maintHours := flag.Float64("maintenance-hours", 0, "planned weekly server maintenance window, in sim hours (0 = off)")
	outageRate := flag.Float64("outage-rate", 0, "unplanned server outages per sim week (0 = off)")
	outageHours := flag.Float64("outage-hours", 12, "mean unplanned outage duration in sim hours (with -outage-rate)")
	uploadLoss := flag.Float64("upload-loss", 0, "per-result upload loss probability in [0,1) (0 = off; lost uploads retry 3 times)")
	churnWeekly := flag.Float64("churn-weekly", 0, "fraction of the fleet departing permanently per sim week, replaced by fresh joins (0 = off)")
	faultSeed := flag.Uint64("fault-seed", 0, "fault-plane seed override (0 = derived from the campaign seed)")
	flag.Parse()

	if !(*scale > 0 && *scale <= 1) {
		fmt.Fprintln(os.Stderr, "hcmdsim: -scale must be in (0, 1]")
		os.Exit(2)
	}
	if !(*coshare >= 0 && *coshare < 1) {
		fmt.Fprintln(os.Stderr, "hcmdsim: -coshare must be in (0, 1)")
		os.Exit(2)
	}
	if !(*hours >= 0) || math.IsInf(*hours, 1) {
		fmt.Fprintln(os.Stderr, "hcmdsim: -hours must be finite and ≥ 0 (0 = deployed 3.7)")
		os.Exit(2)
	}
	if err := obs.CheckSampleEvery(*sampleEvery); err != nil {
		fmt.Fprintf(os.Stderr, "hcmdsim: -sample-every: %v\n", err)
		os.Exit(2)
	}
	if *fig1Days < 1 || *fig1Days > maxFig1Days {
		fmt.Fprintf(os.Stderr, "hcmdsim: -fig1days must be in [1, %d]\n", maxFig1Days)
		os.Exit(2)
	}
	fcfg, ferr := faults.Flags{MaintenanceHours: *maintHours, OutageRate: *outageRate, OutageHours: *outageHours,
		UploadLoss: *uploadLoss, ChurnWeekly: *churnWeekly, Seed: *faultSeed}.Config()
	if ferr != nil {
		fmt.Fprintf(os.Stderr, "hcmdsim: %v\n", ferr)
		os.Exit(2)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hcmdsim: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "hcmdsim: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "hcmdsim: -memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the live set so the profile shows retention, not garbage
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "hcmdsim: -memprofile: %v\n", err)
			}
		}()
	}

	sys := core.NewHCMD()

	fmt.Println("== HCMD phase I planning ==")
	fmt.Printf("proteins: %d, ΣNsep = %s, generatable workunits = %s\n",
		sys.DS.Len(), report.Comma(float64(sys.DS.SumNsep())), report.Comma(float64(sys.DS.Instances())))
	total := sys.TotalWork()
	fmt.Printf("formula (1) total work: %s (y:d:h:m:s) on the reference CPU (paper: 1,488:237:19:45:54)\n",
		report.FormatYDHMS(total))

	s := sys.Table1()
	t1 := report.NewTable("Table 1: computation-time matrix statistics (s)",
		"average", "standard deviation", "min", "max", "median")
	t1.AddRow(fmt.Sprintf("%.0f", s.Mean), fmt.Sprintf("%.2f", s.Std),
		fmt.Sprintf("%.0f", s.Min), fmt.Sprintf("%.0f", s.Max), fmt.Sprintf("%.0f", s.Median))
	fmt.Println()
	fmt.Print(t1.String())

	fmt.Println("\n== Figure 4: workunit packaging ==")
	for _, h := range []float64{10, 4} {
		sum := sys.Figure4(h)
		fmt.Printf("wanted %v h: %s workunits, mean %.2f h\n",
			h, report.Comma(float64(sum.Count)), sum.MeanSeconds/3600)
	}

	fmt.Printf("\n== Campaign simulation (scale %.5f) ==\n", *scale)
	cfg := sys.CampaignConfig(*scale, *hours)
	if *seed != 0 {
		cfg.Seed = *seed
	}
	cfg.Faults = fcfg
	probe, flushObs, perr := openProbe(*metricsPath, *tracePath, *sampleEvery)
	if perr != nil {
		fmt.Fprintf(os.Stderr, "hcmdsim: %v\n", perr)
		os.Exit(1)
	}
	cfg.Probe = probe
	rep := project.New(cfg).Run()
	if err := flushObs(); err != nil {
		fmt.Fprintf(os.Stderr, "hcmdsim: observability output: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("completed: %v in %.0f weeks (paper: 26)\n", rep.Completed, rep.WeeksElapsed)
	fmt.Printf("results received: %s (distinct %s) — redundancy %.2f (paper 1.37), useful %.0f%% (paper 73%%)\n",
		report.Comma(float64(rep.ServerStats.Received) / *scale),
		report.Comma(float64(rep.ServerStats.Completed) / *scale),
		rep.ServerStats.RedundancyFactor(), rep.ServerStats.UsefulFraction()*100)
	fmt.Printf("consumed CPU: %s — total factor %.2f (paper 5.43), net speed-down %.2f (paper 3.96)\n",
		report.FormatYDHMS(rep.ServerStats.CPUSeconds / *scale),
		rep.TotalFactor(), rep.TotalFactor()/rep.ServerStats.RedundancyFactor())
	fmt.Printf("mean reported workunit time: %.1f h (paper ≈ 13 h)\n", rep.MeanReportedH)
	fmt.Printf("VFTP: whole period %.0f (paper 16,450), full power %.0f (paper 26,248)\n",
		rep.AvgVFTPWhole, rep.AvgVFTPFullPower)
	if fr := rep.Faults; fr != nil {
		fmt.Printf("faults: %d outages (%d planned, %.1f h down), uploads lost %d / dropped %d, hosts churned %d, mean recovery %.1f min\n",
			fr.Outages, fr.PlannedOutages, fr.DowntimeSeconds/3600,
			fr.LostUploads, fr.DroppedResults, fr.Departures, fr.MeanRecoverySeconds/60)
	}

	fmt.Println("\n== Figure 7: progression snapshots ==")
	for _, sn := range rep.Snapshots {
		fmt.Printf("week %5.1f: %3.0f%% of proteins docked, %3.0f%% of computation done\n",
			sn.Week, sn.ProteinsDoneFraction()*100, sn.OverallFraction*100)
	}

	fmt.Println("\n== Table 2: volunteer vs dedicated grid ==")
	t2 := report.NewTable("", "Grid", "whole period", "full power working phase")
	rows := rep.Table2()
	t2.AddRow("World Community Grid", report.Comma(rows[0].Volunteer), report.Comma(rows[1].Volunteer))
	t2.AddRow("Dedicated Grid", report.Comma(rows[0].Dedicated), report.Comma(rows[1].Dedicated))
	fmt.Print(t2.String())

	fmt.Println("\n== Table 3: phase II evaluation ==")
	fc := sys.ForecastPhaseII()
	t3 := report.NewTable("", "", "HCMD phase I", "HCMD phase II")
	for _, r := range fc.Table3() {
		t3.AddRow(r.Label, report.Comma(r.PhaseI), report.Comma(r.PhaseII))
	}
	fmt.Print(t3.String())
	fmt.Printf("at the phase I rate: %.0f weeks; members needed at 25%% share: %s (%s new)\n",
		fc.WeeksAtPhaseIRate, report.Comma(fc.GridMembersNeeded), report.Comma(fc.NewMembersNeeded))

	if *coshare > 0 {
		fmt.Printf("\n== Shared-grid cross-validation (HCMD share %.0f%%) ==\n", *coshare*100)
		gcfg := sys.CoShareConfig(*scale, *coshare)
		if *seed != 0 {
			// -seed reseeds the co-run too (host streams and tie-breaks;
			// the workloads themselves stay the benchmark's).
			gcfg.Seed = *seed
			for i := range gcfg.Projects {
				gcfg.Projects[i].Seed = *seed + uint64(i)
			}
		}
		gr := project.NewGrid(gcfg).Run()
		plan := forecast.PaperPhaseIIPlan()
		plan.GridShare = *coshare
		check := sys.CrossValidateGridShare(gr, 0, plan)
		fmt.Printf("configured share %.3f → measured %.3f over %.0f contended weeks (|err| %.4f)\n",
			check.AssumedShare, check.MeasuredShare, gr.ShareWindowWeeks, check.AbsError)
		fmt.Printf("members needed: %s assumed vs %s measured (%s vs %s new)\n",
			report.Comma(check.Assumed.GridMembersNeeded), report.Comma(check.Measured.GridMembersNeeded),
			report.Comma(check.Assumed.NewMembersNeeded), report.Comma(check.Measured.NewMembersNeeded))
	}

	if *outdir != "" {
		if err := writeCSVs(sys, rep, *outdir, *fig1Days); err != nil {
			fmt.Fprintf(os.Stderr, "hcmdsim: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("\nCSV series written to %s\n", *outdir)
	}
}

// openProbe builds the -metrics/-trace observability probe for the single
// campaign run. The returned flush writes the collected metric samples,
// then flushes and closes the files; both probe and flush are no-op when
// neither path is set.
func openProbe(metricsPath, tracePath string, sampleEvery float64) (*obs.Probe, func() error, error) {
	if metricsPath == "" && tracePath == "" {
		return nil, func() error { return nil }, nil
	}
	sinks, closeSinks, err := obs.CreateFileSinks(metricsPath, tracePath)
	if err != nil {
		return nil, nil, fmt.Errorf("-metrics/-trace: %w", err)
	}
	msink, tsink := sinks[0], sinks[1]
	p := &obs.Probe{SampleEvery: sampleEvery}
	if msink != nil {
		p.Metrics = obs.NewRegistry(0)
	}
	if tsink != nil {
		p.Trace = obs.NewTrace(tsink)
	}
	flush := func() error {
		if p.Metrics != nil {
			p.Metrics.WriteNDJSON(msink)
		}
		return closeSinks()
	}
	return p, flush, nil
}

// writeCSVs emits one CSV per figure.
func writeCSVs(sys *core.System, rep *project.Report, dir string, fig1Days int) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	write := func(name string, fn func(f *os.File) error) error {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		defer f.Close()
		return fn(f)
	}
	if err := write("figure1_grid_vftp.csv", func(f *os.File) error {
		return report.WriteSeriesCSV(f, "day", sys.Figure1(fig1Days))
	}); err != nil {
		return err
	}
	if err := write("figure2_nsep_hist.csv", func(f *os.File) error {
		return report.WriteHistogramCSV(f, sys.Figure2())
	}); err != nil {
		return err
	}
	for _, h := range []float64{10, 4} {
		h := h
		name := fmt.Sprintf("figure4_workunits_h%d.csv", int(h))
		if err := write(name, func(f *os.File) error {
			return report.WriteHistogramCSV(f, sys.Figure4(h).Hist)
		}); err != nil {
			return err
		}
	}
	if err := write("figure6a_vftp.csv", func(f *os.File) error {
		return report.WriteSeriesCSV(f, "week", rep.HCMDVFTP, rep.GridVFTP)
	}); err != nil {
		return err
	}
	if err := write("figure6b_results.csv", func(f *os.File) error {
		return report.WriteSeriesCSV(f, "week", rep.ResultsWeek)
	}); err != nil {
		return err
	}
	if err := write("figure8_reported_hours.csv", func(f *os.File) error {
		return report.WriteHistogramCSV(f, rep.ReportedHours)
	}); err != nil {
		return err
	}
	for i, sn := range rep.Snapshots {
		sn := sn
		name := fmt.Sprintf("figure7_progression_w%02.0f_%d.csv", sn.Week, i)
		if err := write(name, func(f *os.File) error {
			fmt.Fprintln(f, "protein_rank,fraction_done")
			for rank, frac := range sn.PerBatch {
				fmt.Fprintf(f, "%d,%.4f\n", rank, frac)
			}
			return nil
		}); err != nil {
			return err
		}
	}
	return nil
}
