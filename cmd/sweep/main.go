// Command sweep explores the HCMD design space: it fans named what-if
// scenarios × replications out across all cores, aggregates each scenario's
// replications into means with 95 % confidence intervals, and checkpoints
// every completed run so an interrupted sweep resumes where it stopped.
//
// Usage:
//
//	sweep -list
//	sweep [-scenarios all|a,b,c] [-reps R] [-workers W] [-shards K] [-fork]
//	      [-fork-workers N]
//	      [-scale S] [-hours H] [-seed N] [-checkpoint FILE] [-resume] [-out DIR]
//	      [-scheduler fifo|lifo|random|batch] [-validator quorum|adaptive]
//	      [-adaptive-streak N] [-maintenance-hours H] [-outage-rate R]
//	      [-outage-hours H] [-upload-loss P] [-churn-weekly F] [-fault-seed N]
//	      [-cpuprofile FILE] [-memprofile FILE]
//	      [-metrics FILE] [-trace FILE] [-progress D] [-sample-every S]
//	sweep -corun [-scenarios all|a,b,c] [-reps R] [-workers W] [-scale S]
//	      [-seed N] [-checkpoint FILE] [-resume] [-out DIR]
//	      [-metrics FILE] [-trace FILE] [-progress D]
//
// Examples:
//
//	sweep -scenarios all -reps 3 -scale 0.02      # full catalog, 3 reps
//	sweep -scenarios quorum-1,quorum-2 -reps 10   # one ablation, tight CIs
//	sweep -scheduler lifo -reps 5                 # whole catalog on LIFO dispatch
//	sweep -resume                                 # continue a killed sweep
//	sweep -corun -reps 3                          # multi-project co-run catalog
//
// -corun switches to the multi-project catalog: each scenario co-runs N
// project tenants on one shared volunteer population through the work-fetch
// multiplexer, and the headline metric is how closely each tenant's
// measured grid share tracks its configured resource share. Co-runs run on
// the same engine as any sweep, so they checkpoint, resume, drain and
// isolate a panicking cell the same way; the checkpoint file is shared, so
// a co-run without -resume starts it afresh like any sweep. A co-run is
// single-shard, unforked and fault-free by construction and keeps the
// catalog's policies: -fork, -fork-workers, -shards, -hours, -scheduler,
// -validator, -adaptive-streak and the fault flags are rejected with
// -corun when given.
//
// -fork turns on prefix-shared execution: scenarios whose catalog entry
// carries a divergence-time hint share the common prefix of their
// trajectory — it is simulated once per replication, a portable in-memory
// snapshot is taken at each divergence point, and every what-if cell forks
// from the snapshot and simulates only its suffix. Results and aggregates are
// byte-identical to an unforked sweep (grouped scenarios share one derived
// trajectory seed per replication either way), so -fork composes with
// -resume and -shards; only wall clock and the summary's prefix stats
// change. Forked cells run unprobed (-metrics/-trace samples are skipped
// for them).
//
// -fork-workers N widens each divergence group's fork fan-out: N-1 chunks
// of the group's what-if cells go to the next free pool workers, ahead of
// any cell not yet started, which adopt the group's snapshot into their
// own pooled runners, and the suffixes race on all cores instead of
// running sequentially on the publisher's. The default (0) follows
// -workers; 1 keeps every fork on the publisher. Results stay
// byte-identical at any width — only wall clock and the summary's fan-out
// line change.
//
// -shards K runs every cell's host kernel with K worker shards (0 = 1).
// Results are byte-identical for every K, so it composes freely with
// -resume and every scenario; it pays off at large -scale host fleets.
//
// -scheduler and -validator override the base configuration's grid
// policies before each scenario's mutation is applied, so any catalog
// scenario can be re-run under a different dispatch order or validation
// regime. The fault flags (-maintenance-hours, -outage-rate, -outage-hours,
// -upload-loss, -churn-weekly, -fault-seed) likewise install a fault plane
// under the base configuration: planned weekly maintenance windows,
// seeded unplanned outages, flaky result uploads, and permanent host
// churn, with backoff-based graceful degradation on the hosts. None of
// these overrides can be combined with -resume: checkpoint cells do not
// record them, so resuming across them would silently mix regimes — use
// a fresh -checkpoint file.
//
// SIGINT or SIGTERM drains gracefully: no new cells are dispatched,
// in-flight runs finish and are checkpointed, and the process exits with
// code 3 (distinct from failure's 1) so wrappers know -resume will pick
// up exactly where the sweep stopped.
//
// With -out the sweep also writes sweep.json (all runs + aggregates) and
// sweep.csv (per-scenario mean/std/ci95 rows), or gridsweep.json with
// -corun. With -cpuprofile /
// -memprofile it writes pprof files covering the whole sweep, so perf
// work on the simulator is profile-driven (go tool pprof cpu.out).
//
// The observability plane rides along on three flags: -metrics FILE streams
// every cell's sim-time metric samples as NDJSON, -trace FILE streams the
// structured run-trace events (phase transitions, batch feeds, quorum
// switches, saboteur onsets...), and -progress D prints a live telemetry
// ticker (throughput, ETA, memory) every D of wall time, also appended to
// the metrics NDJSON as event=sweep-telemetry lines. Probes are run-neutral:
// instrumented cells produce byte-identical metrics to bare ones.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/project"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/wcg"
)

// Exit codes: 0 success, 1 failure, 3 graceful drain — the sweep was
// interrupted (SIGINT/SIGTERM), stopped dispatching new cells, let the
// in-flight runs finish, and flushed the checkpoint, so -resume continues
// from a consistent state. Scripts can tell "retry with -resume" (3) apart
// from "something is wrong" (1).
const exitDrained = 3

func main() {
	err := run()
	if err == nil {
		return
	}
	if errors.Is(err, context.Canceled) {
		fmt.Fprintln(os.Stderr, "sweep: interrupted — in-flight runs drained, checkpoint flushed")
		os.Exit(exitDrained)
	}
	fmt.Fprintf(os.Stderr, "sweep: %v\n", err)
	os.Exit(1)
}

func run() (err error) {
	list := flag.Bool("list", false, "print the scenario catalogs and exit")
	corun := flag.Bool("corun", false, "sweep the multi-project co-run catalog instead of the single-project one")
	scenarios := flag.String("scenarios", "all", "comma-separated scenario names, or 'all'")
	reps := flag.Int("reps", 3, "replications per scenario")
	workers := flag.Int("workers", 0, "worker goroutines (0 = GOMAXPROCS)")
	shards := flag.Int("shards", 0, "per-campaign host-kernel shards (0 = 1; results are byte-identical for every value; rejected with -corun)")
	fork := flag.Bool("fork", false, "share scenario prefixes: run each replication's common trajectory once and fork what-if cells from in-memory snapshots (results are byte-identical either way; rejected with -corun)")
	forkWorkers := flag.Int("fork-workers", 0, "parallel fork fan-out width per prefix group with -fork: divergent suffixes adopt the group's snapshot on this many pooled runners (0 = -workers; 1 = sequential forks on the publishing runner)")
	scale := flag.Float64("scale", 1.0/84, "work and host scale (0 < s <= 1)")
	hours := flag.Float64("hours", 0, "workunit target duration in hours (0 = deployed 3.7)")
	seed := flag.Uint64("seed", 0, "sweep base seed (0 = campaign default)")
	ckptPath := flag.String("checkpoint", "sweep.ckpt.jsonl", "checkpoint file (JSON lines, one per completed run)")
	resume := flag.Bool("resume", false, "reuse completed runs from the checkpoint instead of starting over")
	out := flag.String("out", "", "directory for sweep.json and sweep.csv, or gridsweep.json with -corun (optional)")
	scheduler := flag.String("scheduler", "", "dispatch policy for the base config: fifo, lifo, random or batch (default fifo)")
	validator := flag.String("validator", "", "validation policy for the base config: quorum or adaptive (default quorum)")
	adaptiveStreak := flag.Int("adaptive-streak", 10, "valid-result streak that earns a host per-host quorum 1 (with -validator adaptive)")
	quiet := flag.Bool("q", false, "suppress per-run progress lines")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the sweep to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile (captured after the sweep) to this file")
	metricsPath := flag.String("metrics", "", "write per-cell sim-time metric samples (NDJSON) to this file")
	tracePath := flag.String("trace", "", "write structured run-trace events (NDJSON) to this file")
	progressEvery := flag.Duration("progress", 0, "print a live telemetry line at this wall-clock interval (e.g. 5s; 0 = off)")
	sampleEvery := flag.Float64("sample-every", 0, "metrics sampling cadence in sim seconds (0 = half a sim day)")
	maintHours := flag.Float64("maintenance-hours", 0, "planned weekly server maintenance window, in sim hours (0 = off)")
	outageRate := flag.Float64("outage-rate", 0, "unplanned server outages per sim week (0 = off)")
	outageHours := flag.Float64("outage-hours", 12, "mean unplanned outage duration in sim hours (with -outage-rate)")
	uploadLoss := flag.Float64("upload-loss", 0, "per-result upload loss probability in [0,1) (0 = off; lost uploads retry 3 times)")
	churnWeekly := flag.Float64("churn-weekly", 0, "fraction of the fleet departing permanently per sim week, replaced by fresh joins (0 = off)")
	faultSeed := flag.Uint64("fault-seed", 0, "fault-plane seed override (0 = derived from each run seed)")
	flag.Parse()
	if *corun {
		// A co-run is one shard, unforked and fault-free by construction,
		// and its tenants keep the catalog's policies and workunit duration,
		// so these flags are refused when given; their defaults are not.
		var set []string
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "fork", "fork-workers", "shards", "hours", "scheduler", "validator", "adaptive-streak",
				"maintenance-hours", "outage-rate", "outage-hours", "upload-loss", "churn-weekly", "fault-seed":
				set = append(set, "-"+f.Name)
			}
		})
		if len(set) > 0 {
			return fmt.Errorf("-corun cannot honour %s: co-runs are single-shard, unforked and fault-free, and keep the catalog's policies and workunit duration",
				strings.Join(set, ", "))
		}
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "sweep: -memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the live set so the profile shows retention, not garbage
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "sweep: -memprofile: %v\n", err)
			}
		}()
	}

	if *list {
		t := report.NewTable("Scenario catalog", "name", "description")
		for _, s := range experiment.Catalog() {
			t.AddRow(s.Name, s.Description)
		}
		fmt.Print(t.String())
		g := report.NewTable("Co-run catalog (-corun)", "name", "description")
		for _, s := range experiment.GridCatalog() {
			g.AddRow(s.Name, s.Description)
		}
		fmt.Print(g.String())
		return nil
	}
	if !(*scale > 0 && *scale <= 1) {
		return fmt.Errorf("-scale must be in (0, 1], got %v", *scale)
	}
	for _, v := range []float64{*hours, *sampleEvery} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("-hours and -sample-every must be finite, got %v and %v", *hours, *sampleEvery)
		}
	}
	faultFlags := *maintHours != 0 || *outageRate != 0 || *uploadLoss != 0 || *churnWeekly != 0 || *faultSeed != 0
	if *resume && (*scheduler != "" || *validator != "" || faultFlags) {
		return fmt.Errorf("-resume cannot be combined with -scheduler/-validator or the fault flags: checkpoint cells don't record the overrides they ran under; use a fresh -checkpoint file")
	}
	msink, tsink, closeSinks, serr := openSinks(*metricsPath, *tracePath)
	if serr != nil {
		return serr
	}
	defer func() {
		if cerr := closeSinks(); cerr != nil && err == nil {
			err = cerr
		}
	}()

	nWorkers := *workers
	if nWorkers <= 0 {
		nWorkers = runtime.GOMAXPROCS(0)
	}
	nForkWorkers := *forkWorkers
	if *fork && nForkWorkers <= 0 {
		nForkWorkers = nWorkers
	}
	forkNote := ""
	if *fork {
		forkNote = ", prefix-forked"
		if nForkWorkers > 1 {
			forkNote = fmt.Sprintf(", prefix-forked ×%d", nForkWorkers)
		}
	}

	// -corun selects the catalog, the front end, the table and the -out
	// file; everything else — checkpoint, progress, drain, summary — is one
	// path. The policy and fault flags are defaults under -corun.
	var (
		selected []experiment.Scenario
		coruns   []experiment.GridScenario
	)
	if *corun {
		coruns, err = experiment.GridSelect(*scenarios)
	} else {
		selected, err = experiment.Select(*scenarios)
	}
	if err != nil {
		return err
	}
	sys := core.NewHCMD()
	base := sys.CampaignConfig(*scale, *hours)
	if err := applyPolicies(&base, *scheduler, *validator, *adaptiveStreak); err != nil {
		return err
	}
	if err := applyFaults(&base, *maintHours, *outageRate, *outageHours, *uploadLoss, *churnWeekly, *faultSeed); err != nil {
		return err
	}

	ckpt, err := experiment.OpenCheckpoint(*ckptPath, *resume)
	if err != nil {
		return err
	}
	defer ckpt.Close()
	if *resume && ckpt.Len() > 0 {
		fmt.Fprintf(os.Stderr, "resuming: %d completed runs loaded from %s\n", ckpt.Len(), *ckptPath)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	nScen := len(selected) + len(coruns)
	total := nScen * *reps
	fmt.Fprintf(os.Stderr, "sweep: %d scenarios × %d reps = %d runs on %d workers (scale %.4g, shards %d%s)\n",
		nScen, *reps, total, nWorkers, *scale, *shards, forkNote)
	start := time.Now()
	tracker := experiment.NewTracker(total)
	tracker.Workers, tracker.Shards, tracker.Forked = nWorkers, *shards, *fork
	if *fork {
		tracker.ForkWorkers = nForkWorkers
	}
	stopTicker := startTicker(tracker, *progressEvery, msink)
	defer stopTicker()
	resumed := 0
	progress := func(p experiment.Progress) {
		tracker.Observe(p.WallSeconds)
		r, tag := p.Result, ""
		if p.Resumed {
			resumed++
			tag = " (resumed)"
		}
		if *quiet {
			return
		}
		weeks, detail := r.Metrics.MakespanWeeks, fmt.Sprintf("redundancy %.2f", r.Metrics.Redundancy)
		if r.Grid != nil {
			weeks, detail = r.Grid.MakespanWeeks, fmt.Sprintf("max share err %.4f", r.Grid.MaxShareError)
		}
		fmt.Fprintf(os.Stderr, "[%3d/%d] %-20s rep %d: %.1f weeks, %s%s\n",
			p.Done, p.Total, r.Scenario, r.Rep, weeks, detail, tag)
	}

	var (
		done, failed int
		table        *report.Table
		write        func(dir string) error // the -out files
	)
	if *corun {
		sw, rerr := experiment.RunGrid(ctx, experiment.GridOptions{
			Base: sys.SharedGridConfig(2, *scale, nil), Scenarios: coruns, Reps: *reps, Workers: *workers,
			BaseSeed: *seed, Checkpoint: ckpt, Progress: progress,
			MetricsSink: msink, TraceSink: tsink, SampleEvery: *sampleEvery,
		})
		if err = rerr; sw != nil {
			done, failed, table = len(sw.Results), len(sw.Failed), experiment.GridTable(sw.Aggregates, sw.Results)
			write = func(dir string) error { return writeJSON(dir, "gridsweep.json", sw) }
		}
	} else {
		sw, rerr := sys.RunExperiments(ctx, *scale, *hours, experiment.Options{
			Base: base, Scenarios: selected, Reps: *reps, Workers: *workers, Shards: *shards,
			Fork: *fork, ForkWorkers: nForkWorkers, BaseSeed: *seed, Checkpoint: ckpt, Progress: progress,
			MetricsSink: msink, TraceSink: tsink, SampleEvery: *sampleEvery,
		})
		if err = rerr; sw != nil {
			done, failed, table = len(sw.Results), len(sw.Failed), experiment.Table(sw.Aggregates)
			write = func(dir string) error { return writeOutputs(dir, sw) }
			tracker.RecordSweep(sw)
		}
	}
	if err != nil {
		if done > 0 {
			if errors.Is(err, context.Canceled) {
				fmt.Fprintf(os.Stderr, "interrupted after %d/%d runs; rerun with -resume to continue\n", done, total)
			} else {
				fmt.Fprintf(os.Stderr, "%d/%d runs completed, %d failed; failed cells are not checkpointed\n",
					done, total, failed)
			}
			fmt.Print(table.String())
		}
		return err
	}
	stopTicker()

	fmt.Fprintf(os.Stderr, "done: %d runs (%d resumed) in %.1fs\n", done, resumed, time.Since(start).Seconds())
	printSummary(tracker)
	if msink != nil {
		// Close the metrics NDJSON with one final sweep-telemetry record so
		// the end-of-sweep totals (prefix stats included) are machine-readable.
		msink.WriteLine(obs.Line(tracker.Snapshot().Fields()...))
	}
	fmt.Print(table.String())

	if *out != "" {
		if err := write(*out); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "results written to %s\n", *out)
	}
	return ckpt.Close()
}

// openSinks opens the optional -metrics / -trace NDJSON outputs. Either
// path may be empty (that sink stays nil and the plane stays off). The
// returned close function flushes the buffers and surfaces the first write
// error; it is safe to call when neither file was opened.
func openSinks(metricsPath, tracePath string) (metrics, trace *obs.Sink, close func() error, err error) {
	var (
		files []*os.File
		bufs  []*bufio.Writer
		sinks []*obs.Sink
	)
	open := func(path string) (*obs.Sink, error) {
		if path == "" {
			return nil, nil
		}
		f, ferr := os.Create(path)
		if ferr != nil {
			return nil, ferr
		}
		bw := bufio.NewWriterSize(f, 1<<16)
		s := obs.NewSink(bw)
		files = append(files, f)
		bufs = append(bufs, bw)
		sinks = append(sinks, s)
		return s, nil
	}
	closeAll := func() error {
		var first error
		for i := range bufs {
			if e := bufs[i].Flush(); e != nil && first == nil {
				first = e
			}
			if e := files[i].Close(); e != nil && first == nil {
				first = e
			}
			if e := sinks[i].Err(); e != nil && first == nil {
				first = e
			}
		}
		return first
	}
	if metrics, err = open(metricsPath); err != nil {
		return nil, nil, closeAll, fmt.Errorf("-metrics: %w", err)
	}
	if trace, err = open(tracePath); err != nil {
		closeAll()
		return nil, nil, func() error { return nil }, fmt.Errorf("-trace: %w", err)
	}
	return metrics, trace, closeAll, nil
}

// startTicker launches the -progress telemetry loop: a human-readable
// snapshot on stderr every interval, mirrored onto the metrics sink as an
// event=sweep-telemetry NDJSON line. The returned stop function is
// idempotent; with a non-positive interval it is a no-op.
func startTicker(tr *experiment.Tracker, every time.Duration, metrics *obs.Sink) func() {
	if every <= 0 {
		return func() {}
	}
	tick := time.NewTicker(every)
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				t := tr.Snapshot()
				fmt.Fprintln(os.Stderr, t.String())
				if metrics != nil {
					metrics.WriteLine(obs.Line(t.Fields()...))
				}
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			tick.Stop()
			close(done)
		})
	}
}

// printSummary emits the end-of-sweep resource line: cell throughput and
// process memory, so even a -q run leaves a one-line wall-time record. A
// forked sweep appends its prefix-sharing stats.
func printSummary(tr *experiment.Tracker) {
	t := tr.Snapshot()
	fmt.Fprintf(os.Stderr, "summary: %d cells in %.1fs, %.2f cells/s, mean cell %.2fs, %d workers (GOMAXPROCS %d), %d shards, %.1f MB sys (peak RSS), %.1f MB allocated\n",
		t.Done, t.ElapsedSeconds, t.CellsPerSec, t.MeanCellSeconds, t.Workers, t.Gomaxprocs, t.Shards, t.SysMB, t.TotalAllocMB)
	if t.Forked {
		fmt.Fprintf(os.Stderr, "prefix sharing: %d groups snapshotted, %d cells forked, %.1f sim-weeks saved\n",
			t.PrefixGroups, t.PrefixHits, t.SavedSimWeeks)
	}
	if t.ForkWorkers > 1 {
		fmt.Fprintf(os.Stderr, "fan-out: %d fork workers, %d runners adopted snapshots, %d cells forked in parallel, %.1f KB snapshots, %.2fx tree speedup\n",
			t.ForkWorkers, t.AdoptedRunners, t.ForksParallel, float64(t.SnapshotBytes)/1024, t.ParallelSpeedup)
	}
}

// applyPolicies resolves the -scheduler/-validator flags onto the base
// campaign configuration. Policy overrides change run outputs without
// changing the checkpoint key (scenario, rep, seed, scale, hours), so
// run() rejects them in combination with -resume: a checkpoint recorded
// under different policies would be silently reused as if it matched.
func applyPolicies(base *project.Config, scheduler, validator string, streak int) error {
	switch scheduler {
	case "", "fifo":
		// the default
	case "lifo":
		base.Server.Scheduler = wcg.LIFOScheduler{}
	case "random":
		base.Server.Scheduler = wcg.RandomScheduler{Seed: base.Seed + 17}
	case "batch":
		base.Server.Scheduler = wcg.BatchPriorityScheduler{}
	default:
		return fmt.Errorf("-scheduler: unknown policy %q (have fifo, lifo, random, batch)", scheduler)
	}
	switch validator {
	case "", "quorum":
		// the default
	case "adaptive":
		if streak < 1 {
			return fmt.Errorf("-adaptive-streak must be at least 1, got %d", streak)
		}
		base.Server.Validator = wcg.AdaptiveValidator{Streak: streak}
	default:
		return fmt.Errorf("-validator: unknown policy %q (have quorum, adaptive)", validator)
	}
	return nil
}

// applyFaults resolves the fault-plane flags onto the base campaign
// configuration. Like the policy overrides, fault overrides change run
// outputs without changing the checkpoint key, so run() rejects them in
// combination with -resume.
func applyFaults(base *project.Config, maintHours, outageRate, outageHours, uploadLoss, churnWeekly float64, seed uint64) error {
	switch {
	case !(maintHours >= 0) || math.IsInf(maintHours, 1):
		return fmt.Errorf("-maintenance-hours must be finite and >= 0, got %v", maintHours)
	case !(outageRate >= 0) || math.IsInf(outageRate, 1):
		return fmt.Errorf("-outage-rate must be finite and >= 0, got %v", outageRate)
	case outageRate > 0 && !(outageHours > 0), math.IsInf(outageHours, 1):
		return fmt.Errorf("-outage-hours must be finite and > 0 with -outage-rate, got %v", outageHours)
	case !(uploadLoss >= 0 && uploadLoss < 1):
		return fmt.Errorf("-upload-loss must be in [0, 1), got %v", uploadLoss)
	case !(churnWeekly >= 0 && churnWeekly < 1):
		return fmt.Errorf("-churn-weekly must be in [0, 1), got %v", churnWeekly)
	}
	if maintHours == 0 && outageRate == 0 && uploadLoss == 0 && churnWeekly == 0 {
		if seed != 0 {
			return fmt.Errorf("-fault-seed needs at least one fault flag (-maintenance-hours, -outage-rate, -upload-loss, -churn-weekly)")
		}
		return nil
	}
	fc := &faults.Config{Seed: seed}
	if maintHours > 0 {
		fc.MaintenanceEvery = sim.Week
		fc.MaintenanceDuration = maintHours * sim.Hour
	}
	if outageRate > 0 {
		fc.UnplannedPerWeek = outageRate
		fc.UnplannedMeanSeconds = outageHours * sim.Hour
	}
	if uploadLoss > 0 {
		fc.UploadLossProb = uploadLoss
		fc.UploadRetries = 3
	}
	if churnWeekly > 0 {
		fc.ChurnPerWeek = churnWeekly
	}
	base.Faults = fc
	return nil
}

// writeJSON writes v as indented JSON to dir/name.
func writeJSON(dir, name string, v any) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), append(data, '\n'), 0o644)
}

// writeOutputs writes a campaign sweep's sweep.json and sweep.csv.
func writeOutputs(dir string, sweep *experiment.Sweep) error {
	if err := writeJSON(dir, "sweep.json", sweep); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "sweep.csv"))
	if err != nil {
		return err
	}
	defer f.Close()
	if err := experiment.WriteCSV(f, sweep.Aggregates); err != nil {
		return err
	}
	return f.Close()
}
