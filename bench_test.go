// Benchmark harness: one benchmark per table and figure of the paper.
//
// Run with:
//
//	go test -bench=. -benchmem
//
// Each benchmark reports the paper-comparable headline values as custom
// benchmark metrics (visible in the standard output line) and logs the full
// rows/series with -v. EXPERIMENTS.md records paper-vs-measured for all of
// them.
package repro_test

import (
	"context"
	"fmt"
	"io"
	"os"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/docking"
	"repro/internal/experiment"
	"repro/internal/forecast"
	"repro/internal/grid"
	"repro/internal/obs"
	"repro/internal/project"
	"repro/internal/protein"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/validate"
	"repro/internal/vftp"
	"repro/internal/volunteer"
	"repro/internal/wcg"
)

var (
	sysOnce sync.Once
	sys     *core.System
)

func system() *core.System {
	sysOnce.Do(func() { sys = core.NewHCMD() })
	return sys
}

// campaignOnce caches one scaled campaign run shared by the Figure 6-8 and
// Table 2 benchmarks (they report different views of the same experiment).
var (
	campOnce sync.Once
	campRep  *project.Report
)

// benchScale trades fidelity for speed: 1/42 keeps four ligands per
// receptor and a ~550-host population.
const benchScale = 1.0 / 42

func campaign() *project.Report {
	campOnce.Do(func() { campRep = system().RunCampaign(benchScale, 0) })
	return campRep
}

// --- Campaign hot-path benchmarks (BENCH_campaign.json) ---

// ciBenchScale is the CI smoke-job scale: large enough to exercise the
// deadline wheel, quorum switch and population turnover, small enough for
// a per-PR run. It reuses benchScale so the CI trajectory rows stay
// comparable to the shared figure-benchmark campaign.
const ciBenchScale = benchScale

// benchCampaign measures whole-campaign simulations and, when BENCH_JSON
// names a file, records the run in the BENCH_campaign.json trajectory.
func benchCampaign(b *testing.B, name string, cfg project.Config, label string) {
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	b.ResetTimer()
	start := time.Now()
	var rep *project.Report
	for i := 0; i < b.N; i++ {
		rep = project.New(cfg).Run()
		if !rep.Completed {
			b.Fatal("campaign did not complete")
		}
	}
	elapsed := time.Since(start)
	b.StopTimer()
	runtime.ReadMemStats(&ms1)
	recordBench(b, name, label, cfg, rep,
		elapsed.Nanoseconds()/int64(b.N),
		int64(ms1.TotalAlloc-ms0.TotalAlloc)/int64(b.N),
		int64(ms1.Mallocs-ms0.Mallocs)/int64(b.N))
}

// recordBench reports the kernel-side metrics and, when BENCH_JSON names a
// file, appends the run to the performance trajectory.
func recordBench(b *testing.B, name, label string, cfg project.Config, rep *project.Report, nsPerOp, bytesPerOp, allocsPerOp int64) {
	b.ReportMetric(float64(rep.EventsExecuted), "events/op")
	b.ReportMetric(float64(rep.PeakPending), "peak-queue")
	b.ReportMetric(rep.WeeksElapsed, "sim-weeks")
	b.ReportMetric(float64(rep.HostsJoined), "hosts")
	path := os.Getenv("BENCH_JSON")
	if path == "" {
		return
	}
	run := experiment.BenchRun{
		Benchmark:       name,
		Label:           label,
		Date:            time.Now().UTC().Format("2006-01-02"),
		Scale:           cfg.WorkScale,
		Shards:          cfg.Shards,
		HostsJoined:     rep.HostsJoined,
		NsPerOp:         nsPerOp,
		BytesPerOp:      bytesPerOp,
		AllocsPerOp:     allocsPerOp,
		EventsExecuted:  rep.EventsExecuted,
		PeakQueueDepth:  rep.PeakPending,
		SimWeeks:        rep.WeeksElapsed,
		ResultsReceived: rep.ServerStats.Received,
	}
	if cfg.HostScale != cfg.WorkScale {
		run.HostScale = cfg.HostScale
	}
	if err := experiment.AppendBenchRun(path, run); err != nil {
		b.Fatalf("recording bench run: %v", err)
	}
	b.Logf("recorded %s (%s) in %s", name, label, path)
}

// BenchmarkCampaignFullScale simulates the complete HCMD phase I campaign —
// WorkScale=1, HostScale=1: every workunit of every protein couple on the
// full ~26k-host population, the paper's ~5M returned results. This is the
// headline number of the performance trajectory; run it with
//
//	BENCH_JSON=BENCH_campaign.json go test -run xxx -bench CampaignFullScale -benchtime 2x
func BenchmarkCampaignFullScale(b *testing.B) {
	benchCampaign(b, "BenchmarkCampaignFullScale", system().CampaignConfig(1, 0), benchLabel())
}

// BenchmarkCampaignCI is the CI-sized variant of the campaign benchmark,
// recorded per PR by the benchmark smoke job.
func BenchmarkCampaignCI(b *testing.B) {
	benchCampaign(b, "BenchmarkCampaignCI", system().CampaignConfig(ciBenchScale, 0), benchLabel())
}

// BenchmarkCampaignCIInstrumented is BenchmarkCampaignCI with the whole
// observability plane armed: the metrics registry sampling every series on
// the default cadence plus the run trace streaming to a discarded sink.
// CI records its row in the trajectory; BenchmarkCampaignCIOverhead gates
// the plane's enabled cost.
func BenchmarkCampaignCIInstrumented(b *testing.B) {
	benchCampaign(b, "BenchmarkCampaignCIInstrumented", instrumented(system().CampaignConfig(ciBenchScale, 0)), benchLabel())
}

// instrumented arms cfg with the full observability plane.
func instrumented(cfg project.Config) project.Config {
	cfg.Probe = &obs.Probe{
		Metrics: obs.NewRegistry(0),
		Trace:   obs.NewTrace(obs.NewSink(io.Discard)),
	}
	return cfg
}

// Overhead gate: the instrumented campaign may cost at most maxOverhead
// more wall time than the bare one, judged over overheadPairs pairs.
const (
	overheadPairs = 60
	maxOverhead   = 0.05
)

// BenchmarkCampaignCIOverhead is the observability plane's wall-time gate.
// One op runs overheadPairs pairs of the BenchmarkCampaignCI campaign, one
// bare and one as BenchmarkCampaignCIInstrumented, back to back and in
// alternating order (bare first in even pairs), so both halves of a pair
// share the machine's state; the op fails when the median per-pair time
// ratio exceeds 1 + maxOverhead. On a shared 2-core VM a single pair of
// 2-iteration rows spread from -20 % to +15 %; the median of 60 adjacent
// pairs held within a few percent. About 7 s an op; CI runs one.
func BenchmarkCampaignCIOverhead(b *testing.B) {
	bare := system().CampaignConfig(ciBenchScale, 0)
	inst := instrumented(bare)
	timed := func(cfg project.Config) float64 {
		start := time.Now()
		if !project.New(cfg).Run().Completed {
			b.Fatal("campaign did not complete")
		}
		return time.Since(start).Seconds()
	}
	var median float64
	for i := 0; i < b.N; i++ {
		ratios := make([]float64, overheadPairs)
		for p := range ratios {
			if p%2 == 0 {
				tb := timed(bare)
				ratios[p] = timed(inst) / tb
			} else {
				ti := timed(inst)
				ratios[p] = ti / timed(bare)
			}
		}
		slices.Sort(ratios)
		median = (ratios[overheadPairs/2-1] + ratios[overheadPairs/2]) / 2
		if median > 1+maxOverhead {
			b.Fatalf("observability overhead breach: median per-pair ratio %+.1f%% over %d pairs > +%.0f%% (quartiles %+.1f%% .. %+.1f%%)",
				100*(median-1), overheadPairs, 100*maxOverhead,
				100*(ratios[overheadPairs/4]-1), 100*(ratios[3*overheadPairs/4]-1))
		}
	}
	b.ReportMetric(100*(median-1), "overhead-%")
}

// BenchmarkCampaignGrid10x is the grid-growth scale milestone: the full
// workload on a grid ten times the 2007 capacity (HostScale=10, ~260k
// volunteer hosts at peak), packaged at 1-hour workunits so the result
// stream grows with the fleet — ~13M distinct workunits and tens of
// millions of kernel events end to end. Run it with
//
//	BENCH_JSON=BENCH_campaign.json go test -run xxx -bench CampaignGrid10x -benchtime 1x
func BenchmarkCampaignGrid10x(b *testing.B) {
	cfg := system().CampaignConfig(1, 1) // 1-hour workunits
	cfg.HostScale = 10
	benchCampaign(b, "BenchmarkCampaignGrid10x", cfg, benchLabel())
}

// megaGrid rescales a campaign configuration to the mega-grid posture: a
// grid `times` the 2007 capacity running the project at full power from
// launch (the §7 phase-II stance — no control period, no ramp; with the
// default §5.1 schedule the campaign finishes inside the 5 %-share control
// weeks and the fleet never ramps).
func megaGrid(cfg project.Config, times float64, shards int) project.Config {
	cfg.HostScale = times
	cfg.ControlWeeks = 0
	cfg.RampWeeks = 0
	cfg.Shards = shards
	return cfg
}

// BenchmarkCampaignGrid100x is the mega-grid milestone: the full workload
// at 1-hour workunits on a grid one hundred times the 2007 capacity — a
// fleet of over a million concurrent volunteer hosts — driven through the
// sharded SoA kernel (K=8, fixed so allocations stay deterministic across
// machines). Run it with
//
//	BENCH_JSON=BENCH_campaign.json go test -run xxx -bench 'CampaignGrid100x$' -benchtime 1x
func BenchmarkCampaignGrid100x(b *testing.B) {
	// 1-hour workunits
	benchCampaign(b, "BenchmarkCampaignGrid100x", megaGrid(system().CampaignConfig(1, 1), 100, 8), benchLabel())
}

// BenchmarkCampaignGrid100xCI is the CI-sized mega-grid variant: the same
// 100:1 host-to-work overprovisioning ratio and the same sharded kernel
// (K=4 fixed), reduced to the CI work scale so the per-PR bench job can
// run and gate it.
func BenchmarkCampaignGrid100xCI(b *testing.B) {
	benchCampaign(b, "BenchmarkCampaignGrid100xCI", megaGrid(system().CampaignConfig(ciBenchScale, 1), 100*ciBenchScale, 4), benchLabel())
}

// BenchmarkSharedGrid2Proj measures a two-project equal-share co-run on
// one shared volunteer population at the CI scale: every host arbitrating
// its work fetches across both project servers through the mux. The
// share-err metric is the arbitration fidelity (max |measured −
// configured| share); the benchgate gates its allocs/op like the other
// campaign benchmarks.
func BenchmarkSharedGrid2Proj(b *testing.B) {
	cfg := system().SharedGridConfig(2, ciBenchScale, nil)
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	b.ResetTimer()
	start := time.Now()
	var rep *project.GridReport
	for i := 0; i < b.N; i++ {
		rep = project.NewGrid(cfg).Run()
		if !rep.Completed {
			b.Fatal("co-run did not complete")
		}
	}
	elapsed := time.Since(start)
	b.StopTimer()
	runtime.ReadMemStats(&ms1)
	b.ReportMetric(rep.MaxShareError(), "share-err")
	b.ReportMetric(float64(rep.EventsExecuted), "events/op")
	b.ReportMetric(rep.WeeksElapsed, "sim-weeks")
	if path := os.Getenv("BENCH_JSON"); path != "" {
		var results int64
		for _, p := range rep.Projects {
			results += p.ServerStats.Received
		}
		run := experiment.BenchRun{
			Benchmark:       "BenchmarkSharedGrid2Proj",
			Label:           benchLabel(),
			Date:            time.Now().UTC().Format("2006-01-02"),
			Scale:           cfg.Projects[0].WorkScale,
			NsPerOp:         elapsed.Nanoseconds() / int64(b.N),
			BytesPerOp:      int64(ms1.TotalAlloc-ms0.TotalAlloc) / int64(b.N),
			AllocsPerOp:     int64(ms1.Mallocs-ms0.Mallocs) / int64(b.N),
			EventsExecuted:  rep.EventsExecuted,
			PeakQueueDepth:  rep.PeakPending,
			SimWeeks:        rep.WeeksElapsed,
			ResultsReceived: results,
		}
		if err := experiment.AppendBenchRun(path, run); err != nil {
			b.Fatalf("recording bench run: %v", err)
		}
		b.Logf("recorded BenchmarkSharedGrid2Proj (%s) in %s", run.Label, path)
	}
}

// BenchmarkSweepCell measures one sweep cell through the pooled
// project.Runner — the unit of work internal/experiment schedules per
// worker. The first run (outside the timed loop) builds the arenas; every
// timed iteration is a steady-state replication reusing them. The
// steady-vs-first-% metric is the reuse payoff: steady-state replications
// must allocate under 10 % of the first run's bytes.
func BenchmarkSweepCell(b *testing.B) {
	cfg := system().CampaignConfig(1.0/84, 0) // the sweep CLI's default scale
	runner := project.NewRunner()
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	if rep := runner.Run(cfg); !rep.Completed {
		b.Fatal("first campaign did not complete")
	}
	runtime.ReadMemStats(&ms1)
	firstBytes := ms1.TotalAlloc - ms0.TotalAlloc

	runtime.GC()
	runtime.ReadMemStats(&ms0)
	b.ResetTimer()
	start := time.Now()
	var rep *project.Report
	for i := 0; i < b.N; i++ {
		rep = runner.Run(cfg)
		if !rep.Completed {
			b.Fatal("campaign did not complete")
		}
	}
	elapsed := time.Since(start)
	b.StopTimer()
	runtime.ReadMemStats(&ms1)
	steadyBytes := int64(ms1.TotalAlloc-ms0.TotalAlloc) / int64(b.N)
	b.ReportMetric(float64(steadyBytes)/float64(firstBytes)*100, "steady-vs-first-%")
	recordBench(b, "BenchmarkSweepCell", benchLabel(), cfg, rep,
		elapsed.Nanoseconds()/int64(b.N), steadyBytes,
		int64(ms1.Mallocs-ms0.Mallocs)/int64(b.N))
}

// forkWhatIfGroup is the week-14 what-if group: eight variants of the
// deployed quorum-switch week, every one behavior-identical to the base
// trajectory until the base switches at week 14 — the canonical use case
// for prefix-shared sweeps (what if the team had kept quorum 2 longer?).
func forkWhatIfGroup() []experiment.Scenario {
	var scens []experiment.Scenario
	for k := 1; k <= 8; k++ {
		wk := 14 + k
		scens = append(scens, experiment.Scenario{
			Name:        fmt.Sprintf("switch-w%d", wk),
			Description: fmt.Sprintf("quorum 2→1 switch moved to week %d", wk),
			DivergesAt:  14 * sim.Week,
			Mutate: func(cfg *project.Config) {
				cfg.Server.QuorumSwitchTime = sim.Time(wk) * sim.Week
			},
		})
	}
	return scens
}

// BenchmarkSweepForked measures the prefix-sharing payoff on the week-14
// what-if group: with -fork the base trajectory runs once to the quorum
// switch and all eight variants fork from the snapshot, simulating only
// their post-divergence suffix. The base is the flat-share posture (no
// control/ramp phase) with the fleet sized so the campaign completes a
// couple of weeks past the switch — the regime the fork path is built
// for, where nearly all simulated time is shared prefix. The unforked
// reference runs outside the timed loop; speedup-x is its wall time over
// the forked per-op time, and the benchmark fails if the two modes
// disagree on a single result byte.
func BenchmarkSweepForked(b *testing.B) {
	cfg := system().CampaignConfig(1.0/84, 0) // the sweep CLI's default scale
	cfg.ControlWeeks, cfg.RampWeeks = 0, 0    // flat share: quorum is the only divergence axis
	cfg.HostScale = 2.5 / 84                  // completion lands shortly after the week-14 switch
	opts := experiment.Options{
		Base:      cfg,
		Scenarios: forkWhatIfGroup(),
		Reps:      1,
		Workers:   1, // speedup-x measures simulation work saved, not parallelism
	}

	t0 := time.Now()
	unforked, err := experiment.Run(context.Background(), opts)
	if err != nil {
		b.Fatal(err)
	}
	unforkedSecs := time.Since(t0).Seconds()

	opts.Fork = true
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	b.ResetTimer()
	start := time.Now()
	var sweep *experiment.Sweep
	for i := 0; i < b.N; i++ {
		sweep, err = experiment.Run(context.Background(), opts)
		if err != nil {
			b.Fatal(err)
		}
	}
	elapsed := time.Since(start)
	b.StopTimer()
	runtime.ReadMemStats(&ms1)

	if !reflect.DeepEqual(unforked.Results, sweep.Results) {
		b.Fatal("forked sweep results differ from unforked")
	}
	if sweep.PrefixHits != len(opts.Scenarios) {
		b.Fatalf("prefix hits = %d, want %d (a fork fell back to a standalone run)",
			sweep.PrefixHits, len(opts.Scenarios))
	}
	forkedSecs := elapsed.Seconds() / float64(b.N)
	b.ReportMetric(unforkedSecs/forkedSecs, "speedup-x")
	b.ReportMetric(sweep.SavedSimWeeks, "saved-sim-weeks")
	b.ReportMetric(float64(sweep.PrefixHits), "prefix-hits")

	if path := os.Getenv("BENCH_JSON"); path != "" {
		run := experiment.BenchRun{
			Benchmark:   "BenchmarkSweepForked",
			Label:       benchLabel(),
			Date:        time.Now().UTC().Format("2006-01-02"),
			Scale:       cfg.WorkScale,
			HostScale:   cfg.HostScale,
			NsPerOp:     elapsed.Nanoseconds() / int64(b.N),
			BytesPerOp:  int64(ms1.TotalAlloc-ms0.TotalAlloc) / int64(b.N),
			AllocsPerOp: int64(ms1.Mallocs-ms0.Mallocs) / int64(b.N),
			SimWeeks:    sweep.SavedSimWeeks,
		}
		if err := experiment.AppendBenchRun(path, run); err != nil {
			b.Fatalf("recording bench run: %v", err)
		}
		b.Logf("recorded BenchmarkSweepForked (%s) in %s", run.Label, path)
	}
}

// BenchmarkSweepForkedParallel measures the fork fan-out payoff on the
// same week-14 what-if group: the shared prefix runs once, is captured as
// a portable snapshot, and the eight divergent suffixes adopt it on eight
// pooled runners and race instead of forking sequentially on the
// publisher. speedup-x is the sequential forked sweep's wall time (one
// worker, the BenchmarkSweepForked configuration) over the parallel per-op
// time, so it isolates what the fan-out recovers from idle cores beyond
// what prefix sharing already saved; the benchmark fails if the two modes
// disagree on a single result byte or a chunk silently fell back.
func BenchmarkSweepForkedParallel(b *testing.B) {
	cfg := system().CampaignConfig(1.0/84, 0)
	cfg.ControlWeeks, cfg.RampWeeks = 0, 0
	cfg.HostScale = 2.5 / 84
	opts := experiment.Options{
		Base:      cfg,
		Scenarios: forkWhatIfGroup(),
		Reps:      1,
		Workers:   1,
		Fork:      true,
	}

	t0 := time.Now()
	sequential, err := experiment.Run(context.Background(), opts)
	if err != nil {
		b.Fatal(err)
	}
	sequentialSecs := time.Since(t0).Seconds()

	opts.Workers, opts.ForkWorkers = 8, 8
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	b.ResetTimer()
	start := time.Now()
	var sweep *experiment.Sweep
	for i := 0; i < b.N; i++ {
		sweep, err = experiment.Run(context.Background(), opts)
		if err != nil {
			b.Fatal(err)
		}
	}
	elapsed := time.Since(start)
	b.StopTimer()
	runtime.ReadMemStats(&ms1)

	if !reflect.DeepEqual(sequential.Results, sweep.Results) {
		b.Fatal("parallel-forked sweep results differ from sequential-forked")
	}
	if sweep.PrefixHits != len(opts.Scenarios) {
		b.Fatalf("prefix hits = %d, want %d (a fork fell back to a standalone run)",
			sweep.PrefixHits, len(opts.Scenarios))
	}
	if sweep.AdoptedRunners == 0 || sweep.ForksParallel == 0 {
		b.Fatalf("no fan-out happened (adopted=%d, parallel forks=%d) — a prefix tree fell back to standalone cells",
			sweep.AdoptedRunners, sweep.ForksParallel)
	}
	parallelSecs := elapsed.Seconds() / float64(b.N)
	b.ReportMetric(sequentialSecs/parallelSecs, "speedup-x")
	b.ReportMetric(float64(sweep.ForksParallel), "parallel-forks")
	b.ReportMetric(float64(sweep.SnapshotBytes), "snapshot-bytes")
	b.ReportMetric(sweep.ParallelSpeedup, "tree-speedup-x")

	if path := os.Getenv("BENCH_JSON"); path != "" {
		run := experiment.BenchRun{
			Benchmark:   "BenchmarkSweepForkedParallel",
			Label:       benchLabel(),
			Date:        time.Now().UTC().Format("2006-01-02"),
			Scale:       cfg.WorkScale,
			HostScale:   cfg.HostScale,
			NsPerOp:     elapsed.Nanoseconds() / int64(b.N),
			BytesPerOp:  int64(ms1.TotalAlloc-ms0.TotalAlloc) / int64(b.N),
			AllocsPerOp: int64(ms1.Mallocs-ms0.Mallocs) / int64(b.N),
			SimWeeks:    sweep.SavedSimWeeks,
		}
		if err := experiment.AppendBenchRun(path, run); err != nil {
			b.Fatalf("recording bench run: %v", err)
		}
		b.Logf("recorded BenchmarkSweepForkedParallel (%s) in %s", run.Label, path)
	}
}

// benchLabel tags recorded runs; CI sets BENCH_LABEL to the PR/commit.
func benchLabel() string {
	if l := os.Getenv("BENCH_LABEL"); l != "" {
		return l
	}
	return "local"
}

// BenchmarkFigure1_GridVFTP regenerates the grid-wide daily VFTP series
// since the World Community Grid launch (growth, weekend dips, holiday
// troughs).
func BenchmarkFigure1_GridVFTP(b *testing.B) {
	s := system()
	var series *stats.Series
	for i := 0; i < b.N; i++ {
		series = s.Figure1(3 * 364)
	}
	b.ReportMetric(series.YMean(), "mean-vftp")
	b.ReportMetric(series.YMax(), "peak-vftp")
	// Paper (late 2007): ~74,825 VFTP the week the paper was written.
	last := series.Window(float64(series.Len()-28), float64(series.Len()))
	b.ReportMetric(last.YMean(), "final-month-vftp")
}

// BenchmarkFigure2_NsepDistribution regenerates the starting-position
// histogram: most proteins below 3,000 positions, one above 8,000,
// Σ Nsep = 294,533.
func BenchmarkFigure2_NsepDistribution(b *testing.B) {
	s := system()
	var h *stats.Histogram
	for i := 0; i < b.N; i++ {
		h = s.Figure2()
	}
	b.ReportMetric(float64(s.DS.SumNsep()), "sum-nsep")
	b.ReportMetric(float64(s.DS.MaxNsep()), "max-nsep")
	b.ReportMetric(float64(h.MaxBin()), "modal-bin")
	if b.N > 0 && s.DS.SumNsep() != protein.TotalNsep {
		b.Fatalf("ΣNsep = %d, want %d", s.DS.SumNsep(), protein.TotalNsep)
	}
}

// BenchmarkFigure3a_NrotLinearity verifies run time is linear in the number
// of rotations (paper: correlation ≈ 0.99).
func BenchmarkFigure3a_NrotLinearity(b *testing.B) {
	s := system()
	var rep costmodel.LinearityReport
	for i := 0; i < b.N; i++ {
		rep = s.Figure3(0, 1)
	}
	b.ReportMetric(rep.NrotR, "pearson-r")
	b.ReportMetric(rep.NrotFit.R2, "r2")
}

// BenchmarkFigure3b_NsepLinearity verifies run time is linear in the number
// of starting positions.
func BenchmarkFigure3b_NsepLinearity(b *testing.B) {
	s := system()
	var rep costmodel.LinearityReport
	for i := 0; i < b.N; i++ {
		rep = s.Figure3(2, 3)
	}
	b.ReportMetric(rep.NsepR, "pearson-r")
	b.ReportMetric(rep.NsepFit.R2, "r2")
}

// BenchmarkTable1_CostMatrixStats regenerates the computation-time matrix
// statistics (paper: mean 671, σ 968.04, min 6, max 46,347, median 384).
func BenchmarkTable1_CostMatrixStats(b *testing.B) {
	s := system()
	var st stats.Summary
	for i := 0; i < b.N; i++ {
		st = s.Table1()
	}
	b.ReportMetric(st.Mean, "mean-s")
	b.ReportMetric(st.Std, "std-s")
	b.ReportMetric(st.Median, "median-s")
	b.ReportMetric(st.Max, "max-s")
	count, _ := s.Matrix.TopShare(s.DS, 0.30)
	b.ReportMetric(float64(count), "top30pct-proteins")
}

// BenchmarkFormula1_TotalWork evaluates the total-work formula (paper:
// 1,488 years 237 days 19:45:54 ⇒ 46,946,115,954 s).
func BenchmarkFormula1_TotalWork(b *testing.B) {
	s := system()
	var total float64
	for i := 0; i < b.N; i++ {
		total = s.TotalWork()
	}
	b.ReportMetric(total/86400/365, "cpu-years")
	b.ReportMetric(total/costmodel.PaperTotalSeconds, "vs-paper-ratio")
}

// BenchmarkFigure4_Packaging runs the §4.2 packaging at both durations the
// paper plots (paper: 1,364,476 workunits at 10 h; 3,599,937 at 4 h).
func BenchmarkFigure4_Packaging(b *testing.B) {
	s := system()
	var c10, c4 int64
	for i := 0; i < b.N; i++ {
		c10 = s.Package(10).Count()
		c4 = s.Package(4).Count()
	}
	b.ReportMetric(float64(c10), "wu-at-10h")
	b.ReportMetric(float64(c4), "wu-at-4h")
}

// BenchmarkFigure6a_ProjectVFTP reports the weekly project VFTP of the
// campaign simulation (paper: average 16,450; full-power 26,248).
func BenchmarkFigure6a_ProjectVFTP(b *testing.B) {
	var rep *project.Report
	for i := 0; i < b.N; i++ {
		rep = campaign()
	}
	b.ReportMetric(rep.AvgVFTPWhole, "avg-vftp")
	b.ReportMetric(rep.AvgVFTPFullPower, "fullpower-vftp")
	b.ReportMetric(rep.WeeksElapsed, "weeks")
	if testing.Verbose() {
		for i := 0; i < rep.HCMDVFTP.Len(); i++ {
			b.Logf("week %2.0f: %8.0f VFTP (grid %8.0f)",
				rep.HCMDVFTP.X[i], rep.HCMDVFTP.Y[i], rep.GridVFTP.Y[i])
		}
	}
}

// BenchmarkFigure6b_Results reports the result counts and redundancy
// (paper: 5,418,010 received / 3,936,010 distinct = 1.37; 73 % useful).
func BenchmarkFigure6b_Results(b *testing.B) {
	var rep *project.Report
	for i := 0; i < b.N; i++ {
		rep = campaign()
	}
	b.ReportMetric(rep.ServerStats.RedundancyFactor(), "redundancy")
	b.ReportMetric(rep.ServerStats.UsefulFraction()*100, "useful-pct")
	b.ReportMetric(float64(rep.ServerStats.Received)/benchScale, "results-scaled")
}

// BenchmarkFigure7_Progression reports the per-protein progression
// (paper at 05-02-07: 85 % of proteins docked = 47 % of the computation).
func BenchmarkFigure7_Progression(b *testing.B) {
	var rep *project.Report
	for i := 0; i < b.N; i++ {
		rep = campaign()
	}
	for _, sn := range rep.Snapshots {
		if testing.Verbose() {
			b.Logf("week %5.1f: %3.0f%% proteins, %3.0f%% work",
				sn.Week, sn.ProteinsDoneFraction()*100, sn.OverallFraction*100)
		}
	}
	if len(rep.Snapshots) >= 3 {
		mid := rep.Snapshots[2]
		b.ReportMetric(mid.ProteinsDoneFraction()*100, "w19-proteins-pct")
		b.ReportMetric(mid.OverallFraction*100, "w19-work-pct")
	}
}

// BenchmarkFigure8_RealWorkunits reports the deployed workunit duration
// distribution (paper: bulk at 3-4 h on the reference CPU, mean 3 h 18 m;
// observed mean on the grid ≈ 13 h ⇒ speed-down 3.96).
func BenchmarkFigure8_RealWorkunits(b *testing.B) {
	s := system()
	var sum float64
	var rep *project.Report
	for i := 0; i < b.N; i++ {
		pkg := s.Figure4(project.DeployedHHours)
		sum = pkg.MeanSeconds / 3600
		rep = campaign()
	}
	b.ReportMetric(sum, "packaged-mean-h")
	b.ReportMetric(rep.MeanReportedH, "observed-mean-h")
	b.ReportMetric(rep.SpeedDownObserved(sum), "speeddown")
}

// BenchmarkTable2_GridEquivalence converts the run's VFTP into dedicated
// processors (paper: 16,450→3,029 and 26,248→4,833).
func BenchmarkTable2_GridEquivalence(b *testing.B) {
	var rows []vftp.EquivalenceRow
	for i := 0; i < b.N; i++ {
		rows = campaign().Table2()
	}
	b.ReportMetric(rows[0].Dedicated, "whole-dedicated")
	b.ReportMetric(rows[1].Dedicated, "fullpower-dedicated")
	// The paper's own inputs must give the exact published values.
	paper := vftp.PaperTable2()
	b.ReportMetric(paper[0].Dedicated, "paper-whole-dedicated")
	b.ReportMetric(paper[1].Dedicated, "paper-fullpower-dedicated")
}

// BenchmarkTable3_PhaseII evaluates the §7 phase II plan (paper:
// 1,444,998,719,637 s; 59,730 VFTP; 300,430 members).
func BenchmarkTable3_PhaseII(b *testing.B) {
	var fc forecast.Forecast
	for i := 0; i < b.N; i++ {
		fc = forecast.PaperForecast()
	}
	b.ReportMetric(fc.WorkRatio, "work-ratio")
	b.ReportMetric(fc.VFTPII, "phase2-vftp")
	b.ReportMetric(fc.MembersII, "phase2-members")
}

// BenchmarkSection7_Members reports the §7 text estimates (paper: ~90 weeks
// at the phase I rate; ~1,300,000 members at a 25 % share).
func BenchmarkSection7_Members(b *testing.B) {
	var fc forecast.Forecast
	for i := 0; i < b.N; i++ {
		fc = forecast.PaperForecast()
	}
	b.ReportMetric(fc.WeeksAtPhaseIRate, "weeks-at-phase1-rate")
	b.ReportMetric(fc.GridMembersNeeded, "members-needed")
	b.ReportMetric(fc.NewMembersNeeded, "new-members")
}

// --- Ablations (DESIGN.md §4) ---

// ablationScale is smaller than benchScale: ablations run several campaigns.
const ablationScale = 1.0 / 168

func ablationConfig() project.Config {
	return system().CampaignConfig(ablationScale, 0)
}

// BenchmarkAblationLaunchOrder compares completion under the three batch
// release orders. Cheapest-first is the production policy.
func BenchmarkAblationLaunchOrder(b *testing.B) {
	var cheap, random, costly float64
	for i := 0; i < b.N; i++ {
		for _, c := range []struct {
			order project.LaunchOrder
			out   *float64
		}{
			{project.CheapestFirst, &cheap},
			{project.RandomOrder, &random},
			{project.CostliestFirst, &costly},
		} {
			cfg := ablationConfig()
			cfg.Order = c.order
			rep := project.New(cfg).Run()
			// Early-visibility criterion (§5.1): proteins fully docked at
			// the first snapshot — the reason the team launched cheapest
			// first.
			*c.out = rep.Snapshots[0].ProteinsDoneFraction() * 100
		}
	}
	b.ReportMetric(cheap, "cheapfirst-w13-proteins-pct")
	b.ReportMetric(random, "random-w13-proteins-pct")
	b.ReportMetric(costly, "costlyfirst-w13-proteins-pct")
}

// BenchmarkAblationWorkunitSize sweeps the wanted duration h: smaller
// workunits mean more server transactions (§3.2), larger ones risk the
// 10-hour volunteer patience budget.
func BenchmarkAblationWorkunitSize(b *testing.B) {
	s := system()
	var counts [4]float64
	hs := [4]float64{1, 4, 10, 24}
	for i := 0; i < b.N; i++ {
		for j, h := range hs {
			counts[j] = float64(s.Package(h).Count())
		}
	}
	b.ReportMetric(counts[0], "wu-1h")
	b.ReportMetric(counts[1], "wu-4h")
	b.ReportMetric(counts[2], "wu-10h")
	b.ReportMetric(counts[3], "wu-24h")
}

// BenchmarkAblationRedundancy compares always-quorum-2 validation against
// the deployed mid-project switch to value checks.
func BenchmarkAblationRedundancy(b *testing.B) {
	var deployed, always2 float64
	for i := 0; i < b.N; i++ {
		cfg := ablationConfig()
		deployed = project.New(cfg).Run().ServerStats.RedundancyFactor()

		cfg2 := ablationConfig()
		cfg2.Server = wcg.Config{InitialQuorum: 2, SteadyQuorum: 2, Deadline: cfg2.Server.Deadline}
		always2 = project.New(cfg2).Run().ServerStats.RedundancyFactor()
	}
	b.ReportMetric(deployed, "deployed-redundancy")
	b.ReportMetric(always2, "always-quorum2-redundancy")
}

// BenchmarkAblationSpeeddown removes the UD throttle factor from the host
// population (§6 decomposition: the 60 % cap alone costs 1.67×).
func BenchmarkAblationSpeeddown(b *testing.B) {
	var with, without float64
	for i := 0; i < b.N; i++ {
		cfg := ablationConfig()
		with = project.New(cfg).Run().WeeksElapsed

		cfg2 := ablationConfig()
		cfg2.Host.MeanSpeedDown = volunteer.MeanSpeedDown / volunteer.UDThrottleFactor
		without = project.New(cfg2).Run().WeeksElapsed
	}
	b.ReportMetric(with, "throttled-weeks")
	b.ReportMetric(without, "unthrottled-weeks")
}

// BenchmarkAblationScheduler compares the volunteer grid against the ideal
// dedicated scheduler on the same work (the §6 comparison executed, not
// just accounted).
func BenchmarkAblationScheduler(b *testing.B) {
	var volunteerWeeks, dedicatedWeeks float64
	for i := 0; i < b.N; i++ {
		rep := campaign()
		volunteerWeeks = rep.WeeksElapsed
		// Same distinct work on the Table 2 dedicated equivalent.
		procs := int(rep.Table2()[1].Dedicated * benchScale)
		if procs < 1 {
			procs = 1
		}
		cluster := grid.NewCluster(procs)
		dedicatedWeeks = cluster.AnalyticMakespan(rep.TotalRefWork) / (7 * 86400)
	}
	b.ReportMetric(volunteerWeeks, "volunteer-weeks")
	b.ReportMetric(dedicatedWeeks, "dedicated-weeks")
}

// BenchmarkKernelDock measures the docking kernel itself (one starting
// position, one rotation group).
func BenchmarkKernelDock(b *testing.B) {
	ds := system().DS
	rec, lig := ds.Proteins[0], ds.Proteins[1]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = docking.Dock(rec, lig, 1, 1, docking.MinimizeParams{MaxIter: 10, GammaSub: 2})
	}
}

// BenchmarkFullCampaignScaled measures a whole scaled campaign simulation
// per iteration (the cost of one Figure 6 regeneration).
func BenchmarkFullCampaignScaled(b *testing.B) {
	s := system()
	for i := 0; i < b.N; i++ {
		rep := s.RunCampaign(ablationScale, 0)
		if !rep.Completed {
			b.Fatal("campaign did not complete")
		}
	}
}

// BenchmarkAblationAccounting compares the §8 accounting modes: the UD
// agent's wall-clock VFTP vs the BOINC agent's CPU-time VFTP for the same
// physical campaign.
func BenchmarkAblationAccounting(b *testing.B) {
	var udVFTP, boincVFTP float64
	for i := 0; i < b.N; i++ {
		cfgUD := ablationConfig()
		cfgUD.Host.Accounting = volunteer.UDWallClock
		udVFTP = project.New(cfgUD).Run().AvgVFTPWhole

		cfgB := ablationConfig()
		cfgB.Host.Accounting = volunteer.BOINCCPUTime
		boincVFTP = project.New(cfgB).Run().AvgVFTPWhole
	}
	b.ReportMetric(udVFTP, "ud-vftp")
	b.ReportMetric(boincVFTP, "boinc-vftp")
	if boincVFTP > 0 {
		b.ReportMetric(udVFTP/boincVFTP, "accounting-ratio")
	}
}

// BenchmarkPhaseIISimulated validates Table 3 dynamically: the phase II
// workload on a constant 59,730-VFTP grid slice (paper prediction:
// 40 weeks).
func BenchmarkPhaseIISimulated(b *testing.B) {
	var weeks float64
	for i := 0; i < b.N; i++ {
		weeks = system().SimulatePhaseII(1.0 / 168).WeeksElapsed
	}
	b.ReportMetric(weeks, "phase2-weeks")
	b.ReportMetric(forecast.PaperForecast().WeeksII, "predicted-weeks")
}

// BenchmarkArchiveEstimate reproduces the §5.2 archive accounting (paper:
// 123 GB of text, 45 GB compressed).
func BenchmarkArchiveEstimate(b *testing.B) {
	var text, compressed int64
	for i := 0; i < b.N; i++ {
		_, text, compressed = validate.EstimateArchive(system().DS)
	}
	b.ReportMetric(float64(text)/1e9, "text-GB")
	b.ReportMetric(float64(compressed)/1e9, "compressed-GB")
}

// BenchmarkServerCapacity reproduces the §3.2 transaction-rate planning.
func BenchmarkServerCapacity(b *testing.B) {
	var load float64
	cap := wcg.DefaultServerCapacity()
	for i := 0; i < b.N; i++ {
		count := system().Package(project.DeployedHHours).Count()
		load = cap.LoadFor(count, vftp.PaperRedundancy, 26*7*86400)
	}
	b.ReportMetric(load, "tx-per-sec")
}

// BenchmarkAblationWorkBuffer sweeps the agent's work-cache depth: deeper
// buffers increase task turnaround and timeout-driven redundancy.
func BenchmarkAblationWorkBuffer(b *testing.B) {
	var red1, red8 float64
	for i := 0; i < b.N; i++ {
		cfg := ablationConfig()
		cfg.Host.WorkBuffer = 1
		red1 = project.New(cfg).Run().ServerStats.RedundancyFactor()

		cfg8 := ablationConfig()
		cfg8.Host.WorkBuffer = 8
		red8 = project.New(cfg8).Run().ServerStats.RedundancyFactor()
	}
	b.ReportMetric(red1, "buffer1-redundancy")
	b.ReportMetric(red8, "buffer8-redundancy")
}
