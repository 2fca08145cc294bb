package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/credit"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/wcg"
	"repro/internal/workunit"
)

// metricDef is one reported metric as BENCHMARK.json declares it.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the untraced run's metrics.
var endToEnd = []metricDef{
	{"op_s", "s", "lower"},
	{"setup_s", "s", "lower"},
	{"heap_live_mb", "MB", "lower"},
}

// perLayer are the traced run's metrics, every one printed for every
// workload; a layer the workload bypasses reads 0. README.md maps each to
// the end-to-end metric and workload it should move.
var perLayer = []metricDef{
	{"core.build_ms", "ms", "lower"},
	{"project.begin_ms", "ms", "lower"},
	{"project.phase_s.control", "s", "lower"},
	{"project.phase_s.ramp", "s", "lower"},
	{"project.phase_s.full", "s", "lower"},
	{"project.week_s_max", "s", "lower"},
	{"project.week_max", "week", "lower"},
	{"project.finish_s", "s", "lower"},
	{"project.prefix_s", "s", "lower"},
	{"project.fork_ms", "ms", "lower"},
	{"project.self_s", "s", "lower"},
	{"sim.events", "count", "lower"},
	{"sim.peak_pending", "count", "lower"},
	{"sim.events_per_s", "1/s", "higher"},
	{"sim.hold_ns", "ns", "lower"},
	{"sim.est_share", "fraction", "lower"},
	{"wcg.sent", "count", "lower"},
	{"wcg.received", "count", "lower"},
	{"wcg.invalid", "count", "lower"},
	{"wcg.timed_out", "count", "lower"},
	{"wcg.wasted", "count", "lower"},
	{"wcg.completed", "count", "higher"},
	{"wcg.useful_ratio", "fraction", "higher"},
	{"wcg.cycle_ns", "ns", "lower"},
	{"wcg.est_share", "fraction", "lower"},
	{"volunteer.hosts_joined", "count", "higher"},
	{"volunteer.bytes_per_host", "B", "lower"},
	{"volunteer.soa_k1_op_s", "s", "lower"},
	{"volunteer.soa_vs_legacy", "ratio", "lower"},
	{"volunteer.k1_op_s", "s", "lower"},
	{"volunteer.shard_speedup", "ratio", "higher"},
	{"volunteer.mux_share_err", "fraction", "lower"},
	{"credit.points_total", "points", "higher"},
	{"credit.credit_ns", "ns", "lower"},
	{"credit.est_share", "fraction", "lower"},
	{"faults.lost_uploads", "count", "lower"},
	{"faults.dropped_results", "count", "lower"},
	{"faults.churned_hosts", "count", "lower"},
	{"faults.downtime_h", "h", "lower"},
	{"obs.overhead_pct", "%", "lower"},
	{"experiment.cell_ms_p50", "ms", "lower"},
	{"experiment.cell_ms_p90", "ms", "lower"},
	{"experiment.first_cell_ms", "ms", "lower"},
	{"experiment.busy_frac", "fraction", "higher"},
	{"experiment.prefix_hits", "count", "higher"},
	{"experiment.saved_sim_weeks", "week", "higher"},
	{"experiment.parallel_speedup", "ratio", "higher"},
	{"experiment.self_s", "s", "lower"},
	{"snapshot.bytes", "B", "lower"},
	{"snapshot.materialize_ms", "ms", "lower"},
	{"snapshot.adopt_ms", "ms", "lower"},
	{"snapshot.capture_ms", "ms", "lower"},
	{"snapshot.restore_ms", "ms", "lower"},
	{"snapshot.self_s", "s", "lower"},
	{"runtime.alloc_mb_per_op", "MB", "lower"},
	{"runtime.mallocs_per_op", "count", "lower"},
	{"runtime.gc_cycles_per_op", "count", "lower"},
	{"runtime.gc_cpu_frac", "fraction", "lower"},
	{"runtime.max_rss_mb", "MB", "lower"},
	{"bench.self_s", "s", "lower"},
	{"trace_overhead_pct", "%", "lower"},
}

// pass is the traced run: spans, the untraced op it is compared with, and
// the layer metrics filled as it goes.
type pass struct {
	tr        *tracer
	probe     *memProbe
	m         map[string]float64
	opS       float64        // the untraced op's time at nominal memory speed
	opWall    float64        // the untraced op's wall time
	res       opResult       // the untraced op's result
	wall      float64        // the last op's wall time
	rt        runtimeReading // the runtime's counters over the last op
	attempted int
	failed    int
}

// timedOp runs fn as one more op of the pass and returns its wall time at
// nominal memory speed, the figure ops are compared by. The raw wall time
// is left in p.wall for ratios against spans and layer drivers, which are
// not rescaled.
func (p *pass) timedOp(fn func() (opResult, error)) (float64, opResult, error) {
	runtime.GC()
	p.attempted++
	closeWindow := p.probe.window()
	before := readRuntime()
	t0 := time.Now()
	res, err := safe(fn)
	p.wall = time.Since(t0).Seconds()
	p.rt = readRuntime().since(before)
	return p.wall * closeWindow(), res, err
}

// safe runs fn, turning a panic into an error.
func safe(fn func() (opResult, error)) (res opResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return fn()
}

// runTraced runs the traced pass of w: the set-up builds; a warm-up op,
// so that neither compared op pays the process's cold heap; the op traced;
// the op untraced, whose counters, allocations and wall time the layer
// metrics use; the workload's extra configurations; and the standalone
// layer drivers.
func runTraced(w *workload, probe *memProbe, check func(string) error) *pass {
	p := &pass{tr: newTracer(), probe: probe, m: make(map[string]float64)}
	for _, d := range perLayer {
		p.m[d.name] = 0
	}
	tr := p.tr
	fail := func(what string, err error) {
		p.failed++
		logf("%s: %s: %v", w.name, what, err)
	}
	checked := func(res opResult, err error) (opResult, error) {
		if err == nil {
			err = check(res.digest)
		}
		return res, err
	}

	tr.beginOp()
	_, sys := setups(w, tr, probe)
	p.m["core.build_ms"] = ms(median(seconds(tr.find("core.NewHCMD", ""))))
	p.m["project.begin_ms"] = ms(median(seconds(tr.find(w.setupCall, "setup"))))

	if _, _, err := p.timedOp(func() (opResult, error) { return checked(w.op(sys, nil)) }); err != nil {
		fail("warm-up op", err)
		return p
	}

	tr.beginOp()
	traced := tr.op
	tracedS, _, err := p.timedOp(func() (res opResult, err error) {
		tr.do("bench.op", "", func() { res, err = w.op(sys, tr) })
		return checked(res, err)
	})
	if err != nil {
		fail("traced op", err)
	}
	tracedWall := p.wall
	for layer, d := range tr.selfTimes(traced) {
		if _, ok := p.m[layer+".self_s"]; ok {
			p.m[layer+".self_s"] = d.Seconds()
		}
	}

	var res opResult
	p.opS, res, err = p.timedOp(func() (opResult, error) { return checked(w.op(sys, nil)) })
	if err != nil {
		fail("untraced op", err)
		return p
	}
	p.opWall = p.wall
	heap := heapLiveBytes()
	runtime.KeepAlive(res.keep)
	res.keep = nil
	p.res = res
	p.m["trace_overhead_pct"] = (tracedS - p.opS) / p.opS * 100
	p.m["runtime.alloc_mb_per_op"] = float64(p.rt.alloc) / 1e6
	p.m["runtime.mallocs_per_op"] = float64(p.rt.mallocs)
	p.m["runtime.gc_cycles_per_op"] = float64(p.rt.gcs)
	if p.rt.cpu > 0 {
		p.m["runtime.gc_cpu_frac"] = p.rt.gcCPU / p.rt.cpu
	}

	if _, err := safe(func() (opResult, error) { return opResult{}, w.extra(sys, p) }); err != nil {
		fail("extra configuration", err)
	}
	if err := p.layerDrivers(); err != nil {
		fail("layer driver", err)
	}
	p.countMetrics(heap)
	p.spanMetrics(tracedWall)
	p.m["runtime.max_rss_mb"] = maxRSSMB()
	return p
}

// countMetrics fills the metrics read from the untraced op's counters.
func (p *pass) countMetrics(heapBytes uint64) {
	c := p.res.counts
	p.m["sim.events"] = float64(c.events)
	p.m["sim.peak_pending"] = float64(c.peakPending)
	p.m["wcg.sent"] = float64(c.server.Sent)
	p.m["wcg.received"] = float64(c.server.Received)
	p.m["wcg.invalid"] = float64(c.server.Invalid)
	p.m["wcg.timed_out"] = float64(c.server.TimedOut)
	p.m["wcg.wasted"] = float64(c.server.Wasted)
	p.m["wcg.completed"] = float64(c.server.Completed)
	if c.server.Received > 0 {
		p.m["wcg.useful_ratio"] = float64(c.server.Useful) / float64(c.server.Received)
	}
	p.m["volunteer.hosts_joined"] = float64(c.hostsJoined)
	if c.hostsJoined > 0 {
		p.m["volunteer.bytes_per_host"] = float64(heapBytes) / float64(c.hostsJoined)
	}
	p.m["volunteer.mux_share_err"] = c.shareErr
	p.m["credit.points_total"] = c.points
	p.m["faults.lost_uploads"] = float64(c.lostUploads)
	p.m["faults.dropped_results"] = float64(c.droppedResults)
	p.m["faults.churned_hosts"] = float64(c.churnedHosts)
	p.m["faults.downtime_h"] = c.downtimeH
	p.m["sim.est_share"] = p.m["sim.hold_ns"] * float64(c.events) / 1e9 / p.opWall
	p.m["wcg.est_share"] = p.m["wcg.cycle_ns"] * float64(c.received()) / 1e9 / p.opWall
	p.m["credit.est_share"] = p.m["credit.credit_ns"] * float64(c.hostsJoined) / 1e9 / p.opWall
	if sw := p.res.sweep; sw != nil {
		p.m["experiment.prefix_hits"] = float64(sw.PrefixHits)
		p.m["experiment.saved_sim_weeks"] = sw.SavedSimWeeks
		p.m["experiment.parallel_speedup"] = sw.ParallelSpeedup
	}
}

// spanMetrics fills the metrics derived from the spans; tracedWall is the
// traced op's wall time.
func (p *pass) spanMetrics(tracedWall float64) {
	tr := p.tr
	var runTo float64
	for _, phase := range []string{"control", "ramp", "full"} {
		s := sum(seconds(tr.find("project.RunTo", phase)))
		p.m["project.phase_s."+phase] = s
		runTo += s
	}
	week := 0
	for _, s := range tr.spans {
		if s.Name == "project.RunTo" && s.Tag != "prefix" {
			week++
			if d := s.dur().Seconds(); d > p.m["project.week_s_max"] {
				p.m["project.week_s_max"], p.m["project.week_max"] = d, float64(week)
			}
		}
	}
	if runTo == 0 {
		runTo = sum(seconds(tr.find("project.GridRun", "")))
	}
	if runTo > 0 {
		p.m["sim.events_per_s"] = float64(p.res.counts.events) / runTo
	}
	p.m["project.finish_s"] = sum(seconds(tr.find("project.Fork", "finish")))
	p.m["project.prefix_s"] = sum(seconds(tr.find("project.RunTo", "prefix")))
	p.m["project.fork_ms"] = ms(median(seconds(tr.find("project.Fork", "cell"))))
	p.m["snapshot.materialize_ms"] = ms(median(seconds(tr.find("snapshot.Materialize", ""))))
	p.m["snapshot.adopt_ms"] = ms(median(seconds(tr.find("snapshot.AdoptSnapshot", ""))))
	p.m["snapshot.capture_ms"] = ms(median(seconds(tr.find("snapshot.Snapshot", ""))))
	p.m["snapshot.restore_ms"] = ms(median(seconds(tr.find("snapshot.Restore", ""))))

	cells := seconds(tr.find("project.cell", ""))
	if len(cells) == 0 {
		return
	}
	p.m["experiment.first_cell_ms"] = ms(cells[0])
	p.m["experiment.cell_ms_p50"] = ms(median(cells))
	if p90, err := tailPercentile(cells, 0.9); err == nil {
		p.m["experiment.cell_ms_p90"] = ms(p90)
	} else {
		logf("experiment.cell_ms_p90 not reported: %v", err)
	}
	p.m["experiment.busy_frac"] = sum(cells) / (parallelism * tracedWall)
}

// layerDrivers times single layers on standalone inputs: the engine heap
// at the run's peak depth, one middleware dispatch cycle, one ledger
// credit. Multiplied by the run's own counts they estimate each layer's
// share of the op.
func (p *pass) layerDrivers() error {
	tr := p.tr
	tr.beginOp()
	if depth := p.res.counts.peakPending; depth > 0 {
		tr.do("sim.hold", "", func() { p.m["sim.hold_ns"] = holdNs(depth) })
	}
	tr.do("wcg.cycle", "", func() { p.m["wcg.cycle_ns"] = cycleNs() })
	var err error
	tr.do("credit.Credit", "", func() { p.m["credit.credit_ns"], err = creditNs() })
	return err
}

// holdNs is the classic hold model: an engine kept at depth pending events,
// each step popping the earliest and scheduling its successor.
func holdNs(depth int) float64 {
	const steps = 1 << 20
	e := sim.NewEngine()
	r := rng.New(1)
	var hold func()
	hold = func() { e.Schedule(e.Now()+r.Float64()*sim.Day, hold) }
	for i := 0; i < depth; i++ {
		e.Schedule(r.Float64()*sim.Day, hold)
	}
	t0 := time.Now()
	for i := 0; i < steps; i++ {
		e.Step()
	}
	return float64(time.Since(t0).Nanoseconds()) / steps
}

// cycleNs times one AddWorkunit + RequestWork + CompleteFrom cycle on a
// standalone server under the deployed middleware configuration.
func cycleNs() float64 {
	const cycles = 200_000
	s := wcg.NewServer(sim.NewEngine(), wcg.DefaultConfig())
	wu := workunit.Workunit{ISepLo: 1, ISepHi: 10, RefSeconds: 3600}
	t0 := time.Now()
	for i := 0; i < cycles; i++ {
		wu.ID = int64(i)
		s.AddWorkunit(wu, 0)
		s.CompleteFrom(s.RequestWork(), wcg.OutcomeValid, 3600, 0)
	}
	return float64(time.Since(t0).Nanoseconds()) / cycles
}

// creditNs times one Ledger.Credit over a registered fleet.
func creditNs() (float64, error) {
	const devices, credits = 30_000, 1 << 20
	l := credit.NewLedger()
	for id := 0; id < devices; id++ {
		l.Register(credit.Device{ID: id, Score: 50 + float64(id%100)})
	}
	t0 := time.Now()
	for i := 0; i < credits; i++ {
		if _, err := l.Credit(credit.Result{Device: i % devices, ReportedS: 3600, At: float64(i)}); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(t0).Nanoseconds()) / credits, nil
}

// setup_s is the median of setupSamples samples, each the fastest of
// setupTries cold builds: a build is slowed, never sped up, by a burst of
// page faults or a neighbour's memory traffic, and the fastest of three
// back-to-back builds filters most such bursts out of the median.
const setupSamples, setupTries = 15, 3

// setups times cold builds of the system plus the workload's run context
// and returns the set-up samples at nominal memory speed and the last
// system built.
func setups(w *workload, tr *tracer, probe *memProbe) ([]float64, *core.System) {
	var sys *core.System
	times := make([]float64, 0, setupSamples)
	closeWindow := probe.window()
	for i := 0; i < setupSamples; i++ {
		best := math.Inf(1)
		for j := 0; j < setupTries; j++ {
			runtime.GC()
			t0 := time.Now()
			tr.do("core.NewHCMD", "", func() { sys = core.NewHCMD() })
			tr.do(w.setupCall, "setup", func() { w.setup(sys) })
			best = min(best, time.Since(t0).Seconds())
		}
		times = append(times, best)
	}
	f := closeWindow()
	logf("%s: setup %.4f s wall, memory-speed factor %.3f", w.name, median(times), f)
	for i := range times {
		times[i] *= f
	}
	return times, sys
}

type runtimeReading struct {
	alloc, mallocs uint64
	gcs            uint32
	gcCPU, cpu     float64 // cumulative CPU seconds: in GC, available in total
}

// since returns the counters accumulated from before to r.
func (r runtimeReading) since(before runtimeReading) runtimeReading {
	return runtimeReading{r.alloc - before.alloc, r.mallocs - before.mallocs, r.gcs - before.gcs,
		r.gcCPU - before.gcCPU, r.cpu - before.cpu}
}

func readRuntime() runtimeReading {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return runtimeReading{ms.TotalAlloc, ms.Mallocs, ms.NumGC, s[0].Value.Float64(), s[1].Value.Float64()}
}

// heapLiveBytes is the heap still reachable after a full collection.
func heapLiveBytes() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// maxRSSMB is the process's peak resident set, informational only.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports kilobytes
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func ms(s float64) float64 { return s * 1e3 }
