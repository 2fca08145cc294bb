package experiment

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/project"
	"repro/internal/rng"
	"repro/internal/sim"
)

// Metrics is the per-run outcome summary the sweep aggregates: the paper's
// headline quantities extracted from a campaign report.
type Metrics struct {
	Completed      bool    `json:"completed"`
	MakespanWeeks  float64 `json:"makespan_weeks"`
	Redundancy     float64 `json:"redundancy"`      // copies sent per distinct workunit
	UsefulFraction float64 `json:"useful_fraction"` // distinct completions per received result
	AvgVFTPWhole   float64 `json:"avg_vftp_whole"`
	AvgVFTPFull    float64 `json:"avg_vftp_full"`
	TotalFactor    float64 `json:"total_factor"` // end-to-end CPU inflation
	CPUSeconds     float64 `json:"cpu_seconds"`
	PointsTotal    float64 `json:"points_total"` // §8 credit accounting
	DistinctWUs    int64   `json:"distinct_wus"`

	// Fault-plane metrics, filled from Report.Faults. All zero — and
	// omitted from the JSON rendering — on fault-free runs, so pre-fault
	// checkpoint lines still match byte for byte.
	DowntimeHours   float64 `json:"downtime_hours,omitempty"`
	LostUploads     int64   `json:"lost_uploads,omitempty"`
	DroppedResults  int64   `json:"dropped_results,omitempty"`
	ChurnedHosts    int64   `json:"churned_hosts,omitempty"`
	MeanRecoverySec float64 `json:"mean_recovery_seconds,omitempty"`
}

// ExtractMetrics reduces a campaign report to sweep metrics.
func ExtractMetrics(rep *project.Report) Metrics {
	m := Metrics{
		Completed:      rep.Completed,
		MakespanWeeks:  rep.WeeksElapsed,
		Redundancy:     rep.ServerStats.RedundancyFactor(),
		UsefulFraction: rep.ServerStats.UsefulFraction(),
		AvgVFTPWhole:   rep.AvgVFTPWhole,
		AvgVFTPFull:    rep.AvgVFTPFullPower,
		TotalFactor:    rep.TotalFactor(),
		CPUSeconds:     rep.ServerStats.CPUSeconds,
		PointsTotal:    rep.PointsTotal,
		DistinctWUs:    rep.DistinctWUs,
	}
	if f := rep.Faults; f != nil {
		m.DowntimeHours = f.DowntimeSeconds / 3600
		m.LostUploads = f.LostUploads
		m.DroppedResults = f.DroppedResults
		m.ChurnedHosts = f.Departures
		m.MeanRecoverySec = f.MeanRecoverySeconds
	}
	return m
}

// RunResult is one completed (scenario, replication) cell of a sweep. Seed,
// Scale and HHours record the sweep parameters the cell ran under so a
// checkpoint from a differently-parameterized sweep is never reused.
type RunResult struct {
	Scenario string  `json:"scenario"`
	Rep      int     `json:"rep"`
	Seed     uint64  `json:"seed"`
	Scale    float64 `json:"scale"`
	HHours   float64 `json:"h_hours"`
	Metrics  Metrics `json:"metrics"`

	// Failed marks a cell whose simulation panicked twice (see Run's
	// per-cell isolation); Error carries the second panic message. Failed
	// cells are never checkpointed, so a resumed sweep retries them.
	Failed bool   `json:"failed,omitempty"`
	Error  string `json:"error,omitempty"`
}

// Key identifies a sweep cell for checkpoint resume.
type Key struct {
	Scenario string
	Rep      int
}

// Progress is delivered to the Options.Progress callback after every cell,
// from the goroutine that finished it.
type Progress struct {
	Done    int // cells finished so far (resumed ones included)
	Total   int // cells in the sweep
	Resumed bool
	Result  RunResult

	// Live telemetry (wall clock, not sim time).
	WallSeconds float64 // this cell's simulation wall time (0 if resumed)
	CellsPerSec float64 // finished cells per wall second so far
	ETASeconds  float64 // projected seconds to sweep completion
}

// Options parameterizes a sweep.
type Options struct {
	// Base is the already-scaled campaign configuration each scenario
	// mutates a copy of. Its DS and M are shared read-only across workers.
	Base project.Config

	Scenarios []Scenario
	Reps      int // replications per scenario (≥ 1)

	// Workers bounds the goroutine pool; 0 means GOMAXPROCS.
	Workers int

	// Shards is every cell's host-kernel shard count (0 = 1). The shard
	// count never changes simulation results — runs are byte-identical for
	// every K — so it is not part of the checkpoint key and checkpointed
	// cells from a differently-sharded sweep stay valid.
	Shards int

	// BaseSeed is mixed with the scenario and replication indexes to derive
	// each run's seed; 0 falls back to Base.Seed.
	BaseSeed uint64

	// Checkpoint, when non-nil, is consulted before each cell (completed
	// cells are skipped) and receives every freshly completed cell.
	Checkpoint *Checkpoint

	// Progress, when non-nil, is called after every cell. Calls are
	// serialized by the runner's internal lock.
	Progress func(Progress)

	// Fork enables prefix-shared execution: scenarios carrying a DivergesAt
	// hint are grouped per replication, the shared prefix of their common
	// trajectory runs once, and each cell forks from an in-memory snapshot
	// at its divergence time (the project.Runner fork path). Results and
	// aggregates are byte-identical to an unforked sweep — grouped
	// scenarios share one derived trajectory seed per replication in both
	// modes — only wall clock and the Sweep.Prefix* stats change. Grouped
	// cells run unprobed: MetricsSink/TraceSink samples are skipped for
	// them in fork mode.
	Fork bool

	// ForkWorkers bounds the per-group parallel fan-out in fork mode: when
	// a prefix group has more than one pending cell, the tree worker
	// materializes a portable snapshot of the shared prefix
	// (project.Runner.Materialize) and up to ForkWorkers-1 pool workers
	// adopt it into their own run contexts and race the group's suffixes
	// alongside the tree worker's own in-place forks. 0 or 1 keeps grouped
	// suffixes sequential on the tree worker. Results and aggregates are
	// byte-identical at every value — adoption is pinned to the in-place
	// fork path — so this is purely a wall-clock choice; values above
	// Workers are capped to it.
	ForkWorkers int

	// MetricsSink / TraceSink, when non-nil, attach a pooled obs probe to
	// every cell: each worker owns a registry and trace (re-tagged with
	// scenario/rep per cell) and exports to these shared, mutex-guarded
	// sinks. Probes are run-neutral, so instrumented cells produce the
	// same Metrics as bare ones.
	MetricsSink *obs.Sink
	TraceSink   *obs.Sink
	// SampleEvery is the metrics sampling cadence in sim seconds
	// (0 = obs.DefaultSampleEvery).
	SampleEvery float64
}

// Sweep is a completed sweep: every cell result in deterministic
// (scenario, replication) order plus the per-scenario aggregates.
type Sweep struct {
	Results    []RunResult `json:"results"`
	Aggregates []Aggregate `json:"aggregates"`
	Resumed    int         `json:"resumed"` // cells satisfied from the checkpoint

	// Failed holds the cells whose simulations panicked twice; they are
	// excluded from Results and Aggregates. Run also returns an error when
	// any cell lands here, so unnoticed partial sweeps cannot happen.
	Failed []RunResult `json:"failed,omitempty"`

	// Prefix-sharing statistics, filled only in fork mode. Excluded from
	// the JSON rendering so forked and unforked sweep files diff clean.
	PrefixGroups  int     `json:"-"` // snapshots taken across all prefix trees
	PrefixHits    int     `json:"-"` // cells satisfied by forking a snapshot
	SavedSimWeeks float64 `json:"-"` // sim-weeks not re-simulated thanks to sharing

	// Parallel fan-out statistics, filled only when fork mode runs with
	// ForkWorkers > 1 and at least one group actually fanned out. Excluded
	// from the JSON rendering like the prefix stats, so forked,
	// parallel-forked and unforked sweep files diff clean.
	SnapshotBytes     int     `json:"-"` // portable-snapshot bytes published, summed over groups
	SnapshotCaptureNS int64   `json:"-"` // wall time spent materializing snapshots
	SnapshotAdoptNS   int64   `json:"-"` // wall time spent adopting snapshots, summed over adopters
	AdoptedRunners    int     `json:"-"` // adopt-chunk jobs executed across all groups
	ForksParallel     int     `json:"-"` // cells forked on adopted runners
	ParallelSpeedup   float64 `json:"-"` // Σ fanned-out tree work / Σ tree wall span
}

// DeriveSeed mixes the sweep base seed with a cell's scenario and
// replication indexes into an independent per-run seed. The derivation
// depends only on these three values, so a cell's simulation is identical
// no matter which worker runs it or in which order.
func DeriveSeed(base uint64, scenario, rep int) uint64 {
	const goldenGamma = 0x9e3779b97f4a7c15
	const mixGamma = 0xbf58476d1ce4e5b9
	return rng.New(base ^ uint64(scenario+1)*goldenGamma ^ uint64(rep+1)*mixGamma).Uint64()
}

// Run executes the sweep: Scenarios × Reps campaign simulations fanned out
// over a bounded worker pool. Each simulation is single-threaded and
// deterministic in its derived seed; only scheduling is concurrent, so the
// returned results and aggregates are independent of Workers. Cancelling
// ctx stops handing out new cells (in-flight simulations finish) and Run
// returns the context error alongside the partial sweep.
func Run(ctx context.Context, opts Options) (*Sweep, error) {
	if opts.Base.DS == nil || opts.Base.M == nil {
		return nil, fmt.Errorf("experiment: Options.Base needs dataset and matrix")
	}
	if len(opts.Scenarios) == 0 {
		return nil, fmt.Errorf("experiment: no scenarios selected")
	}
	if opts.Reps < 1 {
		return nil, fmt.Errorf("experiment: Reps must be ≥ 1, got %d", opts.Reps)
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	baseSeed := opts.BaseSeed
	if baseSeed == 0 {
		baseSeed = opts.Base.Seed
	}

	type cell struct {
		scenIdx int
		rep     int
	}
	cells := make([]cell, 0, len(opts.Scenarios)*opts.Reps)
	for si := range opts.Scenarios {
		for r := 0; r < opts.Reps; r++ {
			cells = append(cells, cell{scenIdx: si, rep: r})
		}
	}
	total := len(cells)
	results := make([]RunResult, total)

	// The prefix plan exists whether or not the sweep forks: grouped
	// scenarios (DivergesAt > 0) share one trajectory seed per replication
	// in both modes, so a forked sweep's results are byte-identical to an
	// unforked one and checkpoints transfer between the two.
	plan := planPrefix(opts.Scenarios)
	seedFor := func(scenIdx, rep int) uint64 {
		if plan != nil && opts.Scenarios[scenIdx].DivergesAt > 0 {
			scenIdx = plan.root
		}
		return DeriveSeed(baseSeed, scenIdx, rep)
	}

	// treeStat times one replication's fanned-out prefix tree for the
	// parallel-speedup estimate: cost sums the wall time of the tree
	// worker's walk and of every adopted chunk; the span runs from the
	// tree walk's start to its last finisher. Only trees that actually
	// fanned out get an entry.
	type treeStat struct {
		start, end time.Time
		cost       float64
	}
	var (
		mu           sync.Mutex
		done         int
		resumed      int
		prefixGroups int
		prefixHits   int
		savedWeeks   float64
		ctxSkipped   bool

		snapBytes int
		snapCapNS int64
		adoptNS   int64
		adopted   int
		forksPar  int
		treeStats = make(map[int]*treeStat)
	)
	start := time.Now()
	finish := func(i int, res RunResult, fromCkpt bool, wall float64) {
		mu.Lock()
		defer mu.Unlock()
		results[i] = res
		done++
		if fromCkpt {
			resumed++
		}
		if opts.Progress != nil {
			p := Progress{Done: done, Total: total, Resumed: fromCkpt, Result: res, WallSeconds: wall}
			if elapsed := time.Since(start).Seconds(); elapsed > 0 {
				p.CellsPerSec = float64(done) / elapsed
				p.ETASeconds = float64(total-done) / p.CellsPerSec
			}
			opts.Progress(p)
		}
	}

	// A job is one standalone cell (cell ≥ 0), one replication's prefix
	// tree (cell == -1, chunk == nil) — every grouped scenario of that
	// rep, run by forking snapshots off a single shared-prefix trajectory —
	// or one adopted chunk of a fanned-out prefix group (chunk != nil): a
	// slice of a group's cells raced on another worker's runner via
	// portable-snapshot adoption.
	type adoptChunk struct {
		ps    *project.PortableSnapshot
		at    sim.Time
		seed  uint64
		rep   int
		cells []int
	}
	type job struct {
		cell  int
		rep   int
		chunk *adoptChunk
	}
	forkWorkers := opts.ForkWorkers
	if forkWorkers > workers {
		forkWorkers = workers
	}
	var jobList []job
	forking := opts.Fork && plan != nil
	if forking {
		// Tree jobs first: they are the largest units of work, so handing
		// them out before the standalone cells balances the worker pool.
		for r := 0; r < opts.Reps; r++ {
			jobList = append(jobList, job{cell: -1, rep: r})
		}
		inTree := make([]bool, len(opts.Scenarios))
		for _, si := range plan.cells() {
			inTree[si] = true
		}
		for i, c := range cells {
			if !inTree[c.scenIdx] {
				jobList = append(jobList, job{cell: i})
			}
		}
	} else {
		for i := range cells {
			jobList = append(jobList, job{cell: i})
		}
	}

	// The job queue is dynamic: tree jobs enqueue adopt-chunk jobs as their
	// groups fan out. The channel is buffered for the worst-case job count
	// so enqueuing from a worker never blocks, and a WaitGroup-driven
	// closer ends the range loops once every job — late-enqueued chunks
	// included — has drained.
	capN := len(jobList)
	if forking && forkWorkers > 1 {
		capN += opts.Reps * len(plan.groups) * forkWorkers
	}
	jobs := make(chan job, capN)
	var pending sync.WaitGroup
	enqueue := func(j job) {
		pending.Add(1)
		jobs <- j
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// One pooled run context per worker: the first cell builds the
			// slabs, heaps and host arrays, every later cell reuses them.
			// Runner reports are valid until the next Run call, which is
			// fine here: ExtractMetrics copies the scalars out immediately.
			runner := project.NewRunner()
			cp := newCellProbe(opts.MetricsSink, opts.TraceSink, opts.SampleEvery)

			// ckptHit finishes cell i from the checkpoint when its recorded
			// parameters match the current sweep.
			ckptHit := func(i int, sc Scenario, seed uint64) bool {
				if opts.Checkpoint == nil {
					return false
				}
				prev, ok := opts.Checkpoint.Lookup(Key{Scenario: sc.Name, Rep: cells[i].rep})
				if !ok || prev.Seed != seed || prev.Scale != opts.Base.WorkScale ||
					prev.HHours != opts.Base.HHours {
					return false
				}
				finish(i, prev, true, 0)
				return true
			}

			runStandalone := func(i int) {
				c := cells[i]
				sc := opts.Scenarios[c.scenIdx]
				seed := seedFor(c.scenIdx, c.rep)
				if ckptHit(i, sc, seed) {
					return
				}
				cellStart := time.Now()
				rep, panicMsg := runCell(runner, &opts, sc, c.rep, seed, cp.arm(sc.Name, c.rep))
				if rep == nil {
					// The panic may have left the pooled run context mid-run
					// and inconsistent; rebuild it and retry the cell once on
					// fresh arenas.
					runner = project.NewRunner()
					rep, panicMsg = runCell(runner, &opts, sc, c.rep, seed, cp.arm(sc.Name, c.rep))
					if rep == nil {
						runner = project.NewRunner() // don't poison later cells
					}
				}
				wall := time.Since(cellStart).Seconds()
				cp.flush(sc.Name, c.rep)
				res := RunResult{
					Scenario: sc.Name,
					Rep:      c.rep,
					Seed:     seed,
					Scale:    opts.Base.WorkScale,
					HHours:   opts.Base.HHours,
				}
				if rep != nil {
					res.Metrics = ExtractMetrics(rep)
					if opts.Checkpoint != nil {
						opts.Checkpoint.Record(res)
					}
				} else {
					res.Failed = true
					res.Error = panicMsg
				}
				finish(i, res, false, wall)
			}

			// runChunk adopts a published prefix snapshot into this worker's
			// pooled runner and forks its slice of the group's cells — the
			// receiving half of a fanned-out prefix group. A panic (in
			// adoption or a fork) rebuilds the runner and reruns the chunk's
			// unfinished cells standalone, exactly like the tree fallback.
			runChunk := func(ch *adoptChunk) {
				chunkStart := time.Now()
				chunkDone := make(map[int]bool)
				ok := func() (ok bool) {
					defer func() {
						if p := recover(); p != nil {
							ok = false
						}
					}()
					adoptStart := time.Now()
					runner.AdoptSnapshot(ch.ps)
					adoptDur := time.Since(adoptStart)
					runner.Snapshot()
					var nHits int
					var saved float64
					for _, ci := range ch.cells {
						c := cells[ci]
						sc := opts.Scenarios[c.scenIdx]
						cellStart := time.Now()
						rp := runner.Fork(cellConfig(&opts, sc, ch.seed, nil))
						wall := time.Since(cellStart).Seconds()
						res := RunResult{
							Scenario: sc.Name,
							Rep:      c.rep,
							Seed:     ch.seed,
							Scale:    opts.Base.WorkScale,
							HHours:   opts.Base.HHours,
							Metrics:  ExtractMetrics(rp),
						}
						if opts.Checkpoint != nil {
							opts.Checkpoint.Record(res)
						}
						chunkDone[ci] = true
						nHits++
						saved += float64(ch.at) / float64(sim.Week)
						finish(ci, res, false, wall)
					}
					mu.Lock()
					prefixHits += nHits
					savedWeeks += saved
					adopted++
					adoptNS += adoptDur.Nanoseconds()
					forksPar += nHits
					mu.Unlock()
					return true
				}()
				mu.Lock()
				if st := treeStats[ch.rep]; st != nil {
					st.cost += time.Since(chunkStart).Seconds()
					if t := time.Now(); t.After(st.end) {
						st.end = t
					}
				}
				mu.Unlock()
				if !ok {
					runner = project.NewRunner()
					for _, ci := range ch.cells {
						if !chunkDone[ci] {
							runStandalone(ci)
						}
					}
				}
			}

			// runTree walks one replication's prefix tree. Cells already in
			// the checkpoint are finished as resumed before the walk; cells
			// the walk forks are tracked in treeDone so the panic fallback
			// reruns only the unfinished remainder standalone, and cells
			// handed off to adopt chunks are excluded from it (their chunk
			// finishes them independently).
			runTree := func(rep int) {
				treeSeed := DeriveSeed(baseSeed, plan.root, rep)
				type pendingGroup struct {
					at    sim.Time
					cells []int
				}
				var groups []pendingGroup
				for _, g := range plan.groups {
					pg := pendingGroup{at: g.at}
					for _, si := range g.scens {
						ci := si*opts.Reps + rep
						if !ckptHit(ci, opts.Scenarios[si], treeSeed) {
							pg.cells = append(pg.cells, ci)
						}
					}
					if len(pg.cells) > 0 {
						groups = append(groups, pg)
					}
				}
				if len(groups) == 0 {
					return // the whole tree resumed from the checkpoint
				}
				treeDone := make(map[int]bool)
				handedOff := make(map[int]bool)
				treeStart := time.Now()
				ok := func() (ok bool) {
					defer func() {
						if p := recover(); p != nil {
							ok = false
						}
					}()
					var nGroups, nHits int
					var saved float64
					baseCfg := opts.Base
					baseCfg.Seed = treeSeed
					if opts.Shards > 0 {
						baseCfg.Shards = opts.Shards
					}
					baseCfg.Probe = nil // forked cells run unprobed
					runner.Begin(baseCfg)
					for gi, g := range groups {
						runner.RunTo(g.at)
						mine := g.cells
						// Fan the group's suffixes out: materialize the
						// shared prefix once, hand every chunk but the first
						// to the pool for snapshot adoption, and keep the
						// first for the in-place fork path below. A context
						// that cannot be made portable (Materialize error)
						// runs the whole group sequentially here instead.
						if n := min(forkWorkers, len(g.cells)); n > 1 {
							capStart := time.Now()
							ps, err := runner.Materialize()
							capDur := time.Since(capStart)
							if err == nil {
								mu.Lock()
								snapBytes += ps.Bytes()
								snapCapNS += capDur.Nanoseconds()
								if treeStats[rep] == nil {
									treeStats[rep] = &treeStat{start: treeStart}
								}
								mu.Unlock()
								per := (len(g.cells) + n - 1) / n
								mine = g.cells[:per]
								for lo := per; lo < len(g.cells); lo += per {
									hi := min(lo+per, len(g.cells))
									ch := &adoptChunk{ps: ps, at: g.at, seed: treeSeed, rep: rep, cells: g.cells[lo:hi]}
									for _, ci := range ch.cells {
										handedOff[ci] = true
									}
									enqueue(job{cell: -1, chunk: ch})
								}
							}
						}
						runner.Snapshot()
						nGroups++
						for _, ci := range mine {
							c := cells[ci]
							sc := opts.Scenarios[c.scenIdx]
							cellStart := time.Now()
							rp := runner.Fork(cellConfig(&opts, sc, treeSeed, nil))
							wall := time.Since(cellStart).Seconds()
							res := RunResult{
								Scenario: sc.Name,
								Rep:      c.rep,
								Seed:     treeSeed,
								Scale:    opts.Base.WorkScale,
								HHours:   opts.Base.HHours,
								Metrics:  ExtractMetrics(rp),
							}
							if opts.Checkpoint != nil {
								opts.Checkpoint.Record(res)
							}
							treeDone[ci] = true
							nHits++
							saved += float64(g.at) / float64(sim.Week)
							finish(ci, res, false, wall)
						}
						if gi < len(groups)-1 {
							runner.Restore()
						}
					}
					// The shared prefix itself was simulated once, to the
					// deepest divergence point.
					saved -= float64(groups[len(groups)-1].at) / float64(sim.Week)
					mu.Lock()
					prefixGroups += nGroups
					prefixHits += nHits
					savedWeeks += saved
					mu.Unlock()
					return true
				}()
				mu.Lock()
				if st := treeStats[rep]; st != nil {
					st.cost += time.Since(treeStart).Seconds()
					if t := time.Now(); t.After(st.end) {
						st.end = t
					}
				}
				mu.Unlock()
				if !ok {
					// The panic may have left the pooled context mid-run and
					// inconsistent; rebuild it and run the unfinished cells
					// standalone (same seed, so results are unchanged).
					runner = project.NewRunner()
					for _, g := range groups {
						for _, ci := range g.cells {
							if !treeDone[ci] && !handedOff[ci] {
								runStandalone(ci)
							}
						}
					}
				}
			}

			for j := range jobs {
				if ctx.Err() != nil {
					// Cancelled: drain the queue without running anything
					// more; in-flight jobs on other workers finish.
					mu.Lock()
					ctxSkipped = true
					mu.Unlock()
				} else {
					switch {
					case j.chunk != nil:
						runChunk(j.chunk)
					case j.cell >= 0:
						runStandalone(j.cell)
					default:
						runTree(j.rep)
					}
				}
				pending.Done()
			}
		}()
	}

	// The queue is buffered for every job that can exist (jobList plus the
	// worst-case adopt-chunk fan-out), so enqueue never blocks: workers can
	// publish chunks from inside a job without deadlocking on the channel.
	// Close once all enqueued work — including chunks enqueued later — is
	// done.
	for _, j := range jobList {
		enqueue(j)
	}
	go func() {
		pending.Wait()
		close(jobs)
	}()
	wg.Wait()

	var ctxErr error
	if ctxSkipped {
		ctxErr = ctx.Err()
	}

	// Assemble in deterministic cell order, splitting out never-dispatched
	// cells (cancelled sweeps) and twice-panicked ones.
	finished := make([]RunResult, 0, done)
	var failed []RunResult
	for _, r := range results {
		switch {
		case r.Scenario == "": // never dispatched
		case r.Failed:
			failed = append(failed, r)
		default:
			finished = append(finished, r)
		}
	}
	sw := &Sweep{
		Results: finished, Failed: failed, Resumed: resumed,
		PrefixGroups: prefixGroups, PrefixHits: prefixHits, SavedSimWeeks: savedWeeks,
		SnapshotBytes: snapBytes, SnapshotCaptureNS: snapCapNS, SnapshotAdoptNS: adoptNS,
		AdoptedRunners: adopted, ForksParallel: forksPar,
	}
	var cost, span float64
	for _, st := range treeStats {
		cost += st.cost
		span += st.end.Sub(st.start).Seconds()
	}
	if span > 0 {
		sw.ParallelSpeedup = cost / span
	}
	sw.Aggregates = Aggregated(orderedNames(opts.Scenarios), finished)
	if ctxErr != nil {
		return sw, ctxErr
	}
	if len(failed) > 0 {
		f := failed[0]
		return sw, fmt.Errorf("experiment: %d of %d cells failed after a retry (first: %s rep %d: %s)",
			len(failed), total, f.Scenario, f.Rep, f.Error)
	}
	return sw, nil
}

// cellConfig builds the campaign configuration for one sweep cell: a copy
// of Base with the derived seed pinned across the scenario mutation, the
// sweep's shard plan, and the cell's probe (nil for forked cells).
func cellConfig(opts *Options, sc Scenario, seed uint64, probe *obs.Probe) project.Config {
	cfg := opts.Base // shallow copy; DS and M stay shared read-only
	cfg.Seed = seed
	sc.Mutate(&cfg)
	cfg.Seed = seed // a mutator must not undo the derived seed
	if opts.Shards > 0 {
		cfg.Shards = opts.Shards // execution plan, not an experiment variable
	}
	cfg.Probe = probe
	return cfg
}

// runCell runs one sweep cell — scenario mutation included — converting a
// panic anywhere in it into a nil report plus the panic message, so one
// poisoned cell cannot take down the worker (and with it the whole sweep).
func runCell(runner *project.Runner, opts *Options, sc Scenario, rep int, seed uint64, probe *obs.Probe) (r *project.Report, panicMsg string) {
	defer func() {
		if p := recover(); p != nil {
			r, panicMsg = nil, fmt.Sprint(p)
		}
	}()
	return runner.Run(cellConfig(opts, sc, seed, probe)), ""
}

func orderedNames(scenarios []Scenario) []string {
	names := make([]string, len(scenarios))
	for i, s := range scenarios {
		names[i] = s.Name
	}
	return names
}
