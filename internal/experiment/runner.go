package experiment

import (
	"context"
	"fmt"

	"repro/internal/obs"
	"repro/internal/project"
	"repro/internal/rng"
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

// RunResult is one completed (scenario, replication) cell of a sweep and
// one checkpoint line. Seed, Scale and HHours record the sweep parameters
// the cell ran under so a checkpoint from a differently-parameterized
// sweep is never reused.
type RunResult struct {
	Scenario string  `json:"scenario"`
	Rep      int     `json:"rep"`
	Seed     uint64  `json:"seed"`
	Scale    float64 `json:"scale"`
	HHours   float64 `json:"h_hours"`
	Metrics  Metrics `json:"metrics"`

	// Grid carries a co-run cell's metrics; Metrics stays zero. A pointer,
	// so campaign cells' lines keep their bytes and RunResult stays
	// comparable.
	Grid *GridMetrics `json:"grid,omitempty"`

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

// Progress is delivered to the Options.Progress callback after every cell:
// from the goroutine that ran it, or before the pool starts for a cell
// resumed from the checkpoint.
type Progress struct {
	Done    int // cells finished so far (resumed ones included)
	Total   int // cells in the sweep
	Resumed bool
	Result  RunResult

	// Live telemetry (wall clock, not sim time).
	WallSeconds float64 // this cell's simulation wall time (0 if resumed)

	// The sweep's fork statistics so far, this cell included. Only
	// ParallelSpeedup waits for the sweep's end (Sweep.ForkStats).
	ForkStats
}

// Options parameterizes a sweep.
type Options struct {
	// Base is the already-scaled configuration each scenario mutates a
	// copy of. Its DS and M are shared read-only across workers; its Seed
	// is the sweep's base seed, which DeriveSeed mixes with each cell's
	// scenario and replication indexes. A Base with Projects is a co-run
	// (project.GridRunner): its cells carry RunResult.Grid, it must hold
	// at least as many tenants as the widest scenario trims it to
	// (core.SharedGridConfig(2, ...) covers GridCatalog), and it can
	// neither fork nor run a scenario with a DivergesAt hint, since a
	// multiplexed kernel cannot be snapshotted.
	Base project.Config

	Scenarios []Scenario
	Reps      int // replications per scenario (≥ 1)

	// Workers bounds the goroutine pool; 0 means GOMAXPROCS.
	Workers int

	// Shards is ignored: the host kernel runs one window calendar. The
	// field stays only for callers that still assign it.
	Shards int

	// Checkpoint, when non-nil, is consulted before each cell (completed
	// cells are skipped) and receives every freshly completed cell. A
	// co-run cell records its first tenant's WorkScale and HHours.
	Checkpoint *Checkpoint

	// Progress, when non-nil, is called after every cell. Calls are
	// serialized by the sweep engine's internal lock.
	Progress func(Progress)

	// Fork enables prefix-shared execution: scenarios carrying a DivergesAt
	// hint are grouped per replication, the shared prefix of their common
	// trajectory runs once, and each cell forks from a portable in-memory
	// snapshot at its divergence time (the project.Runner fork path).
	// Results and aggregates are byte-identical to an unforked sweep —
	// grouped scenarios share one derived trajectory seed per replication
	// in both modes — only wall clock and the Sweep.Prefix* stats change.
	// Grouped cells run unprobed: MetricsSink/TraceSink samples are skipped
	// for them in fork mode.
	Fork bool

	// ForkWorkers bounds the per-group parallel fan-out in fork mode: the
	// tree job materializes every prefix group's shared prefix once
	// (project.Runner.Materialize), and when the group has more than one
	// pending cell it publishes up to ForkWorkers-1 adopt jobs, which other
	// pool workers take ahead of any job not yet started: they adopt the
	// snapshot into their own run contexts and race the group's suffixes
	// alongside the tree's own forks. 0 or 1 keeps grouped suffixes
	// sequential on the tree's worker. Every fork, on any runner, runs from
	// the same snapshot, so results and aggregates are byte-identical at
	// every value and this is purely a wall-clock choice; values above
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
	// (0 = obs.DefaultSampleEvery; otherwise finite and at least
	// obs.MinSampleEvery).
	SampleEvery float64
}

// Sweep is a completed sweep: every cell result in deterministic
// (scenario, replication) order plus the per-scenario aggregates. A co-run
// sweep carries no Aggregates; NewGridSweep renders it with its own.
type Sweep struct {
	Results    []RunResult `json:"results"`
	Aggregates []Aggregate `json:"aggregates"`
	Resumed    int         `json:"resumed"` // cells satisfied from the checkpoint

	// Failed holds the cells whose simulations panicked twice; they are
	// excluded from Results and Aggregates. Run also returns an error when
	// any cell lands here, so unnoticed partial sweeps cannot happen.
	Failed []RunResult `json:"failed,omitempty"`

	// Excluded from the JSON rendering, so forked and unforked files diff clean.
	ForkStats `json:"-"`
}

// ForkStats are a forked sweep's prefix-sharing and parallel fan-out
// statistics, which a Sweep carries and its Telemetry reports.
type ForkStats struct {
	// Prefix-sharing statistics, filled only in fork mode.
	PrefixGroups  int     // snapshots taken across all prefix trees
	PrefixHits    int     // cells satisfied by forking a snapshot
	SavedSimWeeks float64 // sim-weeks not re-simulated thanks to sharing

	// Parallel fan-out statistics, filled only when fork mode runs with
	// ForkWorkers > 1 and at least one group actually fanned out.
	SnapshotBytes     int     // portable-snapshot bytes published, summed over groups
	SnapshotCaptureNS int64   // wall time spent materializing snapshots
	SnapshotAdoptNS   int64   // wall time spent adopting snapshots, summed over adopters
	AdoptedRunners    int     // adopt-chunk jobs executed across all groups
	ForksParallel     int     // cells forked on adopted runners
	ParallelSpeedup   float64 // Σ fanned-out tree work / Σ tree wall span
}

// MaxCells bounds a sweep's cell count, len(Scenarios) × Reps: Run builds
// every cell's state, about 588 bytes, before the first one runs, and the
// commands' largest sweeps hold a few hundred cells.
const MaxCells = 100_000

// DeriveSeed mixes the sweep base seed with a cell's scenario and
// replication indexes into an independent per-run seed. The derivation
// depends only on these three values, so a cell's simulation is identical
// no matter which worker runs it or in which order.
func DeriveSeed(base uint64, scenario, rep int) uint64 {
	const goldenGamma = 0x9e3779b97f4a7c15
	const mixGamma = 0xbf58476d1ce4e5b9
	return rng.New(base ^ uint64(scenario+1)*goldenGamma ^ uint64(rep+1)*mixGamma).Uint64()
}

// Run executes the sweep: Scenarios × Reps campaign or co-run simulations
// on the sweep engine's bounded worker pool. Each simulation is
// single-threaded and deterministic in its derived seed; only scheduling is
// concurrent, so the returned results and aggregates are independent of
// Workers. A cell that panics is retried once on a rebuilt run context and,
// if it panics again, lands in Failed with an error returned. Cancelling
// ctx stops handing out new cells (in-flight simulations finish) and Run
// returns the context error alongside the partial sweep.
func Run(ctx context.Context, opts Options) (*Sweep, error) {
	corun := len(opts.Base.Projects) > 0
	if !corun && (opts.Base.DS == nil || opts.Base.M == nil) {
		return nil, fmt.Errorf("experiment: Options.Base needs dataset and matrix, or tenants")
	}
	if len(opts.Scenarios) == 0 {
		return nil, fmt.Errorf("experiment: no scenarios selected")
	}
	if opts.Reps < 1 {
		return nil, fmt.Errorf("experiment: Reps must be ≥ 1, got %d", opts.Reps)
	}
	if opts.Reps > MaxCells/len(opts.Scenarios) {
		return nil, fmt.Errorf("experiment: Reps %d exceeds MaxCells/len(Scenarios) = %d", opts.Reps, MaxCells/len(opts.Scenarios))
	}
	if err := obs.CheckSampleEvery(opts.SampleEvery); err != nil {
		return nil, fmt.Errorf("experiment: SampleEvery: %w", err)
	}
	scale, hours := opts.Base.WorkScale, opts.Base.HHours
	if corun {
		if opts.Fork {
			return nil, fmt.Errorf("experiment: a co-run cannot fork: a multiplexed kernel cannot be snapshotted")
		}
		for _, sc := range opts.Scenarios {
			if sc.DivergesAt > 0 {
				return nil, fmt.Errorf("experiment: co-run scenario %q carries a DivergesAt hint: a multiplexed kernel cannot be snapshotted", sc.Name)
			}
		}
		scale, hours = opts.Base.Projects[0].WorkScale, opts.Base.Projects[0].HHours
	}
	e := &engine{opts: &opts, scale: scale, hours: hours, grid: corun}

	// The prefix plan exists whether or not the sweep forks: grouped
	// scenarios (DivergesAt > 0) share one trajectory seed per replication
	// in both modes, so a forked sweep's results are byte-identical to an
	// unforked one and checkpoints transfer between the two.
	plan := planPrefix(opts.Scenarios)
	for si, sc := range opts.Scenarios {
		root := si
		if plan != nil && sc.DivergesAt > 0 {
			root = plan.root
		}
		for r := 0; r < opts.Reps; r++ {
			e.cells = append(e.cells, cell{Key: Key{Scenario: sc.Name, Rep: r}, scen: si, seed: DeriveSeed(opts.Base.Seed, root, r)})
		}
	}
	var trees func(pending []bool) []*job
	if opts.Fork && plan != nil {
		trees = func(pending []bool) []*job {
			return plan.trees(opts.Reps, pending, func(rep int) project.Config {
				// The shared trajectory is the base config's own.
				return cellConfig(&opts, Scenario{Mutate: func(*project.Config) {}}, DeriveSeed(opts.Base.Seed, plan.root, rep), nil)
			})
		}
	}
	finished, failed, err := e.run(ctx, trees)

	sw := Sweep{Results: finished, Failed: failed, Resumed: e.resumed, ForkStats: e.stats}
	var cost, span float64
	for _, st := range e.trees {
		cost += st.cost
		span += st.end.Sub(st.start).Seconds()
	}
	if span > 0 {
		sw.ParallelSpeedup = cost / span
	}
	if !corun {
		sw.Aggregates = Aggregated(orderedNames(opts.Scenarios), finished)
	}
	return &sw, err
}

// cellConfig builds the configuration for one sweep cell: a copy of Base
// with the derived seed pinned across the scenario mutation, and the
// cell's probe (nil for forked cells). A co-run's tenant and share slices
// are copied too, since mutators edit them.
func cellConfig(opts *Options, sc Scenario, seed uint64, probe *obs.Probe) project.Config {
	cfg := opts.Base // shallow copy; DS and M stay shared read-only
	cfg.Projects = append([]project.Config(nil), cfg.Projects...)
	cfg.Shares = append([]float64(nil), cfg.Shares...)
	cfg.Seed = seed
	sc.Mutate(&cfg)
	cfg.Seed = seed // a mutator must not undo the derived seed
	cfg.Probe = probe
	return cfg
}

func orderedNames(scenarios []Scenario) []string {
	names := make([]string, len(scenarios))
	for i, s := range scenarios {
		names[i] = s.Name
	}
	return names
}
