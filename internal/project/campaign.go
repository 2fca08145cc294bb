// Package project orchestrates docking campaigns on the simulated
// volunteer grid: workunit release order, the three project phases of
// §5.1, and the accounting behind Figures 6-8 and Table 2.
//
// The World Community Grid team launched "the workunit of one protein after
// an other", cheapest protein first — failures surface quickly when results
// return fast, and the ever-growing grid brings new, faster devices for the
// expensive tail. The project's share of the grid went through three
// phases: a low-priority control period (the first two months), a
// prioritization ramp (February), and a full-power phase at a constant
// ~45 % share of a growing grid (March until completion).
//
// Two run shapes share the machinery (see tenant.go):
//
//   - Campaign is the single-project path of the paper's phase I: one
//     project owning its entire host fleet, the fleet bound straight to
//     the project's middleware server (golden_test.go pins the report
//     hashes, fresh and pooled).
//   - Grid (grid.go) is the shared multi-project path: N tenants on one
//     volunteer fleet, each host multiplexing its work fetches across the
//     attached project servers by resource share, so a project's grid
//     share is a measured output instead of an assumed constant.
//
// Both run their fleet on the volunteer package's ShardKernel.
package project

import (
	"fmt"

	"math"

	"repro/internal/costmodel"
	"repro/internal/credit"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/protein"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/vftp"
	"repro/internal/volunteer"
	"repro/internal/wcg"
)

// LaunchOrder selects the order receptor batches are released in.
type LaunchOrder int

const (
	// CheapestFirst is the production policy (§5.1).
	CheapestFirst LaunchOrder = iota
	// CostliestFirst is the adversarial ablation.
	CostliestFirst
	// RandomOrder releases batches in dataset order scrambled by the seed.
	RandomOrder
)

// DeployedHHours is the workunit target duration the production campaign
// effectively used: Figure 8 shows most workunits tuned to 3-4 hours on the
// reference CPU with a mean of 3 h 18 m 47 s.
const DeployedHHours = 3.7

// CampaignStartWeek places the HCMD launch (December 19, 2006) on the grid
// model's time axis (weeks since the WCG launch of November 16, 2004).
const CampaignStartWeek = 109

// Config parameterizes a campaign run.
type Config struct {
	DS *protein.Dataset
	M  *costmodel.Matrix

	HHours float64 // workunit target duration; 0 = DeployedHHours
	Server wcg.Config
	Host   volunteer.HostConfig
	Grid   volunteer.GridModel

	// Phase schedule (§5.1), in weeks from campaign start.
	ControlWeeks float64 // low-priority period
	RampWeeks    float64 // prioritization ramp
	ControlShare float64 // grid share during the control period
	FullShare    float64 // grid share at full power

	Order LaunchOrder

	// WorkScale subsamples ligands per receptor (1 = all couples);
	// HostScale scales the host population by the same convention.
	// Scaled runs preserve the campaign's shape at a fraction of the cost.
	WorkScale float64
	HostScale float64

	Seed     uint64
	MaxWeeks float64 // safety stop

	// Shards is the host kernel's worker shard count K (volunteer.
	// ShardKernel); 0 = 1. Reports are byte-identical for every K, fresh
	// and pooled (golden-hash pinned), so this is purely a performance
	// choice for mega-grid host scales. Excluded from JSON so marshaled
	// reports and scenario hashes are invariant to the plan.
	Shards int `json:"-"`

	// SnapshotWeeks are the Figure 7 progression capture points.
	SnapshotWeeks []float64

	// Faults, when non-nil and enabled, injects the deterministic fault
	// plane (internal/faults): server outage windows, flaky uploads, host
	// churn, and the graceful-degradation behavior around them. nil — or a
	// config injecting nothing — leaves every layer byte-identical to the
	// fault-free code (the golden hashes pin this). A pointer with
	// omitempty so fault-free configs marshal to exactly the pre-fault
	// JSON. Single-project runs only; the shared multi-project grid
	// rejects it.
	Faults *faults.Config `json:",omitempty"`

	// Probe, if non-nil, attaches the observability plane (metrics
	// sampling and run tracing; see internal/obs) to the run. The probe is
	// resolved at construction/Reset time and its callbacks are read-only,
	// so a probed run's Report is byte-identical to an unprobed one and a
	// nil probe costs nothing. Excluded from JSON renderings of the config.
	Probe *obs.Probe `json:"-"`
}

// DefaultConfig returns the full-scale production configuration; callers
// normally reduce WorkScale/HostScale.
func DefaultConfig(ds *protein.Dataset, m *costmodel.Matrix) Config {
	return Config{
		DS:            ds,
		M:             m,
		HHours:        DeployedHHours,
		Server:        wcg.DefaultConfig(),
		Host:          volunteer.DefaultHostConfig(),
		Grid:          volunteer.DefaultGridModel(),
		ControlWeeks:  8,
		RampWeeks:     3,
		ControlShare:  0.05,
		FullShare:     0.48,
		Order:         CheapestFirst,
		WorkScale:     1,
		HostScale:     1,
		Seed:          protein.DefaultSeed + 2,
		MaxWeeks:      60,
		SnapshotWeeks: []float64{13, 16.3, 19.3, 25},
	}
}

// Share returns the project's share of the grid at week w of the campaign:
// the three-phase schedule of §5.1.
func (c Config) Share(w float64) float64 {
	switch {
	case w < c.ControlWeeks:
		return c.ControlShare
	case w < c.ControlWeeks+c.RampWeeks:
		frac := (w - c.ControlWeeks) / c.RampWeeks
		return c.ControlShare + frac*(c.FullShare-c.ControlShare)
	default:
		return c.FullShare
	}
}

// phaseAt names the §5.1 phase in force at week w — the run-trace label
// for the schedule Share implements.
func (c Config) phaseAt(w float64) string {
	switch {
	case w < c.ControlWeeks:
		return "control"
	case w < c.ControlWeeks+c.RampWeeks:
		return "ramp"
	default:
		return "full"
	}
}

// Snapshot is a Figure 7 progression capture: per-protein completed work
// fraction (in launch order) at a campaign week.
type Snapshot struct {
	Week            float64
	PerBatch        []float64 // completed fraction per batch, launch order
	OverallFraction float64   // completed ref-seconds / total ref-seconds
	BatchesDone     int       // batches fully completed
}

// ProteinsDoneFraction returns the fraction of proteins fully docked.
func (s Snapshot) ProteinsDoneFraction() float64 {
	if len(s.PerBatch) == 0 {
		return 0
	}
	return float64(s.BatchesDone) / float64(len(s.PerBatch))
}

// Report aggregates everything a campaign run produces.
type Report struct {
	Config Config

	// Completion.
	Completed     bool
	WeeksElapsed  float64
	TotalRefWork  float64 // ref-seconds of distinct work released
	DistinctWUs   int64
	ServerStats   wcg.Stats
	MeanSpeedDown float64 // fleet mean
	// HostsJoined counts every volunteer that ever joined (churn included).
	// Excluded from the JSON rendering so the PR 5/6 golden report bytes
	// stay valid; the mega-grid benchmarks read it to record fleet size.
	HostsJoined int `json:"-"`

	// Weekly series (real, de-scaled units).
	HCMDVFTP    *stats.Series // Figure 6(a): project VFTP per week
	GridVFTP    *stats.Series // Figure 6(a): available grid capacity
	ResultsWeek *stats.Series // Figure 6(b): results received per week

	// Figure 8: observed reported run time per result (hours).
	ReportedHours *stats.Histogram
	MeanReportedH float64

	// Figure 7 progression snapshots.
	Snapshots []Snapshot

	// Derived (Table 2 inputs).
	AvgVFTPWhole     float64
	AvgVFTPFullPower float64

	// Points accounting (§8): the middleware-independent alternative to
	// run-time VFTP the conclusion proposes.
	PointsTotal    float64 // points granted over the campaign (simulated units)
	AccountingBias float64 // run-time VFTP / points VFTP (≈ the hardware factor)
	HardwareTrend  float64 // benchmark score gained per week by joining devices

	// Kernel accounting, for the performance trajectory (BENCH_campaign.json).
	EventsExecuted uint64 // discrete events the kernel executed
	PeakPending    int    // high-water mark of the event queue

	// Faults summarizes the injected fault plane: downtime, upload losses,
	// churn, recovery lag. nil — and absent from the JSON rendering — on
	// fault-free runs, keeping the golden report bytes unchanged.
	Faults *faults.Report `json:",omitempty"`
}

// SpeedDownObserved returns mean reported time / mean reference time per
// useful result — the paper's 3.96 estimate (computed over all results, as
// the paper does: 13 h observed vs 3.3 h packaged).
func (r Report) SpeedDownObserved(meanRefHours float64) float64 {
	if meanRefHours <= 0 {
		return 0
	}
	return r.MeanReportedH / meanRefHours / r.ServerStats.RedundancyFactor()
}

// Table2 returns the volunteer↔dedicated equivalence computed from this
// run, using the run's own measured total inflation factor.
func (r Report) Table2() []vftp.EquivalenceRow {
	factor := r.TotalFactor()
	if factor <= 0 {
		factor = vftp.PaperTotalFactor
	}
	return vftp.Table2(r.AvgVFTPWhole, r.AvgVFTPFullPower, factor)
}

// TotalFactor returns the measured end-to-end CPU inflation: reported CPU
// consumed per reference second of distinct work (the paper's 5.43).
//
// Both the numerator and the denominator are accumulated in simulated
// (WorkScale-scaled) units — CPUSeconds is only ever spent on released
// workunits — so the ratio needs no de-scaling. Runs with HostScale ≠
// WorkScale remain well-defined: an under- or over-provisioned host fleet
// changes how long the campaign takes (and, through extra timeouts, the
// redundancy share of CPUSeconds), which is exactly the inflation the
// factor is meant to measure.
func (r Report) TotalFactor() float64 {
	if r.TotalRefWork <= 0 {
		return 0
	}
	return r.ServerStats.CPUSeconds / r.TotalRefWork
}

// Campaign is a configured, runnable single-project simulation: one tenant
// owning its entire host fleet, bound to it directly (no mux).
type Campaign struct {
	t      tenant
	engine *sim.Engine
	kern   *volunteer.ShardKernel
	ledger *credit.Ledger
	plane  *faults.Plane // fault plane; kept across resets, bound only on fault runs

	// pooled marks a Runner-owned campaign: its arenas survive Run for the
	// next reset. A one-shot campaign instead releases them when Run ends —
	// the Report is a field of this struct, so a caller keeping the report
	// alive would otherwise pin every arena chunk of the finished run.
	pooled bool

	// Run-phase tickers, installed by start and stopped by finish. Struct
	// fields (not Run locals) so the fork path
	// can capture their stopped flags alongside a snapshot; each ticker
	// owns one engine-arena event for its whole life, so the pointers stay
	// valid across a snapshot restore.
	weekly, daily, churn, sampler *sim.Ticker
}

// checkConfig validates cfg and fills in defaulted fields; New and reset
// share it so a pooled campaign enforces exactly the constructor's rules.
func checkConfig(cfg Config) Config {
	if cfg.DS == nil || cfg.M == nil {
		panic("project: config needs dataset and matrix")
	}
	if cfg.HHours <= 0 {
		cfg.HHours = DeployedHHours
	}
	if cfg.WorkScale <= 0 || cfg.WorkScale > 1 {
		panic(fmt.Sprintf("project: WorkScale %v out of (0,1]", cfg.WorkScale))
	}
	if cfg.HostScale <= 0 {
		panic("project: HostScale must be positive")
	}
	if cfg.MaxWeeks <= 0 {
		cfg.MaxWeeks = 60
	}
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	if p := cfg.Probe; p != nil && p.Trace != nil {
		// Saboteur onsets surface from deep inside the host layer; route
		// them to the run trace through the host-config hook so the
		// volunteer package stays ignorant of obs.
		cfg.Host.OnSaboteurTurn = func(id int, at sim.Time) {
			p.Emit(at, "saboteur-turn", obs.Int("host", int64(id)))
		}
	}
	if cfg.Faults.Enabled() {
		norm := cfg.Faults.Normalized()
		cfg.Faults = &norm
		// Materialize the outage schedule once here; the plane recomputes
		// the same windows from the same inputs, so the server's refusal
		// gate and the plane's backoff advisor agree to the second.
		cfg.Server.Outages = faults.ServerOutages(
			faults.Windows(&norm, norm.EffectiveSeed(cfg.Seed), faultHorizon(cfg)))
	} else {
		// A present-but-inert fault config must not perturb anything: drop
		// it so the run (and its report bytes) is exactly fault-free.
		cfg.Faults = nil
		cfg.Server.Outages = nil
	}
	return cfg
}

// faultHorizon bounds the materialized outage schedule: the full span the
// engine can reach, including the straggler drain after MaxWeeks.
func faultHorizon(cfg Config) float64 {
	return cfg.MaxWeeks*sim.Week + 30*sim.Day
}

// New builds a campaign from the configuration.
func New(cfg Config) *Campaign {
	cfg = checkConfig(cfg)
	c := &Campaign{engine: sim.NewEngine()}
	c.t.initTenant(cfg, wcg.NewServer(c.engine, cfg.Server))
	c.kern = volunteer.NewShardKernel(c.engine, c.workSource(cfg), cfg.Host,
		rng.New(cfg.Seed), cfg.Shards, shardWindow(cfg))
	c.ledger = credit.NewLedger()
	return c
}

// workSource resolves what the host kernel binds: the tenant's server
// directly on a fault-free run, or the fault plane wrapping it. The plane struct is pooled across resets;
// only fault runs rearm and bind it.
func (c *Campaign) workSource(cfg Config) volunteer.WorkSource {
	if cfg.Faults == nil {
		return c.t.server
	}
	seed := cfg.Faults.EffectiveSeed(cfg.Seed)
	if c.plane == nil {
		c.plane = faults.NewPlane(c.engine, c.t.server, *cfg.Faults, seed, faultHorizon(cfg))
	} else {
		c.plane.Reset(c.engine, c.t.server, *cfg.Faults, seed, faultHorizon(cfg))
	}
	return c.plane
}

// activePlane returns the fault plane when the current run has one bound,
// nil otherwise (the plane struct may survive from an earlier pooled fault
// run without being part of this run).
func (c *Campaign) activePlane() *faults.Plane {
	if c.t.cfg.Faults == nil {
		return nil
	}
	return c.plane
}

// shardWindow picks the host kernel's barrier width: half the target
// task wall time, capped by the idle-retry interval — wide enough that
// almost every host continuation lands beyond the current window (the
// overlay heap catches the rest; any positive value is correct).
func shardWindow(cfg Config) float64 {
	w := cfg.Host.IdleRetry
	if w <= 0 {
		w = 6 * sim.Hour
	}
	if h := cfg.HHours * 1800; h > 0 && h < w {
		w = h
	}
	if w < sim.Minute {
		w = sim.Minute
	}
	return w
}

// reset rearms the campaign for another run under a new configuration,
// retaining every layer's backing storage: the engine's heap and event
// arena, the middleware's queue/ring/state arenas, the host kernel's
// columns and calendars, the batch plans, the weekly accumulators, the
// credit ledger's dense slices, and the report's series/histogram buffers. The previous run's
// Report is overwritten — this is the Runner's pooled path.
func (c *Campaign) reset(cfg Config) {
	cfg = checkConfig(cfg)
	c.engine.Reset()
	c.t.server.Reset(cfg.Server)
	// The source wrapping (fault plane or bare server) may differ run to run.
	c.kern.Reset(c.engine, c.workSource(cfg), cfg.Host,
		rng.New(cfg.Seed), cfg.Shards, shardWindow(cfg))
	c.ledger.Reset()
	c.t.reset(cfg)
}

// Runner runs campaigns back to back on one reusable arena of state: the
// first Run builds every slab, heap and host array, and each subsequent
// Run recycles them, so a steady-state replication allocates a small
// fraction of a fresh campaign. The returned Report (and everything it
// references: series, histogram, snapshots) is owned by the Runner and
// valid only until the next Run call — callers that need a run's output
// past that point must copy what they keep. A Runner is not safe for
// concurrent use; pool one per worker.
type Runner struct {
	c *Campaign

	// snap holds the Begin/RunTo/Snapshot/Fork path's capture buffers
	// (fork.go); one snapshot at a time, reused across groups and runs.
	snap runSnapshot
}

// NewRunner returns an empty runner; the first Run builds its arenas.
func NewRunner() *Runner { return &Runner{} }

// Run simulates one campaign, reusing the previous run's storage.
// Reports are bit-for-bit identical to New(cfg).Run() for the same cfg.
func (r *Runner) Run(cfg Config) *Report {
	if r.c == nil {
		r.c = New(cfg)
		r.c.pooled = true
		// Retain from the start so the first run's chunks already land in
		// the reusable arenas (before any workunit is carved).
		r.c.t.server.Retain()
	} else {
		r.c.reset(cfg)
	}
	return r.c.Run()
}

// Run executes the campaign and returns its report.
func (c *Campaign) Run() *Report {
	c.start()
	c.kern.RunUntil(c.t.cfg.MaxWeeks * sim.Week)
	return c.finish()
}

// start arms the run: batches prepared, callbacks bound, probe attached,
// phase/feeder/churn tickers installed. The weekly loop keeps its state in
// the tenant (t.done, t.doneWeek, t.snapIdx) rather than in closure cells
// so a tenant snapshot carries the loop state and a restored fork resumes
// it; the split into start / kernel run / finish is what lets the fork
// path (fork.go) stop the run at a divergence time.
func (c *Campaign) start() {
	cfg := &c.t.cfg
	c.t.prepare()
	c.t.bind()
	probe := cfg.Probe
	c.sampler = c.bindProbe(probe)

	// The spawn-count forecast for the slot pool: active hosts only change
	// at weekly ticks, so at the window barrier before a tick this is the
	// exact spawn count — except when the project finishes at that very
	// tick, where it overpredicts harmlessly (slots keep, seeds are
	// pre-drawn from a stream nothing else reads).
	c.kern.SpawnHint = c.spawnHintFn()
	c.weekly = c.engine.Every(0, sim.Week, c.weeklyFn(probe))
	c.weekly.Tag(sim.Call{Kind: sim.CallTickWeekly})
	// A daily feeder keeps the queue from draining dry between the weekly
	// phase adjustments (the server would otherwise starve fast hosts).
	c.daily = c.engine.Every(sim.Day/2, sim.Day, c.dailyFn())
	c.daily.Tag(sim.Call{Kind: sim.CallTickDaily})
	// Churn: permanent departures paired with replacement joins, sampled
	// at a fixed cadence so the injection is an ordinary kernel event.
	// SetTarget stops the oldest hosts and the restore spawns replacements
	// FIFO from the population seed stream.
	c.churn = nil
	if plane := c.activePlane(); plane != nil && plane.ChurnEnabled() {
		c.churn = c.engine.Every(faults.ChurnOffset, faults.ChurnInterval, c.churnFn(plane))
		c.churn.Tag(sim.Call{Kind: sim.CallTickChurn})
	}
}

// hostTarget is the fleet size the §5.1 phase schedule asks for at week w
// of the campaign.
func (c Config) hostTarget(w float64) int {
	gridCap := c.Grid.VFTPAt(CampaignStartWeek + w)
	return max(1, int(math.Round(c.Share(w)*gridCap*c.HostScale)))
}

// spawnHintFn builds the slot-pool spawn forecast. The ticker and hint
// bodies are built by factories rather than inline in start so snapshot
// adoption can rebuild identical closures on a dormant ticker or an
// adopting kernel.
func (c *Campaign) spawnHintFn() func(float64) int {
	kern := c.kern
	return func(w float64) int {
		if c.t.done {
			return 0
		}
		return c.t.cfg.hostTarget(w) - kern.Active()
	}
}

// weeklyFn builds the weekly phase-schedule tick (factory: see
// spawnHintFn).
func (c *Campaign) weeklyFn(probe *obs.Probe) func(sim.Time) {
	cfg := &c.t.cfg
	kern := c.kern
	return func(now sim.Time) {
		w := now / sim.Week
		if c.t.done {
			return
		}
		if probe != nil {
			if ph := cfg.phaseAt(w); ph != c.t.obsPhase {
				c.t.obsPhase = ph
				probe.Emit(now, "phase", obs.Str("phase", ph), obs.Num("share", cfg.Share(w)))
			}
		}
		// Figure 7 snapshots (captured at the first tick at/after the mark).
		for c.t.snapIdx < len(cfg.SnapshotWeeks) && w >= cfg.SnapshotWeeks[c.t.snapIdx] {
			c.t.captureSnapshot(w)
			c.t.snapIdx++
		}
		if c.t.allDone() {
			c.t.done = true
			c.t.doneWeek = w
			// Capture any snapshot marks not yet reached: the project is
			// finished, so they all see the final (complete) state.
			for c.t.snapIdx < len(cfg.SnapshotWeeks) {
				c.t.captureSnapshot(cfg.SnapshotWeeks[c.t.snapIdx])
				c.t.snapIdx++
			}
			kern.SetTarget(0)
			return
		}
		kern.SetTarget(cfg.hostTarget(w))
		c.t.server.EnsureHosts(kern.TotalJoined())
		c.t.feed(kern.Active())
	}
}

// dailyFn builds the daily feeder tick (factory: see spawnHintFn).
func (c *Campaign) dailyFn() func(sim.Time) {
	kern := c.kern
	return func(sim.Time) {
		if !c.t.done {
			c.t.feed(kern.Active())
		}
	}
}

// churnFn builds the churn tick (factory: see spawnHintFn).
func (c *Campaign) churnFn(plane *faults.Plane) func(sim.Time) {
	kern := c.kern
	return func(sim.Time) {
		if c.t.done {
			return
		}
		if n := plane.ChurnCount(kern.Active()); n > 0 {
			a := kern.Active()
			kern.SetTarget(a - n)
			kern.SetTarget(a)
		}
	}
}

// finish stops the phase tickers, drains the straggler tail and fills the
// report.
func (c *Campaign) finish() *Report {
	cfg := &c.t.cfg
	kern := c.kern
	c.weekly.Stop()
	c.daily.Stop()
	if c.churn != nil {
		c.churn.Stop()
	}
	// Drain stragglers (late returns) without advancing phases — and
	// without forecasting spawns for ticks that will never fire.
	kern.SpawnHint = nil
	kern.RunUntil(cfg.MaxWeeks*sim.Week + 30*sim.Day)
	if c.sampler != nil {
		c.sampler.Stop()
	}

	c.t.finishReport(c.engine, c.t.done, c.t.doneWeek)
	r := &c.t.report
	if probe := cfg.Probe; probe != nil {
		probe.Emit(c.engine.Now(), "run-end",
			obs.Str("completed", boolStr(c.t.done)),
			obs.Num("weeks", r.WeeksElapsed),
			obs.Int("events", int64(r.EventsExecuted)),
			obs.Int("completed-wus", r.ServerStats.Completed))
	}
	r.MeanSpeedDown = kern.MeanSpeedDown()
	r.HostsJoined = kern.TotalJoined()
	r.PointsTotal, r.AccountingBias, r.HardwareTrend = creditFleet(kern, c.ledger)
	if plane := c.activePlane(); plane != nil {
		fr := plane.BuildReport()
		r.Faults = &fr
	}
	if !c.pooled {
		// Release the run context: engine, middleware, host kernel,
		// scratch. The returned report shares this struct, and a one-shot
		// caller holding it must not keep the dead simulation's arenas live
		// with it.
		c.engine, c.kern, c.ledger = nil, nil, nil
		c.t.release()
	}
	return r
}
