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
// One run context, Campaign, carries the machinery: one engine, one host
// fleet on the volunteer package's ShardKernel, one credit ledger and one
// fleet schedule, with the per-project state in its tenants (tenant.go).
// One configuration type, Config, describes both shapes of a run. A
// single-project campaign (New, Runner) is the paper's phase I: one tenant
// bound straight to the fleet under the §5.1 schedule (golden_test.go pins
// the report hashes, fresh and pooled). A Config with Projects is a co-run
// (NewGrid, GridRunner; grid.go): the same context armed with one tenant
// per project behind a work-fetch mux on a flat-share schedule, so a
// project's grid share is a measured output instead of an assumed
// constant; Grid adds only the share-window bookkeeping.
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

// Config parameterizes a campaign run, or a co-run when it carries
// Projects. A co-run's own Host, Grid, FullShare, HostScale, Seed, MaxWeeks
// and Probe describe the shared fleet; its tenants own their workloads and
// middleware, and its other fields are not read.
type Config struct {
	// Projects are a co-run's tenant configurations, one per co-running
	// project (at most 256: assignments carry the project index in a
	// byte). Shares are the tenants' resource shares: any positive
	// weights, normalized to sum to 1; nil means equal shares. Both are
	// omitted from JSON when empty, so campaign configs marshal as before.
	Projects []Config  `json:",omitempty"`
	Shares   []float64 `json:",omitempty"`

	DS *protein.Dataset
	M  *costmodel.Matrix

	HHours float64 // workunit target duration; 0 = DeployedHHours
	Server wcg.Config
	Host   volunteer.HostConfig
	Grid   volunteer.GridModel

	// Phase schedule (§5.1), in weeks from campaign start. A co-run has no
	// phases: its fleet holds FullShare of the modeled grid from launch,
	// and 0 there means 1, the whole grid.
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

	// Shards is ignored: the host kernel runs one window calendar. The
	// field stays only for callers that still assign it. Excluded from
	// JSON so marshaled reports and scenario hashes never carry it.
	Shards int `json:"-"`

	// SnapshotWeeks are the Figure 7 progression capture points.
	SnapshotWeeks []float64

	// Faults, when non-nil and enabled, injects the deterministic fault
	// plane (internal/faults): server outage windows, flaky uploads, host
	// churn, and the graceful-degradation behavior around them. nil — or a
	// config injecting nothing — leaves every layer byte-identical to the
	// fault-free code (the golden hashes pin this). A pointer with
	// omitempty so fault-free configs marshal to exactly the pre-fault
	// JSON. Single-project runs only; a co-run rejects it, on itself and
	// on its tenants.
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

// SpeedDownObserved returns the mean reported time per received result
// over the mean packaged reference time — the paper's 3.96 estimate,
// computed over all results as the paper does (13 h observed over 3.3 h
// packaged). MeanReportedH is already per result, so nothing further
// divides it.
func (r Report) SpeedDownObserved(meanRefHours float64) float64 {
	if meanRefHours <= 0 {
		return 0
	}
	return r.MeanReportedH / meanRefHours
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

// Campaign is the run context (see the package doc): a configured, runnable
// simulation of its tenants on one host fleet.
type Campaign struct {
	// tenants are the run's projects. Tenant 0 lives in t and one backs
	// the slice, so a single-project campaign allocates neither.
	tenants []*tenant
	t       tenant
	one     [1]*tenant

	// fleet is the fleet schedule and kernel plan — host model, grid model,
	// share schedule, scale, seed, horizon and probe: &t.cfg on a
	// single-project campaign, the Grid's checked co-run Config on a co-run.
	fleet *Config
	mux   *volunteer.Mux // nil on a single-project campaign
	grid  *Grid          // the co-run this context runs; nil on a single-project campaign

	engine *sim.Engine
	kern   *volunteer.ShardKernel
	ledger *credit.Ledger
	plane  *faults.Plane // fault plane; kept across resets, bound only on fault runs

	// pooled marks a Runner- or GridRunner-owned context: its arenas
	// survive Run for the next arm. A one-shot campaign instead releases them when Run ends —
	// the Report is a field of this struct, so a caller keeping the report
	// alive would otherwise pin every arena chunk of the finished run.
	pooled bool

	// Run-phase tickers, installed by start (or rebuilt dormant by snapshot
	// adoption) and stopped by runOut. Struct fields, not Run locals, so a
	// fork's runOut stops the tickers of whichever context it runs on.
	weekly, daily, churn, sampler *sim.Ticker
}

// maxWeeks bounds the MaxWeeks safety stop: twenty years of simulated
// time, far past any phase-I or phase-II horizon, so the weekly tickers and
// the materialized outage schedule stay finite.
const maxWeeks = 1040

// minIdleRetry floors Host.IdleRetry at one sim minute: an idle host
// re-fetches every IdleRetry, so below it the retries, not the work, set a
// run's cost. Measured on determinismConfig(777) on a 2-core x86-64 VM,
// where the default 6 h takes 4.7 ms: 1e-9 s never finishes (late in a run
// now + IdleRetry == now), 1e-3 s had not finished after 20 s, 1 s takes
// 10.9 s and 60 s takes 0.11 s.
const minIdleRetry = sim.Minute

// checkFinite panics unless v is a finite number. NaN fails every ordered
// comparison and ±Inf passes every one-sided bound, so the range checks
// alone would let them through.
func checkFinite(field string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		panic(fmt.Sprintf("project: %s %v is not finite", field, v))
	}
}

// checkPositive, checkNonNegative and checkUnit panic unless v is finite
// and positive, finite and non-negative, or in [0, 1]. NaN fails every
// comparison, so each bound rejects it.
func checkPositive(field string, v float64) {
	if !(v > 0) || math.IsInf(v, 1) {
		panic(fmt.Sprintf("project: %s %v is not finite and positive", field, v))
	}
}

func checkNonNegative(field string, v float64) {
	if !(v >= 0) || math.IsInf(v, 1) {
		panic(fmt.Sprintf("project: %s %v is not finite and non-negative", field, v))
	}
}

func checkUnit(field string, v float64) {
	if !(v >= 0 && v <= 1) {
		panic(fmt.Sprintf("project: %s %v out of [0,1]", field, v))
	}
}

// checkFleet validates the host and grid models a fleet runs on. An
// IdleRetry below minIdleRetry re-fetches so often that a run takes seconds
// or never ends, and a NaN or infinite speed-down, delay or capacity either
// indexes the host kernel's calendar at int(NaN) or runs a campaign that
// silently never completes.
func checkFleet(h volunteer.HostConfig, g volunteer.GridModel) {
	checkPositive("Host.MeanSpeedDown", h.MeanSpeedDown)
	checkNonNegative("Host.SpeedDownSigma", h.SpeedDownSigma)
	checkUnit("Host.AbandonProb", h.AbandonProb)
	checkUnit("Host.LateReturnProb", h.LateReturnProb)
	checkUnit("Host.ErrorProb", h.ErrorProb)
	if !(h.IdleRetry >= minIdleRetry) || math.IsInf(h.IdleRetry, 1) {
		panic(fmt.Sprintf("project: Host.IdleRetry %v is not finite and at least %v s", h.IdleRetry, minIdleRetry))
	}
	checkNonNegative("Host.LateDelayMax", h.LateDelayMax)
	checkNonNegative("Host.HardwareTrendPerWeek", h.HardwareTrendPerWeek)
	var weights float64
	for i, p := range h.Profiles {
		field := fmt.Sprintf("Host.Profiles[%d].", i)
		checkNonNegative(field+"Weight", p.Weight)
		checkUnit(field+"ErrorProb", p.ErrorProb)
		if p.AbandonProb < 0 {
			checkFinite(field+"AbandonProb", p.AbandonProb) // negative: inherit Host.AbandonProb
		} else {
			checkUnit(field+"AbandonProb", p.AbandonProb)
		}
		checkFinite(field+"OnlineHours", p.OnlineHours)
		weights += p.Weight
	}
	if len(h.Profiles) > 0 {
		checkPositive("Host.Profiles weight sum", weights)
	}
	checkNonNegative("Grid.BaseVFTP", g.BaseVFTP)
	checkNonNegative("Grid.GrowthPerWeek", g.GrowthPerWeek)
	checkUnit("Grid.WeekendDip", g.WeekendDip)
	checkUnit("Grid.HolidayDip", g.HolidayDip)
	checkNonNegative("Grid.Noise", g.Noise)
}

// checkMaxWeeks validates a MaxWeeks safety stop, defaulting 0 (or a
// negative value) to 60 weeks.
func checkMaxWeeks(w float64) float64 {
	checkFinite("MaxWeeks", w)
	if w > maxWeeks {
		panic(fmt.Sprintf("project: MaxWeeks %v above %v", w, maxWeeks))
	}
	if w <= 0 {
		return 60
	}
	return w
}

// checkConfig validates cfg and fills in defaulted fields; New and reset
// share it so a pooled campaign enforces exactly the constructor's rules.
// A co-run config is refused here, so no single-project entry (New,
// Runner.Run, Begin, Fork) runs one, and no co-run tenant has tenants.
func checkConfig(cfg Config) Config {
	if len(cfg.Projects) > 0 || len(cfg.Shares) > 0 {
		panic("project: a config with Projects or Shares is a co-run; run it with NewGrid or a GridRunner")
	}
	if cfg.DS == nil || cfg.M == nil {
		panic("project: config needs dataset and matrix")
	}
	checkFinite("HHours", cfg.HHours)
	if cfg.HHours <= 0 {
		cfg.HHours = DeployedHHours
	}
	if !(cfg.WorkScale > 0 && cfg.WorkScale <= 1) {
		panic(fmt.Sprintf("project: WorkScale %v out of (0,1]", cfg.WorkScale))
	}
	checkFinite("HostScale", cfg.HostScale)
	if cfg.HostScale <= 0 {
		panic("project: HostScale must be positive")
	}
	checkFinite("ControlWeeks", cfg.ControlWeeks)
	checkFinite("RampWeeks", cfg.RampWeeks)
	if cfg.ControlWeeks < 0 || cfg.RampWeeks < 0 {
		panic(fmt.Sprintf("project: negative phase schedule (%v control, %v ramp weeks)", cfg.ControlWeeks, cfg.RampWeeks))
	}
	if !(cfg.ControlShare >= 0 && cfg.ControlShare <= 1 && cfg.FullShare >= 0 && cfg.FullShare <= 1) {
		panic(fmt.Sprintf("project: grid shares (%v control, %v full) out of [0,1]", cfg.ControlShare, cfg.FullShare))
	}
	cfg.MaxWeeks = checkMaxWeeks(cfg.MaxWeeks)
	checkFleet(cfg.Host, cfg.Grid)
	checkPositive("Server.Deadline", cfg.Server.Deadline)
	checkNonNegative("Server.QuorumSwitchTime", cfg.Server.QuorumSwitchTime)
	if cfg.Faults != nil {
		// Validate even an inert config: Enabled reads a NaN rate as off.
		norm := cfg.Faults.Normalized()
		cfg.Faults = &norm
	}
	if !cfg.Faults.Enabled() {
		// A present-but-inert fault config must not perturb anything: drop
		// it so the run (and its report bytes) is exactly fault-free.
		cfg.Faults = nil
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
	c := &Campaign{}
	c.reset(cfg)
	return c
}

// reset arms the campaign for a single-project run under cfg: the tenant's
// own config is the fleet schedule.
func (c *Campaign) reset(cfg Config) {
	c.fleet = &c.t.cfg
	projects := [1]Config{checkConfig(cfg)}
	c.arm(projects[:], nil)
}

// arm builds the run context around the checked tenant configs, with the
// fleet schedule in place and shares the tenants' mux weights (nil on a
// single-project campaign). Layers are built on first use and Reset on
// every call, so a pooled context retains all backing storage — engine
// heap and arena, server arenas, kernel columns and calendars, mux
// columns, ledger slices, tenant plans and report buffers — and overwrites
// the previous run's reports. Surplus tenants are dropped, missing ones
// built fresh.
func (c *Campaign) arm(projects []Config, shares []float64) {
	if c.engine == nil {
		c.engine, c.kern, c.ledger = sim.NewEngine(), new(volunteer.ShardKernel), credit.NewLedger()
		c.tenants = c.one[:0]
		if c.grid != nil {
			c.mux = volunteer.NewMux()
		}
	}
	c.engine.Reset()
	c.ledger.Reset()
	if c.mux != nil {
		c.mux.Reset()
	}
	c.tenants = c.tenants[:min(len(c.tenants), len(projects))]
	for i, p := range projects {
		var t *tenant
		if i < len(c.tenants) {
			t = c.tenants[i]
			t.server.Reset(p.Server)
			t.reset(p)
		} else {
			t = &c.t
			if i > 0 {
				t = &tenant{}
			}
			t.initTenant(p, wcg.NewServer(c.engine, p.Server))
			c.tenants = append(c.tenants, t)
		}
		if c.mux != nil {
			c.mux.Attach(t.server, shares[i])
		}
	}
	f := c.fleet
	c.kern.Reset(c.engine, c.workSource(), f.Host, rng.New(f.Seed), c.shardWindow())
}

// workSource resolves the one work source the host kernel binds: the mux
// over the tenants' servers on a co-run, otherwise the tenant's server
// directly on a fault-free run, or the fault plane wrapping it. The plane
// struct is pooled across resets; only fault runs rearm and bind it.
func (c *Campaign) workSource() volunteer.WorkSource {
	cfg := c.fleet
	switch {
	case c.mux != nil:
		return c.mux
	case cfg.Faults == nil:
		return c.t.server
	}
	seed := cfg.Faults.EffectiveSeed(cfg.Seed)
	if c.plane == nil {
		c.plane = faults.NewPlane(c.engine, c.t.server, *cfg.Faults, seed, faultHorizon(*cfg))
	} else {
		c.plane.Reset(c.engine, c.t.server, *cfg.Faults, seed, faultHorizon(*cfg))
	}
	return c.plane
}

// activePlane returns the fault plane when the current run has one bound,
// nil otherwise (the plane struct may survive from an earlier pooled fault
// run without being part of this run).
func (c *Campaign) activePlane() *faults.Plane {
	if c.fleet.Faults == nil {
		return nil
	}
	return c.plane
}

// shardWindow picks the host kernel's barrier width: half the shortest
// tenant target task wall time, capped by the idle-retry interval — wide
// enough that almost every host continuation lands beyond the current
// window (the engine's heap takes the rest; any positive value is
// correct).
func (c *Campaign) shardWindow() float64 {
	w := c.fleet.Host.IdleRetry // at least minIdleRetry: checkFleet
	for _, t := range c.tenants {
		if h := t.cfg.HHours * 1800; h > 0 && h < w {
			w = h
		}
	}
	if w < sim.Minute {
		w = sim.Minute
	}
	return w
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

	// ps is the snapshot Fork and Restore return to (fork.go); atSnap
	// reports that c still sits exactly at it, so the next Fork needs no
	// adoption. Run and Begin drop it.
	ps     *PortableSnapshot
	atSnap bool
}

// NewRunner returns an empty runner; the first Run builds its arenas.
func NewRunner() *Runner { return &Runner{} }

// Run simulates one campaign, reusing the previous run's storage.
// Reports are bit-for-bit identical to New(cfg).Run() for the same cfg.
func (r *Runner) Run(cfg Config) *Report {
	r.rearm(cfg)
	return r.c.Run()
}

// rearm drops the held snapshot and arms the Runner's campaign under cfg:
// built on first use, reset afterwards.
func (r *Runner) rearm(cfg Config) {
	r.ps, r.atSnap = nil, false
	if r.c == nil {
		r.c = &Campaign{pooled: true}
	}
	r.c.reset(cfg)
}

// Run executes the campaign and returns its report.
func (c *Campaign) Run() *Report {
	c.start()
	c.runOut()
	return c.finish()
}

// start arms the run: batches prepared, callbacks bound, probe attached,
// phase/feeder/churn tickers installed. The weekly loop keeps its state in
// the tenants (t.done, t.doneWeek, t.snapIdx) rather than in closure cells
// so an exported tenant carries the loop state and an adopted fork resumes
// it; the split into start / runOut / finish is what lets the fork path
// (fork.go) stop the run at a divergence time.
func (c *Campaign) start() {
	for _, t := range c.tenants {
		t.prepare()
		t.bind()
	}
	probe := c.fleet.Probe
	c.sampler = c.bindProbe(probe)

	c.weekly = c.engine.Every(0, sim.Week, sim.Call{Kind: sim.CallTickWeekly}, c.weeklyFn(probe))
	// A daily feeder keeps the queues from draining dry between the weekly
	// phase adjustments (a server would otherwise starve fast hosts).
	c.daily = c.engine.Every(sim.Day/2, sim.Day, sim.Call{Kind: sim.CallTickDaily}, c.dailyFn())
	// Churn: permanent departures paired with replacement joins, sampled
	// at a fixed cadence so the injection is an ordinary kernel event.
	// SetTarget stops the oldest hosts and the restore spawns replacements
	// FIFO from the population seed stream.
	c.churn = nil
	if plane := c.activePlane(); plane != nil && plane.ChurnEnabled() {
		c.churn = c.engine.Every(faults.ChurnOffset, faults.ChurnInterval, sim.Call{Kind: sim.CallTickChurn}, c.churnFn(plane))
	}
}

// hostTarget is the fleet size the share schedule asks for at week w of
// the run: the §5.1 phases on a campaign, the flat FullShare on a co-run.
func (c Config) hostTarget(w float64) int {
	gridCap := c.Grid.VFTPAt(CampaignStartWeek + w)
	return max(1, int(math.Round(c.Share(w)*gridCap*c.HostScale)))
}

// finished reports whether every tenant has completed its workload.
func (c *Campaign) finished() bool {
	for _, t := range c.tenants {
		if !t.done {
			return false
		}
	}
	return true
}

// weeklyFn builds the weekly tick: Figure 7 captures and completion per
// tenant, then the fleet target and a feed of every live tenant. The
// ticker bodies are built by factories rather than inline in start so
// snapshot adoption can rebuild identical closures on a dormant ticker.
func (c *Campaign) weeklyFn(probe *obs.Probe) func(sim.Time) {
	kern, fleet := c.kern, c.fleet
	return func(now sim.Time) {
		w := now / sim.Week
		if c.finished() {
			return
		}
		if probe != nil && c.grid == nil { // a co-run's flat share has no phases
			if ph := fleet.phaseAt(w); ph != c.t.obsPhase {
				c.t.obsPhase = ph
				probe.Emit(now, "phase", obs.Str("phase", ph), obs.Num("share", fleet.Share(w)))
			}
		}
		live := 0
		for _, t := range c.tenants {
			if t.done {
				continue
			}
			// Figure 7 snapshots (captured at the first tick at/after the mark).
			for t.snapIdx < len(t.cfg.SnapshotWeeks) && w >= t.cfg.SnapshotWeeks[t.snapIdx] {
				t.captureSnapshot(w)
				t.snapIdx++
			}
			if !t.allDone() {
				live++
				continue
			}
			t.done, t.doneWeek = true, w
			if c.grid != nil && t.probe != nil { // a campaign's completion is its run-end
				t.emit(now, "tenant-drain", obs.Num("at-week", w))
			}
			// Capture any snapshot marks not yet reached: the tenant is
			// finished, so they all see the final (complete) state.
			for t.snapIdx < len(t.cfg.SnapshotWeeks) {
				t.captureSnapshot(t.cfg.SnapshotWeeks[t.snapIdx])
				t.snapIdx++
			}
			if c.grid != nil {
				c.grid.closeShareWindow(w)
			}
		}
		if live == 0 {
			kern.SetTarget(0)
			return
		}
		kern.SetTarget(fleet.hostTarget(w))
		for _, t := range c.tenants {
			if !t.done {
				t.feed(kern.Active())
			}
		}
		if c.grid != nil {
			c.grid.watchShareWindow(w, kern.Active())
		}
	}
}

// dailyFn builds the daily feeder tick (factory: see weeklyFn).
func (c *Campaign) dailyFn() func(sim.Time) {
	kern := c.kern
	return func(sim.Time) {
		for _, t := range c.tenants {
			if !t.done {
				t.feed(kern.Active())
			}
		}
	}
}

// churnFn builds the churn tick (factory: see weeklyFn).
func (c *Campaign) churnFn(plane *faults.Plane) func(sim.Time) {
	kern := c.kern
	return func(sim.Time) {
		if c.finished() {
			return
		}
		if n := plane.ChurnCount(kern.Active()); n > 0 {
			a := kern.Active()
			kern.SetTarget(a - n)
			kern.SetTarget(a)
		}
	}
}

// runOut runs the started (or adopted) context to the horizon, stops the
// phase tickers and drains the straggler tail (late returns) without
// advancing phases.
func (c *Campaign) runOut() {
	horizon := c.fleet.MaxWeeks * sim.Week
	c.kern.RunUntil(horizon)
	c.weekly.Stop()
	c.daily.Stop()
	if c.churn != nil {
		c.churn.Stop()
	}
	c.kern.RunUntil(horizon + 30*sim.Day)
	if c.sampler != nil {
		c.sampler.Stop()
	}
}

// finish fills the single-project report after runOut and ends the run.
func (c *Campaign) finish() *Report {
	c.t.finishReport()
	r := &c.t.report
	r.EventsExecuted, r.PeakPending = c.engine.Executed(), c.engine.MaxPending()
	r.MeanSpeedDown = c.kern.MeanSpeedDown()
	r.HostsJoined = c.kern.TotalJoined()
	r.PointsTotal, r.AccountingBias, r.HardwareTrend = creditFleet(c.kern, c.ledger)
	if plane := c.activePlane(); plane != nil {
		fr := plane.BuildReport()
		r.Faults = &fr
		r.ServerStats.Refused, r.ServerStats.Deferred = plane.Stats.Refused, plane.Stats.Deferred
	}
	c.endRun(r.WeeksElapsed)
	return r
}

// endRun emits the run-end trace event and, on a one-shot run, releases
// the run context: engine, middleware, host kernel, mux, scratch. The
// returned report shares this struct, and a one-shot caller holding it
// must not keep the dead simulation's arenas live with it; a pooled
// context keeps them for the next arm.
func (c *Campaign) endRun(weeks float64) {
	if p := c.fleet.Probe; p != nil {
		f := [...]obs.F{
			obs.Str("completed", boolStr(c.finished())),
			obs.Num("weeks", weeks),
			obs.Int("events", int64(c.engine.Executed())),
			obs.Int("completed-wus", c.t.server.Stats.Completed),
		}
		fields := f[:]
		if c.grid != nil {
			fields = f[:3] // a co-run's completions are per tenant, in its reports
		}
		p.Emit(c.engine.Now(), "run-end", fields...)
	}
	if !c.pooled {
		c.engine, c.kern, c.mux, c.ledger = nil, nil, nil, nil
		for _, t := range c.tenants {
			t.release()
		}
	}
}
