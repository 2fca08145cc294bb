package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/obs"
	"repro/internal/project"
	"repro/internal/sim"
	"repro/internal/wcg"
)

// parallelism is the fixed width of every parallel knob (sweep workers,
// fork workers, shard count): the core count of the machine the baseline
// was measured on, so no workload asks for more threads than it has.
const parallelism = 2

// sizes fixes each workload's problem size. The benchmark runs fullSizes;
// the smoke test runs the same code at tinySizes.
type sizes struct {
	replayScale             float64 // WorkScale = HostScale of the phase-I replay
	megaWork, megaHosts     float64 // mega-grid work scale and host scale
	corunScale              float64 // work and host scale of the two-tenant co-run
	sweepScale              float64 // the sweep CLI's default scale
	sweepReps               int
	whatifWork, whatifHosts float64
	whatifReps              int
}

var fullSizes = sizes{
	replayScale: 1,
	megaWork:    1.0 / 16, megaHosts: 6.25,
	corunScale: 1.0 / 8,
	sweepScale: 1.0 / 84, sweepReps: 10,
	whatifWork: 1.0 / 42, whatifHosts: 2.5 / 42, whatifReps: 48,
}

var tinySizes = sizes{
	replayScale: 1.0 / 168,
	megaWork:    1.0 / 168, megaHosts: 6.25 / 168,
	corunScale: 1.0 / 168,
	sweepScale: 1.0 / 168, sweepReps: 1,
	whatifWork: 1.0 / 168, whatifHosts: 2.5 / 168, whatifReps: 2,
}

// workloadNames lists the workloads in presentation order.
var workloadNames = []string{"replay", "megagrid", "corun", "sweep", "whatif"}

// opResult is what one op leaves behind for the checks and the metrics.
// It holds no report of a pooled runner: a report is a field of the run
// context, so keeping it would keep every arena of the run alive.
type opResult struct {
	digest string
	keep   any               // run context, held live across the heap reading
	counts counts            // layer counters copied out of the reports
	sweep  *experiment.Sweep // sweep, whatif
}

// counts are the layer counters an op's outputs carry.
type counts struct {
	events      uint64
	peakPending int
	server      wcg.Stats // summed over tenants
	hostsJoined int
	points      float64
	shareErr    float64

	lostUploads, droppedResults, churnedHosts int64
	downtimeH                                 float64

	// estReceived estimates a sweep's returned results from its cell
	// metrics (completed workunits over the useful fraction), which carry
	// no server counters.
	estReceived int64
}

// received is the number of results the middleware took in.
func (c counts) received() int64 {
	if c.server.Received > 0 {
		return c.server.Received
	}
	return c.estReceived
}

func (c *counts) addReport(rep *project.Report) {
	s := &c.server
	r := rep.ServerStats
	s.Sent += r.Sent
	s.Received += r.Received
	s.Valid += r.Valid
	s.Useful += r.Useful
	s.Wasted += r.Wasted
	s.Invalid += r.Invalid
	s.TimedOut += r.TimedOut
	s.Completed += r.Completed
	c.hostsJoined += rep.HostsJoined
	c.points += rep.PointsTotal
	c.events += rep.EventsExecuted
	c.peakPending = max(c.peakPending, rep.PeakPending)
}

func (c *counts) addCell(m experiment.Metrics) {
	c.points += m.PointsTotal
	c.lostUploads += m.LostUploads
	c.droppedResults += m.DroppedResults
	c.churnedHosts += m.ChurnedHosts
	c.downtimeH += m.DowntimeHours
	if m.UsefulFraction > 0 {
		c.estReceived += int64(math.Round(float64(m.DistinctWUs) / m.UsefulFraction))
	}
}

// workload is one benchmark input: a configuration built from the system
// and the seed, one op on it, and the extra configurations of the traced
// pass.
type workload struct {
	name string
	// nominalOpS is the op's wall time on the machine the baseline was
	// measured on; it sets how many ops fill a run.
	nominalOpS float64
	// setupCall names the call setup makes into the project layer.
	setupCall string
	// setup builds the run context an op starts from; setup_s times it
	// together with core.NewHCMD.
	setup func(sys *core.System)
	// op runs one op. tr is nil on the untraced path.
	op func(sys *core.System, tr *tracer) (opResult, error)
	// extra runs the traced pass's extra configurations after its ops and
	// fills the workload's own layer metrics.
	extra func(sys *core.System, p *pass) error
}

// newWorkload builds the named workload. Seed 0 runs the repository's
// default configuration (the paper's deployed seed); seed n adds n to every
// simulation seed.
func newWorkload(name string, sz sizes, seed uint64) (*workload, error) {
	switch name {
	case "replay":
		return campaignWorkload(name, 8, func(sys *core.System) project.Config {
			cfg := sys.CampaignConfig(sz.replayScale, 0)
			cfg.Seed += seed
			return cfg
		}), nil
	case "megagrid":
		return campaignWorkload(name, 6.5, func(sys *core.System) project.Config {
			cfg := sys.CampaignConfig(sz.megaWork, 1) // 1-hour workunits
			cfg.HostScale = sz.megaHosts
			cfg.ControlWeeks, cfg.RampWeeks = 0, 0 // full power from launch
			cfg.Shards = parallelism
			cfg.Seed += seed
			return cfg
		}), nil
	case "corun":
		return corunWorkload(sz, seed), nil
	case "sweep":
		return sweepWorkload(name, 5, sweepExtras, func(sys *core.System) experiment.Options {
			base := sys.CampaignConfig(sz.sweepScale, 0)
			base.Seed += seed
			return experiment.Options{
				Base:        base,
				Scenarios:   experiment.Catalog(),
				Reps:        sz.sweepReps,
				Workers:     parallelism,
				MetricsSink: obs.NewSink(io.Discard),
				TraceSink:   obs.NewSink(io.Discard),
			}
		}), nil
	case "whatif":
		return sweepWorkload(name, 3, forkWalk, func(sys *core.System) experiment.Options {
			base := sys.CampaignConfig(sz.whatifWork, 0)
			base.ControlWeeks, base.RampWeeks = 0, 0 // flat share: quorum is the only divergence axis
			base.HostScale = sz.whatifHosts          // completion lands shortly after the week-14 switch
			base.Seed += seed
			return experiment.Options{
				Base:        base,
				Scenarios:   whatIfGroup(),
				Reps:        sz.whatifReps,
				Workers:     parallelism,
				Fork:        true,
				ForkWorkers: parallelism,
			}
		}), nil
	}
	return nil, fmt.Errorf("unknown workload %q (have: %s)", name, strings.Join(workloadNames, ", "))
}

// campaignWorkload is a single-project campaign on a fresh pooled runner:
// Run on the untraced path; on the traced path the same run stepped one
// simulated week at a time and finished through Snapshot + Fork.
func campaignWorkload(name string, nominalOpS float64, cfgOf func(*core.System) project.Config) *workload {
	return &workload{
		name:       name,
		nominalOpS: nominalOpS,
		setupCall:  "project.Begin",
		setup:      func(sys *core.System) { project.NewRunner().Begin(cfgOf(sys)) },
		op: func(sys *core.System, tr *tracer) (opResult, error) {
			cfg := cfgOf(sys)
			r := project.NewRunner()
			var rep *project.Report
			if tr == nil {
				rep = r.Run(cfg)
			} else {
				rep = steppedRun(tr, r, cfg)
			}
			return campaignResult(r, rep)
		},
		extra: func(sys *core.System, p *pass) error {
			// The same campaign on the sharded SoA kernel at K=1.
			cfg := cfgOf(sys)
			shards := cfg.Shards
			cfg.Shards = 1
			secs, res, err := p.timedOp(func() (opResult, error) {
				r := project.NewRunner()
				return campaignResult(r, r.Run(cfg))
			})
			if err != nil {
				return err
			}
			if res.digest != p.res.digest {
				return fmt.Errorf("K=1 report differs from the K=%d report", shards)
			}
			if shards == 0 {
				p.m["volunteer.soa_k1_op_s"] = secs
				p.m["volunteer.soa_vs_legacy"] = secs / p.opS
			} else {
				p.m["volunteer.k1_op_s"] = secs
				p.m["volunteer.shard_speedup"] = secs / p.opS
			}
			return nil
		},
	}
}

// steppedRun runs cfg one simulated week per RunTo up to its horizon, then
// captures a snapshot and forks cfg from it to drain and report. Reports are
// byte-identical to Runner.Run(cfg).
func steppedRun(tr *tracer, r *project.Runner, cfg project.Config) *project.Report {
	tr.do("project.Begin", "", func() { r.Begin(cfg) })
	for w := 1; float64(w) <= cfg.MaxWeeks; w++ {
		tr.do("project.RunTo", phaseOf(cfg, float64(w-1)), func() { r.RunTo(sim.Time(w) * sim.Week) })
	}
	tr.do("snapshot.Snapshot", "", r.Snapshot)
	var rep *project.Report
	tr.do("project.Fork", "finish", func() { rep = r.Fork(cfg) })
	return rep
}

// phaseOf names the §5.1 phase the campaign is in at week w.
func phaseOf(cfg project.Config, w float64) string {
	switch {
	case w < cfg.ControlWeeks:
		return "control"
	case w < cfg.ControlWeeks+cfg.RampWeeks:
		return "ramp"
	}
	return "full"
}

func campaignResult(r *project.Runner, rep *project.Report) (opResult, error) {
	if err := checkReport(rep); err != nil {
		return opResult{}, err
	}
	res := opResult{keep: r}
	res.counts.addReport(rep)
	var err error
	res.digest, err = reportDigest(rep)
	return res, err
}

// corunWorkload is two equal-share HCMD tenants on one volunteer
// population, multiplexed through the work-fetch mux.
func corunWorkload(sz sizes, seed uint64) *workload {
	cfgOf := func(sys *core.System) project.GridConfig {
		cfg := sys.SharedGridConfig(2, sz.corunScale, nil)
		cfg.Seed += seed
		for i := range cfg.Projects {
			cfg.Projects[i].Seed += seed
		}
		return cfg
	}
	return &workload{
		name:       "corun",
		nominalOpS: 2,
		setupCall:  "project.NewGrid",
		setup:      func(sys *core.System) { project.NewGrid(cfgOf(sys)) },
		op: func(sys *core.System, tr *tracer) (opResult, error) {
			cfg := cfgOf(sys)
			r := project.NewGridRunner()
			var rep *project.GridReport
			tr.do("project.GridRun", "", func() { rep = r.Run(cfg) })
			for i, p := range rep.Projects {
				if err := checkReport(p); err != nil {
					return opResult{}, fmt.Errorf("tenant %d: %w", i, err)
				}
			}
			if e := rep.MaxShareError(); e > 0.01 {
				return opResult{}, fmt.Errorf("max share error %.4f > 0.01", e)
			}
			res := opResult{keep: r}
			for _, p := range rep.Projects {
				res.counts.addReport(p)
			}
			// The grid report carries the shared engine's and population's
			// accounting; tenant reports leave those fields zero.
			res.counts.events, res.counts.peakPending = rep.EventsExecuted, rep.PeakPending
			res.counts.points = rep.PointsTotal
			res.counts.shareErr = rep.MaxShareError()
			var err error
			res.digest, err = gridDigest(rep)
			return res, err
		},
		extra: func(*core.System, *pass) error { return nil },
	}
}

// sweepWorkload runs one experiment sweep per op; extra is its traced
// pass's extra configuration.
func sweepWorkload(name string, nominalOpS float64, extra func(*pass, experiment.Options) error,
	optsOf func(*core.System) experiment.Options) *workload {
	return &workload{
		name:       name,
		nominalOpS: nominalOpS,
		setupCall:  "project.Begin",
		setup:      func(sys *core.System) { project.NewRunner().Begin(optsOf(sys).Base) },
		op: func(sys *core.System, tr *tracer) (opResult, error) {
			return runSweep(optsOf(sys), tr)
		},
		extra: func(sys *core.System, p *pass) error { return extra(p, optsOf(sys)) },
	}
}

// runSweep runs one sweep and checks it. On the traced path every finished
// cell becomes a span under the experiment.Run span.
func runSweep(opts experiment.Options, tr *tracer) (opResult, error) {
	if tr != nil {
		opts.Progress = func(p experiment.Progress) {
			end := time.Now()
			tr.record("project.cell", p.Result.Scenario, end.Add(-time.Duration(p.WallSeconds*1e9)), end)
		}
	}
	var sw *experiment.Sweep
	var err error
	tr.do("experiment.Run", "", func() { sw, err = experiment.Run(context.Background(), opts) })
	if err != nil {
		return opResult{}, err
	}
	if len(sw.Failed) > 0 {
		return opResult{}, fmt.Errorf("%d cells failed", len(sw.Failed))
	}
	if cells := len(opts.Scenarios) * opts.Reps; opts.Fork {
		if sw.PrefixHits != cells {
			return opResult{}, fmt.Errorf("prefix hits %d, want %d", sw.PrefixHits, cells)
		}
		if sw.AdoptedRunners == 0 {
			return opResult{}, fmt.Errorf("no snapshot was adopted")
		}
	}
	res := opResult{keep: sw, sweep: sw}
	for _, r := range sw.Results {
		res.counts.addCell(r.Metrics)
	}
	if opts.Fork {
		// Forked cells share their prefix: their metrics count the
		// prefix's results once per cell, not once per simulation.
		res.counts.estReceived = 0
	}
	res.digest, err = digestJSON(sw.Results)
	return res, err
}

// sweepExtras runs the sweep with the observability plane off, then on the
// SoA kernel at K=1: both must leave every result byte unchanged.
func sweepExtras(p *pass, opts experiment.Options) error {
	opts.MetricsSink, opts.TraceSink = nil, nil
	bare, res, err := p.timedOp(func() (opResult, error) { return runSweep(opts, nil) })
	if err == nil && res.digest != p.res.digest {
		err = fmt.Errorf("sweep without sinks differs from the instrumented sweep")
	}
	if err != nil {
		return err
	}
	p.m["obs.overhead_pct"] = (p.opS - bare) / bare * 100
	opts.Shards = 1
	k1, res, err := p.timedOp(func() (opResult, error) { return runSweep(opts, nil) })
	if err == nil && res.digest != p.res.digest {
		err = fmt.Errorf("K=1 sweep differs from the legacy-kernel sweep")
	}
	if err != nil {
		return err
	}
	p.m["volunteer.soa_k1_op_s"] = k1
	p.m["volunteer.soa_vs_legacy"] = k1 / bare
	return nil
}

// whatIfGroup is the week-14 what-if group: eight variants of the deployed
// quorum-switch week, every one identical to the base trajectory until the
// base switches at week 14.
func whatIfGroup() []experiment.Scenario {
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

// forkWalk walks replication 0's prefix tree by hand, as the sweep does,
// timing each snapshot call, and checks every forked and every adopted
// cell against the sweep's own result for it.
func forkWalk(p *pass, opts experiment.Options) error {
	tr := p.tr
	tr.beginOp()
	p.attempted++ // the walk is one op; the caller counts its failure
	want := make(map[string]experiment.Metrics)
	for _, r := range p.res.sweep.Results {
		if r.Rep == 0 {
			want[r.Scenario] = r.Metrics
		}
	}
	base := opts.Base
	base.Seed = experiment.DeriveSeed(base.Seed, 0, 0) // the tree's root is the first scenario
	at := opts.Scenarios[0].DivergesAt
	cellCfg := func(sc experiment.Scenario) project.Config {
		cfg := base
		sc.Mutate(&cfg)
		return cfg
	}
	check := func(sc experiment.Scenario, rep *project.Report) error {
		if got := experiment.ExtractMetrics(rep); got != want[sc.Name] {
			return fmt.Errorf("%s: walked fork differs from the sweep's cell", sc.Name)
		}
		return nil
	}

	pub := project.NewRunner()
	var ps *project.PortableSnapshot
	var err error
	tr.do("project.Begin", "walk", func() { pub.Begin(base) })
	tr.do("project.RunTo", "prefix", func() { pub.RunTo(at) })
	tr.do("snapshot.Materialize", "", func() { ps, err = pub.Materialize() })
	if err != nil {
		return fmt.Errorf("materialize: %w", err)
	}
	p.m["snapshot.bytes"] = float64(ps.Bytes())
	tr.do("snapshot.Snapshot", "", pub.Snapshot)
	for _, sc := range opts.Scenarios {
		var rep *project.Report
		tr.do("project.Fork", "cell", func() { rep = pub.Fork(cellCfg(sc)) })
		if err := check(sc, rep); err != nil {
			return err
		}
	}
	tr.do("snapshot.Restore", "", pub.Restore)

	adopter := project.NewRunner()
	tr.do("snapshot.AdoptSnapshot", "", func() { adopter.AdoptSnapshot(ps) })
	tr.do("snapshot.Snapshot", "", adopter.Snapshot)
	for _, sc := range opts.Scenarios {
		var rep *project.Report
		tr.do("project.Fork", "adopted", func() { rep = adopter.Fork(cellCfg(sc)) })
		if err := check(sc, rep); err != nil {
			return err
		}
	}
	return nil
}

// checkReport applies the conservation identities every report must hold.
// Saboteur scenarios may legitimately end with Completed false, so that
// alone is not a failure.
func checkReport(rep *project.Report) error {
	s := rep.ServerStats
	switch {
	case s.Received != s.Valid+s.Invalid:
		return fmt.Errorf("received %d != valid %d + invalid %d", s.Received, s.Valid, s.Invalid)
	case s.Valid != s.Useful+s.Wasted:
		return fmt.Errorf("valid %d != useful %d + wasted %d", s.Valid, s.Useful, s.Wasted)
	case rep.Completed && s.Completed != rep.DistinctWUs:
		return fmt.Errorf("completed run validated %d workunits of %d", s.Completed, rep.DistinctWUs)
	}
	return nil
}

// reportDigest hashes the report's JSON rendering with its config zeroed,
// the rendering the repository's golden tests pin.
func reportDigest(rep *project.Report) (string, error) {
	r := *rep
	r.Config = project.Config{}
	return digestJSON(&r)
}

func gridDigest(rep *project.GridReport) (string, error) {
	r := *rep
	r.Projects = make([]*project.Report, len(rep.Projects))
	for i, p := range rep.Projects {
		c := *p
		c.Config = project.Config{}
		r.Projects[i] = &c
	}
	return digestJSON(&r)
}

func digestJSON(v any) (string, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return "", fmt.Errorf("digest: %w", err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}
