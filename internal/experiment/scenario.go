// Package experiment turns the repository from "replays the paper" into a
// design-space explorer: named what-if scenarios over the campaign and the
// co-run configurations, one sweep engine whose bounded worker pool fans
// scenario × replication runs out across the machine's cores,
// cross-replication statistics with 95 % confidence intervals, and JSON
// checkpointing so an interrupted sweep resumes where it stopped.
//
// There is one scenario type and one front end, Run. Its base config is a
// campaign, or a co-run when it carries tenants (project.Config.Projects);
// Catalog and GridCatalog are the built-in lists for each, and Select
// resolves a name list against either. The engine's jobs are standalone
// cells, prefix trees that fork a replication's what-if cells off one
// shared trajectory, and adopt chunks that race a tree's forks on other
// workers; every kind shares the checkpoint, progress and panic-isolation
// paths. A co-run sweep's gridsweep.json form is NewGridSweep.
//
// Each discrete-event run stays single-threaded and bit-for-bit
// deterministic in its derived seed; parallelism is only across runs, so a
// sweep's aggregates are identical whether it ran on one worker or sixteen.
package experiment

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/costmodel"
	"repro/internal/faults"
	"repro/internal/project"
	"repro/internal/sim"
	"repro/internal/volunteer"
	"repro/internal/wcg"
)

// Scenario is one named point of the design space: a description and a
// mutation applied to the sweep's base configuration, a campaign or a
// co-run. Mutators must be pure functions of the config (no captured
// mutable state): the runner applies them concurrently to per-run config
// copies, a co-run's Projects and Shares included.
type Scenario struct {
	Name        string
	Description string
	Mutate      func(cfg *project.Config)

	// DivergesAt, when positive, is the earliest sim time at which the
	// mutated configuration's behavior can differ from the base config's:
	// before it, every lazily-read knob the mutation touches (the phase
	// schedule sampled at weekly ticks, the grid model, the quorum in
	// force) evaluates identically. The sweep runner uses it to build a
	// prefix tree: all DivergesAt > 0 scenarios of one replication share a
	// single trajectory (and trajectory seed), the common prefix runs
	// once, and each cell forks from an in-memory snapshot at its
	// divergence time. Zero — the default — means the scenario diverges
	// at t = 0 (bind-time mutation) and always runs standalone.
	// TestDivergesAtHints pins the hints against the mutators.
	DivergesAt sim.Time
}

// Catalog returns the built-in scenario catalog: the paper's ablations
// (launch order, quorum regime, deadline, packaging, phase schedule, grid
// growth, phase II plan) plus the policy-layer scenarios that swap whole
// mechanisms — dispatch order, adaptive replication, deadline classes,
// saboteur and diurnal host cohorts — and the fault-plane scenarios that
// stress graceful degradation under outages, flaky uplinks, and churn.
// The order is the canonical presentation order of sweep reports.
func Catalog() []Scenario {
	return []Scenario{
		{
			Name:        "baseline",
			Description: "production deployment: cheapest-first, quorum 2→1 at week 14, 8d deadline, 3.7h workunits",
			Mutate:      func(*project.Config) {},
		},
		{
			Name:        "costliest-first",
			Description: "adversarial launch order: most expensive receptor batches released first",
			Mutate:      func(cfg *project.Config) { cfg.Order = project.CostliestFirst },
		},
		{
			Name:        "random-order",
			Description: "launch order scrambled by the run seed",
			Mutate:      func(cfg *project.Config) { cfg.Order = project.RandomOrder },
		},
		{
			Name:        "quorum-1",
			Description: "value-checked single results from day one (no comparison validation period)",
			Mutate: func(cfg *project.Config) {
				cfg.Server.InitialQuorum = 1
				cfg.Server.SteadyQuorum = 1
				cfg.Server.QuorumSwitchTime = 0
			},
		},
		{
			Name:        "quorum-2",
			Description: "comparison validation for the whole campaign (the switch to quorum 1 never happens)",
			Mutate: func(cfg *project.Config) {
				cfg.Server.InitialQuorum = 2
				cfg.Server.SteadyQuorum = 2
				cfg.Server.QuorumSwitchTime = 0
			},
			// Quorum 2 is already in force until the default switch at week
			// 14; removing the switch first matters there.
			DivergesAt: 14 * sim.Week,
		},
		{
			Name:        "late-quorum-switch",
			Description: "cautious project: the quorum 2→1 switch waits until week 22",
			Mutate:      func(cfg *project.Config) { cfg.Server.QuorumSwitchTime = 22 * sim.Week },
			// Identical to the base until the default switch would have
			// fired at week 14.
			DivergesAt: 14 * sim.Week,
		},
		{
			Name:        "deadline-4d",
			Description: "aggressive 4-day return deadline (more reissues, fewer stragglers)",
			Mutate:      func(cfg *project.Config) { cfg.Server.Deadline = 4 * sim.Day },
		},
		{
			Name:        "deadline-16d",
			Description: "lenient 16-day return deadline (fewer reissues, longer tail)",
			Mutate:      func(cfg *project.Config) { cfg.Server.Deadline = 16 * sim.Day },
		},
		{
			Name:        "wu-1h",
			Description: "fine packaging: 1-hour reference workunits (§4.2 sweep, low end)",
			Mutate:      func(cfg *project.Config) { cfg.HHours = 1 },
		},
		{
			Name:        "wu-10h",
			Description: "coarse packaging: 10-hour reference workunits (§4.2 sweep, high end)",
			Mutate:      func(cfg *project.Config) { cfg.HHours = 10 },
		},
		{
			Name:        "no-control-phase",
			Description: "full project priority from day one: no low-priority control period, half-week ramp",
			Mutate: func(cfg *project.Config) {
				cfg.ControlWeeks = 0
				cfg.RampWeeks = 0.5
			},
			// Share(0) is ControlShare under both schedules (the half-week
			// ramp starts at zero); the first differing weekly tick is w=1.
			DivergesAt: 1 * sim.Week,
		},
		{
			Name:        "slow-ramp",
			Description: "conservative schedule: 8-week control period then a 10-week prioritization ramp",
			Mutate: func(cfg *project.Config) {
				cfg.ControlWeeks = 8
				cfg.RampWeeks = 10
			},
			// The control period is unchanged and Share(8) sits at the ramp
			// start under both; the ramps first differ at the week-9 tick.
			DivergesAt: 9 * sim.Week,
		},
		{
			Name:        "grid-static",
			Description: "pessimistic grid: the World Community Grid stops growing at campaign start",
			Mutate: func(cfg *project.Config) {
				cfg.Grid.BaseVFTP = cfg.Grid.VFTPAt(project.CampaignStartWeek)
				cfg.Grid.GrowthPerWeek = 0
			},
			// The frozen grid equals the growing one at campaign start by
			// construction; the first differing weekly tick is w=1.
			DivergesAt: 1 * sim.Week,
		},
		{
			Name:        "grid-boom",
			Description: "optimistic grid: member recruitment doubles the weekly VFTP growth",
			Mutate:      func(cfg *project.Config) { cfg.Grid.GrowthPerWeek *= 2 },
		},
		{
			Name:        "half-share",
			Description: "the project only ever secures half the production grid share",
			Mutate: func(cfg *project.Config) {
				cfg.ControlShare /= 2
				cfg.FullShare /= 2
				cfg.MaxWeeks *= 2
			},
		},
		// --- Policy scenarios: vary the middleware mechanisms, not just
		// their parameters (the wcg policy layer). ---
		{
			Name:        "lifo-dispatch",
			Description: "stack dispatch: the newest queued workunit goes out first, starving the oldest batches",
			Mutate:      func(cfg *project.Config) { cfg.Server.Scheduler = wcg.LIFOScheduler{} },
		},
		{
			Name:        "random-dispatch",
			Description: "uniform-random dispatch over the queued workunits, seeded from the run seed",
			Mutate: func(cfg *project.Config) {
				cfg.Server.Scheduler = wcg.RandomScheduler{Seed: cfg.Seed + 17}
			},
		},
		{
			Name:        "batch-priority",
			Description: "strict batch seniority: finish the earliest-released receptor batch before issuing newer work",
			Mutate:      func(cfg *project.Config) { cfg.Server.Scheduler = wcg.BatchPriorityScheduler{} },
		},
		{
			Name:        "adaptive-replication",
			Description: "BOINC-style adaptive replication: a 10-valid-result streak earns a host per-host quorum 1",
			Mutate:      func(cfg *project.Config) { cfg.Server.Validator = wcg.AdaptiveValidator{Streak: 10} },
		},
		{
			Name:        "saboteurs-1pct",
			Description: "1% saboteur cohort: hosts that turn permanently bad and return correlated invalid results",
			Mutate: func(cfg *project.Config) {
				cfg.Host.Profiles = volunteer.SaboteurProfiles(0.01, cfg.Host.ErrorProb, 0.25)
			},
		},
		{
			Name:        "saboteurs-5pct",
			Description: "5% saboteur cohort: the heavy-sabotage stress point",
			Mutate: func(cfg *project.Config) {
				cfg.Host.Profiles = volunteer.SaboteurProfiles(0.05, cfg.Host.ErrorProb, 0.25)
			},
		},
		{
			Name:        "adaptive-vs-saboteurs",
			Description: "the defense matchup: adaptive replication facing the 1% saboteur cohort",
			Mutate: func(cfg *project.Config) {
				cfg.Server.Validator = wcg.AdaptiveValidator{Streak: 10}
				cfg.Host.Profiles = volunteer.SaboteurProfiles(0.01, cfg.Host.ErrorProb, 0.25)
			},
		},
		{
			Name:        "deadline-2class",
			Description: "two deadline classes: workunits under 2.5 reference hours get 4 days, the rest keep the server deadline",
			Mutate: func(cfg *project.Config) {
				cfg.Server.DeadlinePolicy = wcg.DeadlineClasses{
					{MaxRefSeconds: 2.5 * 3600, Deadline: 4 * sim.Day},
					{Deadline: cfg.Server.Deadline},
				}
			},
		},
		{
			Name:        "diurnal-hosts",
			Description: "day-cycle fleet: every device online 14h/day with phases spread around the clock",
			Mutate: func(cfg *project.Config) {
				cfg.Host.Profiles = volunteer.DiurnalProfiles(volunteer.DefaultOnlineHours, cfg.Host.ErrorProb)
			},
		},
		// --- Fault scenarios: the internal/faults plane — outages, flaky
		// uplinks, churn — with backoff-based graceful degradation. Each
		// Mutate builds a fresh faults.Config so the mutators stay pure. ---
		{
			Name:        "weekly-maintenance",
			Description: "planned ops: a 4-hour server maintenance window every week, hosts back off and reconnect smeared",
			Mutate: func(cfg *project.Config) {
				cfg.Faults = &faults.Config{
					MaintenanceEvery:    sim.Week,
					MaintenanceOffset:   2*sim.Day + 2*sim.Hour,
					MaintenanceDuration: 4 * sim.Hour,
				}
			},
		},
		{
			Name:        "unplanned-24h-outage",
			Description: "rare disaster: unplanned outages averaging 24 hours roughly twice a year",
			Mutate: func(cfg *project.Config) {
				cfg.Faults = &faults.Config{
					UnplannedPerWeek:     1.0 / 26,
					UnplannedMeanSeconds: 24 * sim.Hour,
				}
			},
		},
		{
			Name:        "flaky-uplink-1pct",
			Description: "lossy last mile: 1% of result uploads vanish, three retries before a result is abandoned",
			Mutate: func(cfg *project.Config) {
				cfg.Faults = &faults.Config{
					UploadLossProb: 0.01,
					UploadRetries:  3,
				}
			},
		},
		{
			Name:        "churn-steady",
			Description: "volunteer churn: 3% of the fleet departs permanently each week, replaced by fresh joins",
			Mutate: func(cfg *project.Config) {
				cfg.Faults = &faults.Config{ChurnPerWeek: 0.03}
			},
		},
		{
			Name:        "outage-no-backoff",
			Description: "degradation control: weekly maintenance with exponential backoff disabled (flat retry hammering)",
			Mutate: func(cfg *project.Config) {
				cfg.Faults = &faults.Config{
					MaintenanceEvery:    sim.Week,
					MaintenanceOffset:   2*sim.Day + 2*sim.Hour,
					MaintenanceDuration: 4 * sim.Hour,
					NoBackoff:           true,
				}
			},
		},
		{
			Name:        "fault-storm",
			Description: "everything at once: weekly maintenance, frequent unplanned outages, 2% upload loss, 5% weekly churn",
			Mutate: func(cfg *project.Config) {
				cfg.Faults = &faults.Config{
					MaintenanceEvery:     sim.Week,
					MaintenanceOffset:    2*sim.Day + 2*sim.Hour,
					MaintenanceDuration:  4 * sim.Hour,
					UnplannedPerWeek:     0.1,
					UnplannedMeanSeconds: 12 * sim.Hour,
					UploadLossProb:       0.02,
					UploadRetries:        3,
					ChurnPerWeek:         0.05,
				}
			},
		},
		{
			Name:        "phase2-plan",
			Description: "§7 phase II operating point: 5.67× workload on a flat 59,730-VFTP slice, validated by simulation",
			Mutate: func(cfg *project.Config) {
				cfg.M = costmodel.SynthesizePhaseII(cfg.DS, cfg.Seed+11)
				cfg.Grid = volunteer.GridModel{BaseVFTP: 59730, GrowthPerWeek: 0}
				cfg.ControlWeeks = 0
				cfg.RampWeeks = 0.1
				cfg.ControlShare = 1
				cfg.FullShare = 1
				cfg.MaxWeeks = 90
			},
		},
	}
}

// Lookup returns the scenario of list with the given name.
func Lookup(list []Scenario, name string) (Scenario, bool) {
	for _, s := range list {
		if s.Name == name {
			return s, true
		}
	}
	return Scenario{}, false
}

// Select resolves a CLI-style scenario spec against list (Catalog or
// GridCatalog): "all" (or "") yields the whole list in its order;
// otherwise a comma-separated list of names, deduplicated, in the order
// given.
func Select(list []Scenario, spec string) ([]Scenario, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" || spec == "all" {
		return list, nil
	}
	var out []Scenario
	seen := make(map[string]bool)
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		if name == "" || seen[name] {
			continue
		}
		s, ok := Lookup(list, name)
		if !ok {
			return nil, fmt.Errorf("experiment: unknown scenario %q (have: %s)", name, strings.Join(Names(list), ", "))
		}
		seen[name] = true
		out = append(out, s)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("experiment: empty scenario selection %q", spec)
	}
	return out, nil
}

// Names returns list's scenario names, sorted.
func Names(list []Scenario) []string {
	names := orderedNames(list)
	sort.Strings(names)
	return names
}
